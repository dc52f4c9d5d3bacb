module Config = Taqp_core.Config
module Report = Taqp_core.Report
module Taqp = Taqp_core.Taqp
module Staged = Taqp_core.Staged
module Stopping = Taqp_timecontrol.Stopping
module Strategy = Taqp_timecontrol.Strategy
module Plan = Taqp_sampling.Plan
module Paper_setup = Taqp_workload.Paper_setup
module Generator = Taqp_workload.Generator
module Cost_model = Taqp_timecost.Cost_model
module Prng = Taqp_rng.Prng

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let small_spec =
  { Generator.n_tuples = 500; tuple_bytes = 200; block_bytes = 1024 }

let small_selection = Paper_setup.selection ~spec:small_spec ~output:100 ~seed:5 ()

let observe_config =
  {
    Config.default with
    Config.stopping = Stopping.Soft_deadline { grace = 100.0 };
  }

(* ------------------------------------------------------------------ *)
(* End-to-end behaviour                                                *)

let test_selection_estimate_reasonable () =
  let wl = small_selection in
  let r = Taqp.count_within ~config:observe_config ~seed:1 wl.catalog ~quota:2.0 wl.query in
  checkb "stages ran" true (r.Report.stages_completed >= 1);
  checkb "estimate in a sane band" true
    (r.Report.estimate > 20.0 && r.Report.estimate < 400.0);
  checkb "variance positive" true (r.Report.variance > 0.0);
  checkb "blocks sampled, not the full relation" true
    (r.Report.useful_blocks > 0 && r.Report.useful_blocks <= 100)

let test_estimates_concentrate_on_truth () =
  (* Across seeds, the mean estimate should be near the exact count
     (estimator unbiasedness through the full staged pipeline). *)
  let wl = small_selection in
  let s = Taqp_stats.Summary.create () in
  for seed = 1 to 40 do
    let r = Taqp.count_within ~config:observe_config ~seed wl.catalog ~quota:2.0 wl.query in
    Taqp_stats.Summary.add s r.Report.estimate
  done;
  let mean = Taqp_stats.Summary.mean s in
  checkb "mean near exact" true (Float.abs (mean -. float_of_int wl.exact) < 20.0)

let test_hard_abort_never_exceeds_quota () =
  let wl = small_selection in
  for seed = 1 to 20 do
    let config = { Config.default with Config.stopping = Stopping.Hard_deadline } in
    let r = Taqp.count_within ~config ~seed wl.catalog ~quota:1.0 wl.query in
    (* In abort mode the clock stops exactly at the deadline. *)
    checkb "never past the quota" true (r.Report.elapsed <= 1.0 +. 1e-9);
    checkb "overspend reported as zero" true (r.Report.overspend = 0.0)
  done

let test_exact_when_quota_huge () =
  let wl = small_selection in
  let r =
    Taqp.count_within ~config:observe_config ~seed:3 wl.catalog ~quota:1e6 wl.query
  in
  checkb "exact flag" true r.Report.exact;
  checkb "outcome exact" true (r.Report.outcome = Report.Exact);
  Alcotest.check (Alcotest.float 1e-6) "estimate equals exact"
    (float_of_int wl.exact) r.Report.estimate

let test_determinism () =
  let wl = small_selection in
  let run () = Taqp.count_within ~config:observe_config ~seed:9 wl.catalog ~quota:2.0 wl.query in
  let a = run () and b = run () in
  Alcotest.check (Alcotest.float 1e-12) "same estimate" a.Report.estimate b.Report.estimate;
  checki "same stages" a.Report.stages_completed b.Report.stages_completed;
  Alcotest.check (Alcotest.float 1e-12) "same elapsed" a.Report.elapsed b.Report.elapsed

let test_error_bound_stopping () =
  let wl = small_selection in
  let config =
    {
      observe_config with
      Config.stopping = Stopping.Error_bound { relative = 0.9; level = 0.95 };
    }
  in
  (* a quota that affords several stages but not the full relation *)
  let r = Taqp.count_within ~config ~seed:2 wl.catalog ~quota:3.0 wl.query in
  checkb "finished by error bound" true (r.Report.outcome = Report.Finished);
  checkb "did not consume everything" true (not r.Report.exact)

let test_max_stages_stopping () =
  let wl = small_selection in
  let config =
    { observe_config with Config.stopping = Stopping.Max_stages 1 }
  in
  let r = Taqp.count_within ~config ~seed:2 wl.catalog ~quota:1e5 wl.query in
  checki "exactly one stage" 1 r.Report.stages_completed

let test_report_accounting_invariants () =
  let wl = small_selection in
  for seed = 1 to 15 do
    let r = Taqp.count_within ~config:observe_config ~seed wl.catalog ~quota:1.5 wl.query in
    checkb "utilization in [0, 1.01]" true
      (r.Report.utilization >= 0.0 && r.Report.utilization <= 1.01);
    checkb "useful <= elapsed" true (r.Report.useful_time <= r.Report.elapsed +. 1e-9);
    checkb "waste nonnegative" true (r.Report.waste >= -1e-9);
    checkb "useful blocks <= total blocks" true
      (r.Report.useful_blocks <= r.Report.blocks_read);
    (match r.Report.outcome with
    | Report.Overspent ->
        checkb "overspend positive" true (r.Report.overspend > 0.0);
        checkb "flagged aborted" true r.Report.stage_aborted
    | Report.Quota_exhausted ->
        checkb "within quota" true (r.Report.elapsed <= r.Report.quota +. 1e-9)
    | Report.Finished | Report.Aborted_mid_stage | Report.Exact
    | Report.Faulted ->
        ());
    (* accounting identity: useful + waste + overspend covers the span *)
    let covered = r.Report.useful_time +. r.Report.waste +. r.Report.overspend in
    checkb "identity" true
      (Float.abs (covered -. Float.max r.Report.quota r.Report.elapsed) < 1e-6)
  done

let test_trace_consistency () =
  let wl = small_selection in
  let r = Taqp.count_within ~config:observe_config ~seed:4 wl.catalog ~quota:2.0 wl.query in
  checkb "trace nonempty" true (r.Report.trace <> []);
  List.iteri
    (fun i s ->
      checki "indices sequential" (i + 1) s.Report.index;
      checkb "positive fraction" true (s.Report.fraction > 0.0);
      checkb "monotone time" true (s.Report.finished_at >= s.Report.started_at);
      checkb "ops snapshots present" true (s.Report.ops <> []))
    r.Report.trace;
  let no_trace =
    Taqp.count_within
      ~config:{ observe_config with Config.trace = false }
      ~seed:4 wl.catalog ~quota:2.0 wl.query
  in
  checkb "trace disabled" true (no_trace.Report.trace = [])

(* ------------------------------------------------------------------ *)
(* Operator coverage                                                   *)

let test_join_runs () =
  let wl = Paper_setup.join ~spec:small_spec ~target_output:2000 ~seed:5 () in
  let r = Taqp.count_within ~config:observe_config ~seed:1 wl.catalog ~quota:2.0 wl.query in
  checkb "ran" true (r.Report.stages_completed >= 1);
  checkb "sane" true (r.Report.estimate >= 0.0)

let test_intersection_runs () =
  let wl = Paper_setup.intersection ~spec:small_spec ~overlap:250 ~seed:5 () in
  let r = Taqp.count_within ~config:observe_config ~seed:1 wl.catalog ~quota:3.0 wl.query in
  checkb "ran" true (r.Report.stages_completed >= 1)

let test_projection_runs () =
  let wl = Paper_setup.projection ~spec:small_spec ~groups:20 ~seed:5 () in
  let r = Taqp.count_within ~config:observe_config ~seed:1 wl.catalog ~quota:3.0 wl.query in
  checkb "ran" true (r.Report.stages_completed >= 1);
  checkb "estimate bounded by population" true
    (r.Report.estimate <= float_of_int small_spec.Generator.n_tuples)

let test_projection_exact_when_exhausted () =
  let wl = Paper_setup.projection ~spec:small_spec ~groups:20 ~seed:5 () in
  let r = Taqp.count_within ~config:observe_config ~seed:1 wl.catalog ~quota:1e6 wl.query in
  Alcotest.check (Alcotest.float 1e-6) "exact groups" 20.0 r.Report.estimate

let test_union_query_inclusion_exclusion () =
  let wl = Paper_setup.union_of_selects ~spec:small_spec ~seed:5 () in
  let r = Taqp.count_within ~config:observe_config ~seed:2 wl.catalog ~quota:1e6 wl.query in
  Alcotest.check (Alcotest.float 1e-6) "union exact via I-E"
    (float_of_int wl.exact) r.Report.estimate

let test_select_join_pipeline () =
  let wl = Paper_setup.select_join ~spec:small_spec ~target_output:2000 ~keep:100 ~seed:5 () in
  let r = Taqp.count_within ~config:observe_config ~seed:1 wl.catalog ~quota:1e6 wl.query in
  Alcotest.check (Alcotest.float 1e-6) "pipeline exact"
    (float_of_int wl.exact) r.Report.estimate

(* ------------------------------------------------------------------ *)
(* Plans and strategies                                                *)

let run_with config seed =
  let wl = small_selection in
  Taqp.count_within ~config ~seed wl.catalog ~quota:2.0 wl.query

let test_simple_random_plan () =
  let config =
    {
      observe_config with
      Config.plan = { Plan.unit_kind = Plan.Simple_random; fulfillment = Plan.Full };
    }
  in
  let r = run_with config 1 in
  checkb "ran" true (r.Report.stages_completed >= 1);
  (* SRS pays one block read per tuple: far fewer tuples per second. *)
  let cluster = run_with observe_config 1 in
  checkb "cluster reads more tuples per unit time" true
    (Taqp_storage.Io_stats.tuples_checked cluster.Report.io
    > Taqp_storage.Io_stats.tuples_checked r.Report.io)

let test_partial_fulfillment () =
  let wl = Paper_setup.join ~spec:small_spec ~target_output:2000 ~seed:5 () in
  let config =
    {
      observe_config with
      Config.plan = { Plan.unit_kind = Plan.Cluster; fulfillment = Plan.Partial };
    }
  in
  let r = Taqp.count_within ~config ~seed:1 wl.catalog ~quota:2.0 wl.query in
  checkb "ran" true (r.Report.stages_completed >= 1)

let test_strategies_run () =
  List.iter
    (fun strategy ->
      let r = run_with { observe_config with Config.strategy } 3 in
      checkb (Strategy.name strategy) true (r.Report.stages_completed >= 1))
    [
      Strategy.one_at_a_time ~d_beta:2.0 ();
      Strategy.single_interval ~d_alpha:2.0 ();
      Strategy.heuristic ~split:0.5;
    ]

let test_initial_selectivity_override () =
  let wl = Paper_setup.join ~spec:small_spec ~target_output:2000 ~seed:5 () in
  let config =
    {
      observe_config with
      Config.initial_selectivities =
        { Config.no_initial_overrides with Config.join = Some 0.05 };
    }
  in
  let with_override = Taqp.count_within ~config ~seed:1 wl.catalog ~quota:2.0 wl.query in
  let without = Taqp.count_within ~config:observe_config ~seed:1 wl.catalog ~quota:2.0 wl.query in
  (* A lower assumed selectivity budgets cheaper stages -> at least as
     many blocks in the first stage. *)
  match (with_override.Report.trace, without.Report.trace) with
  | s1 :: _, s2 :: _ ->
      checkb "override affects stage 1 size" true (s1.Report.fraction >= s2.Report.fraction)
  | _ -> Alcotest.fail "expected traces"

(* ------------------------------------------------------------------ *)
(* Config validation and errors                                        *)

let test_config_validation () =
  let bad = { Config.default with Config.confidence_level = 1.5 } in
  checkb "bad confidence" true
    (match Config.validate bad with
    | () -> false
    | exception Invalid_argument _ -> true);
  let bad = { Config.default with Config.bisect_eps_frac = 0.0 } in
  checkb "bad eps" true
    (match Config.validate bad with
    | () -> false
    | exception Invalid_argument _ -> true);
  let bad =
    {
      Config.default with
      Config.initial_selectivities =
        { Config.no_initial_overrides with Config.join = Some 2.0 };
    }
  in
  checkb "bad selectivity" true
    (match Config.validate bad with
    | () -> false
    | exception Invalid_argument _ -> true)

let test_run_errors () =
  let wl = small_selection in
  checkb "bad quota" true
    (match Taqp.count_within wl.catalog ~quota:0.0 wl.query with
    | _ -> false
    | exception Invalid_argument _ -> true);
  checkb "unknown relation" true
    (match
       Taqp.count_within wl.catalog ~quota:1.0 (Taqp_relational.Ra.relation "nope")
     with
    | _ -> false
    | exception Taqp_relational.Ra.Type_error _ -> true)

let test_parse_facade () =
  let e = Taqp.parse "select[sel < 100](r)" in
  checkb "parses" true (Taqp_relational.Ra.size e = 2)

let test_estimate_error_helper () =
  let wl = small_selection in
  let r = Taqp.count_within ~config:observe_config ~seed:1 wl.catalog ~quota:1e6 wl.query in
  Alcotest.check (Alcotest.float 1e-9) "zero error when exact" 0.0
    (Taqp.estimate_error ~report:r ~exact:wl.exact)

(* ------------------------------------------------------------------ *)
(* Staged internals                                                    *)

let test_staged_plan_monotone () =
  let wl = small_selection in
  let cm = Cost_model.create () in
  let staged =
    Staged.compile ~catalog:wl.catalog ~config:Config.default ~rng:(Prng.create 1)
      ~cost_model:cm wl.query
  in
  let cost f = Staged.predicted_cost staged ~f ~mode:Staged.Plain in
  checkb "monotone in f" true (cost 0.01 < cost 0.1 && cost 0.1 < cost 0.5);
  let inflated =
    Staged.predicted_cost staged ~f:0.1
      ~mode:(Staged.Inflated { d_beta = 4.0; zero_beta = 0.05 })
  in
  checkb "inflation not cheaper" true (inflated >= cost 0.1);
  checki "one term" 1 (Staged.term_count staged);
  checkb "total points" true (Staged.total_points staged = 500.0)

let test_staged_plan_has_all_nodes () =
  let wl = Paper_setup.join ~spec:small_spec ~target_output:2000 ~seed:5 () in
  let cm = Cost_model.create () in
  let staged =
    Staged.compile ~catalog:wl.catalog ~config:Config.default ~rng:(Prng.create 1)
      ~cost_model:cm wl.query
  in
  let plan = Staged.plan staged ~f:0.05 ~mode:Staged.Plain in
  (* 2 scans + 1 join + overhead *)
  checki "plan entries" 4 (List.length plan);
  checki "op ids" 1 (List.length (Staged.op_ids staged));
  checkb "overhead last" true
    ((List.nth plan 3).Staged.plan_kind = Taqp_timecost.Formulas.Overhead)

let main_suites =
    [
      ( "end-to-end",
        [
          Alcotest.test_case "selection estimate" `Quick test_selection_estimate_reasonable;
          Alcotest.test_case "estimates concentrate" `Slow
            test_estimates_concentrate_on_truth;
          Alcotest.test_case "hard abort honors quota" `Quick
            test_hard_abort_never_exceeds_quota;
          Alcotest.test_case "exact with huge quota" `Quick test_exact_when_quota_huge;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "error-bound stopping" `Quick test_error_bound_stopping;
          Alcotest.test_case "max-stages stopping" `Quick test_max_stages_stopping;
          Alcotest.test_case "report invariants" `Quick test_report_accounting_invariants;
          Alcotest.test_case "trace consistency" `Quick test_trace_consistency;
        ] );
      ( "operators",
        [
          Alcotest.test_case "join" `Quick test_join_runs;
          Alcotest.test_case "intersection" `Quick test_intersection_runs;
          Alcotest.test_case "projection" `Quick test_projection_runs;
          Alcotest.test_case "projection exact" `Quick test_projection_exact_when_exhausted;
          Alcotest.test_case "union via inclusion-exclusion" `Quick
            test_union_query_inclusion_exclusion;
          Alcotest.test_case "select over join" `Quick test_select_join_pipeline;
        ] );
      ( "plans-strategies",
        [
          Alcotest.test_case "simple random plan" `Quick test_simple_random_plan;
          Alcotest.test_case "partial fulfillment" `Quick test_partial_fulfillment;
          Alcotest.test_case "all strategies" `Quick test_strategies_run;
          Alcotest.test_case "initial selectivity override" `Quick
            test_initial_selectivity_override;
        ] );
      ( "config-errors",
        [
          Alcotest.test_case "config validation" `Quick test_config_validation;
          Alcotest.test_case "run errors" `Quick test_run_errors;
          Alcotest.test_case "parse facade" `Quick test_parse_facade;
          Alcotest.test_case "estimate error helper" `Quick test_estimate_error_helper;
        ] );
      ( "staged",
        [
          Alcotest.test_case "plan monotone" `Quick test_staged_plan_monotone;
          Alcotest.test_case "plan node coverage" `Quick test_staged_plan_has_all_nodes;
        ] );
    ]

(* ------------------------------------------------------------------ *)
(* SUM / AVG aggregates (the paper's "any aggregate" extension)        *)

module Aggregate = Taqp_core.Aggregate

let test_aggregate_parse () =
  checkb "count" true (Aggregate.parse "count" = Aggregate.Count);
  checkb "sum" true (Aggregate.parse "sum(sel)" = Aggregate.Sum "sel");
  checkb "avg spaces" true (Aggregate.parse " avg( sel ) " = Aggregate.Avg "sel");
  checkb "garbage" true
    (match Aggregate.parse "median(x)" with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_sum_exact_when_exhausted () =
  let wl = small_selection in
  let agg = Aggregate.Sum "sel" in
  let r =
    Taqp.aggregate_within ~config:observe_config ~seed:1 ~aggregate:agg
      wl.catalog ~quota:1e6 wl.query
  in
  let truth = Taqp.aggregate_exact wl.catalog ~aggregate:agg wl.query in
  Alcotest.check (Alcotest.float 1e-6) "exact sum" truth r.Report.estimate;
  checkb "flagged exact" true r.Report.exact

let test_sum_estimates_concentrate () =
  let wl = small_selection in
  let agg = Aggregate.Sum "sel" in
  let truth = Taqp.aggregate_exact wl.catalog ~aggregate:agg wl.query in
  let s = Taqp_stats.Summary.create () in
  for seed = 1 to 30 do
    let r =
      Taqp.aggregate_within ~config:observe_config ~seed ~aggregate:agg
        wl.catalog ~quota:2.0 wl.query
    in
    checkb "variance positive" true (r.Report.variance > 0.0);
    Taqp_stats.Summary.add s r.Report.estimate
  done;
  checkb "mean near exact sum" true
    (Float.abs (Taqp_stats.Summary.mean s -. truth) < 0.25 *. truth)

let test_avg_estimate () =
  let wl = small_selection in
  let agg = Aggregate.Avg "sel" in
  let truth = Taqp.aggregate_exact wl.catalog ~aggregate:agg wl.query in
  (* sel < 100 selects sel values 0..99: true avg = 49.5 *)
  Alcotest.check (Alcotest.float 1e-6) "ground truth" 49.5 truth;
  let r =
    Taqp.aggregate_within ~config:observe_config ~seed:2 ~aggregate:agg
      wl.catalog ~quota:2.0 wl.query
  in
  checkb "avg in range" true (r.Report.estimate > 25.0 && r.Report.estimate < 75.0);
  let exact_run =
    Taqp.aggregate_within ~config:observe_config ~seed:2 ~aggregate:agg
      wl.catalog ~quota:1e6 wl.query
  in
  Alcotest.check (Alcotest.float 1e-6) "exact avg" 49.5 exact_run.Report.estimate

let test_sum_over_union () =
  let wl = Paper_setup.union_of_selects ~spec:small_spec ~seed:5 () in
  let agg = Aggregate.Sum "sel" in
  let truth = Taqp.aggregate_exact wl.catalog ~aggregate:agg wl.query in
  let r =
    Taqp.aggregate_within ~config:observe_config ~seed:1 ~aggregate:agg
      wl.catalog ~quota:1e6 wl.query
  in
  Alcotest.check (Alcotest.float 1e-6) "sum via inclusion-exclusion" truth
    r.Report.estimate

let test_aggregate_compile_errors () =
  let wl = small_selection in
  checkb "unknown attribute" true
    (match
       Taqp.aggregate_within ~aggregate:(Aggregate.Sum "nope") wl.catalog
         ~quota:1.0 wl.query
     with
    | _ -> false
    | exception Staged.Compile_error _ -> true);
  let proj = Paper_setup.projection ~spec:small_spec ~groups:10 ~seed:5 () in
  checkb "sum over projection rejected" true
    (match
       Taqp.aggregate_within ~aggregate:(Aggregate.Sum "grp") proj.catalog
         ~quota:1.0 proj.query
     with
    | _ -> false
    | exception Staged.Compile_error _ -> true)

let test_three_way_join_exact () =
  let wl =
    Paper_setup.three_way_join ~spec:{ small_spec with Generator.n_tuples = 120 }
      ~group_size:2 ~seed:5 ()
  in
  (* 60 groups of 2x2x2 = 480 output triples *)
  checki "ground truth" 480 wl.Paper_setup.exact;
  let r =
    Taqp.count_within ~config:observe_config ~seed:1 wl.catalog ~quota:1e7
      wl.query
  in
  Alcotest.check (Alcotest.float 1e-6) "staged evaluation exact" 480.0
    r.Report.estimate;
  checkb "flagged exact" true r.Report.exact

let test_three_way_join_sampled () =
  let wl =
    Paper_setup.three_way_join ~spec:{ small_spec with Generator.n_tuples = 120 }
      ~group_size:2 ~seed:5 ()
  in
  let r =
    Taqp.count_within ~config:observe_config ~seed:2 wl.catalog ~quota:6.0
      wl.query
  in
  checkb "ran stages" true (r.Report.stages_completed >= 1);
  checkb "did not read everything" true (not r.Report.exact);
  checkb "estimate nonnegative" true (r.Report.estimate >= 0.0)

let test_partial_fulfillment_exhaustion_not_exact () =
  (* Under partial fulfillment, consuming the population over several
     stages does not make the estimate exact: only the diagonal
     stage combinations were evaluated. (A single stage that draws
     everything IS the full cross product, so force two stages.) *)
  let wl = Paper_setup.join ~spec:small_spec ~target_output:2000 ~seed:5 () in
  let config =
    {
      observe_config with
      Config.plan = { Plan.unit_kind = Plan.Cluster; fulfillment = Plan.Partial };
    }
  in
  let cm = Cost_model.create () in
  let staged =
    Staged.compile ~catalog:wl.catalog ~config ~rng:(Prng.create 1)
      ~cost_model:cm wl.query
  in
  let clock = Taqp_storage.Clock.create_virtual () in
  let device = Taqp_storage.Device.create clock in
  checkb "first half" true (Staged.run_stage staged ~device ~f:0.5 <> None);
  checkb "second half" true (Staged.run_stage staged ~device ~f:1.0 <> None);
  checkb "population exhausted" true (Staged.exhausted staged);
  match Staged.current_estimate staged with
  | Some e ->
      checkb "estimate is still sampled" false
        e.Taqp_estimators.Count_estimator.is_exact
  | None -> Alcotest.fail "expected an estimate" 

(* ------------------------------------------------------------------ *)
(* Exact cluster variance (the Section 3.3 trade-off)                  *)

let clustered_selection () =
  let rng = Prng.create 61 in
  let file =
    Generator.relation ~spec:small_spec ~placement:`Clustered ~rng ()
  in
  let catalog = Taqp_storage.Catalog.of_list [ ("r", file) ] in
  let query = Taqp.parse "select[sel < 100](r)" in
  (catalog, query)

let run_variance_mode ~ve ~seed =
  let catalog, query = clustered_selection () in
  let config = { observe_config with Config.variance_estimator = ve } in
  Taqp.count_within ~config ~seed catalog ~quota:1.5 query

let test_cluster_variance_widens_ci () =
  (* Under clustered placement the exact cluster variance must report a
     (much) larger variance than the SRS approximation. *)
  let srs = ref 0.0 and cluster = ref 0.0 in
  for seed = 1 to 10 do
    srs := !srs +. (run_variance_mode ~ve:Config.Srs_approximation ~seed).Report.variance;
    cluster := !cluster +. (run_variance_mode ~ve:Config.Cluster_exact ~seed).Report.variance
  done;
  checkb "cluster variance larger" true (!cluster > 2.0 *. !srs)

let test_cluster_variance_costs_time () =
  (* The exact formula's bookkeeping is charged: same quota, at most the
     same number of sampled blocks. *)
  let srs = run_variance_mode ~ve:Config.Srs_approximation ~seed:3 in
  let cluster = run_variance_mode ~ve:Config.Cluster_exact ~seed:3 in
  checkb "charged for the sorting" true
    (cluster.Report.useful_blocks <= srs.Report.useful_blocks)

let test_cluster_variance_same_estimate_center () =
  let srs = run_variance_mode ~ve:Config.Srs_approximation ~seed:5 in
  let cluster = run_variance_mode ~ve:Config.Cluster_exact ~seed:5 in
  (* same seed, same draws until the extra charges diverge the staging;
     the estimator itself is unchanged, so both center near the truth *)
  checkb "both plausible" true
    (Float.abs (srs.Report.estimate -. 100.0) < 100.0
    && Float.abs (cluster.Report.estimate -. 100.0) < 100.0)

let test_cluster_variance_join_falls_back () =
  (* Unsupported shape: multi-relation terms silently keep the paper's
     approximation (documented fallback), and the run still works. *)
  let wl = Paper_setup.join ~spec:small_spec ~target_output:2000 ~seed:5 () in
  let config = { observe_config with Config.variance_estimator = Config.Cluster_exact } in
  let r = Taqp.count_within ~config ~seed:1 wl.catalog ~quota:2.0 wl.query in
  checkb "ran" true (r.Report.stages_completed >= 1)

let multiway_suites =
  [
    ( "multi-way",
      [
        Alcotest.test_case "three-way join exact" `Quick test_three_way_join_exact;
        Alcotest.test_case "three-way join sampled" `Quick
          test_three_way_join_sampled;
        Alcotest.test_case "partial exhaustion not exact" `Quick
          test_partial_fulfillment_exhaustion_not_exact;
      ] );
  ]

let test_group_estimates () =
  let wl = Paper_setup.projection ~spec:small_spec ~groups:10 ~seed:5 () in
  (* exhaustive: per-group estimates equal the true group sizes (50) *)
  let r = Taqp.count_within ~config:observe_config ~seed:1 wl.catalog ~quota:1e7 wl.query in
  checki "all groups reported" 10 (List.length r.Report.groups);
  List.iter
    (fun (_, est) ->
      Alcotest.check (Alcotest.float 1e-6) "exact group size" 50.0 est)
    r.Report.groups;
  (* sampled: estimates sum to ~population, sorted descending *)
  let r = Taqp.count_within ~config:observe_config ~seed:1 wl.catalog ~quota:2.0 wl.query in
  let total = List.fold_left (fun acc (_, e) -> acc +. e) 0.0 r.Report.groups in
  checkb "sum near population" true (Float.abs (total -. 500.0) < 1.0);
  let rec sorted = function
    | (_, a) :: ((_, b) :: _ as rest) -> a >= b && sorted rest
    | _ -> true
  in
  checkb "sorted descending" true (sorted r.Report.groups);
  (* not a projection: empty *)
  let sel = small_selection in
  let r = Taqp.count_within ~config:observe_config ~seed:1 sel.catalog ~quota:2.0 sel.query in
  checkb "no groups for selection" true (r.Report.groups = [])

let test_wall_clock_mode () =
  (* Live use: a wall clock and a real (tiny) budget. The designer cost
     constants must be rescaled to the actual machine, as on any new
     deployment. *)
  let wl = small_selection in
  let clock = Taqp_storage.Clock.create_wall () in
  let device =
    Taqp_storage.Device.create
      ~params:(Taqp_storage.Cost_params.no_jitter Taqp_storage.Cost_params.fast)
      clock
  in
  let config =
    {
      Config.default with
      Config.stopping = Stopping.Hard_deadline;
      initial_cost_scale = 1e-4;
      trace = false;
    }
  in
  let t0 = Unix.gettimeofday () in
  let r =
    Taqp.count_within_device ~config ~device ~rng:(Prng.create 1) wl.catalog
      ~quota:0.5 wl.query
  in
  let real_elapsed = Unix.gettimeofday () -. t0 in
  checkb "returned promptly" true (real_elapsed < 2.0);
  checkb "produced an answer" true (r.Report.stages_completed >= 1);
  checkb "estimate sane" true (r.Report.estimate >= 0.0)

let test_soft_grace_allows_overrun_stage () =
  (* A finite grace lets a stage predicted to end within quota*(1+g)
     start; the overshoot is then reported, not aborted. *)
  let wl = small_selection in
  let config =
    { Config.default with Config.stopping = Stopping.Soft_deadline { grace = 0.5 } }
  in
  let r = Taqp.count_within ~config ~seed:11 wl.catalog ~quota:1.2 wl.query in
  checkb "never hard-aborted" true (r.Report.outcome <> Report.Aborted_mid_stage);
  checkb "bounded overrun" true (r.Report.elapsed <= 1.2 *. 1.6)

let test_empty_relation () =
  let schema = Taqp_workload.Generator.schema in
  let empty = Taqp_storage.Heap_file.create ~schema [] in
  let catalog = Taqp_storage.Catalog.of_list [ ("e", empty) ] in
  let q = Taqp.parse "select[sel < 5](e)" in
  let r = Taqp.count_within ~config:observe_config ~seed:1 catalog ~quota:2.0 q in
  Alcotest.check (Alcotest.float 1e-9) "empty relation counts zero" 0.0
    r.Report.estimate;
  checkb "population-exhausted outcome" true (r.Report.outcome = Report.Exact)

let test_empty_result_query () =
  (* A predicate nothing satisfies: estimate 0 with an honest interval. *)
  let wl = small_selection in
  let q = Taqp.parse "select[sel < 0](r)" in
  let r = Taqp.count_within ~config:observe_config ~seed:1 wl.catalog ~quota:2.0 q in
  Alcotest.check (Alcotest.float 1e-9) "zero estimate" 0.0 r.Report.estimate;
  checkb "nonzero variance (not exhaustive)" true (r.Report.variance > 0.0);
  let exhaustive = Taqp.count_within ~config:observe_config ~seed:1 wl.catalog ~quota:1e7 q in
  Alcotest.check (Alcotest.float 1e-9) "exact zero" 0.0 exhaustive.Report.estimate;
  checkb "exact flag" true exhaustive.Report.exact

let edge_suites =
  [
    ( "edge-cases",
      [
        Alcotest.test_case "empty relation" `Quick test_empty_relation;
        Alcotest.test_case "empty result" `Quick test_empty_result_query;
      ] );
  ]

let live_suites =
  [
    ( "live-modes",
      [
        Alcotest.test_case "wall clock" `Quick test_wall_clock_mode;
        Alcotest.test_case "soft grace" `Quick test_soft_grace_allows_overrun_stage;
      ] );
  ]

let group_suites =
  [
    ( "group-estimates",
      [ Alcotest.test_case "projection groups" `Quick test_group_estimates ] );
  ]

let variance_suites =
  [
    ( "cluster-variance",
      [
        Alcotest.test_case "widens CI under clustering" `Quick
          test_cluster_variance_widens_ci;
        Alcotest.test_case "costs time" `Quick test_cluster_variance_costs_time;
        Alcotest.test_case "estimate unchanged" `Quick
          test_cluster_variance_same_estimate_center;
        Alcotest.test_case "fallback on joins" `Quick
          test_cluster_variance_join_falls_back;
      ] );
  ]

(* ------------------------------------------------------------------ *)
(* Resumable executor: run == start + step*                            *)

module Executor = Taqp_core.Executor

let resumable_workloads =
  lazy
    [
      ("selection", small_selection, 1.5);
      ("join", Paper_setup.join ~spec:small_spec ~seed:6 (), 2.0);
      ( "intersection",
        Paper_setup.intersection ~spec:small_spec ~overlap:120 ~seed:7 (),
        2.0 );
    ]

let step_fingerprint (r : Report.t) =
  Fmt.str "%a|%.17g|%.17g|%.17g|%.17g|%d|%a" Report.pp r r.Report.estimate
    r.Report.variance r.Report.confidence.Taqp_stats.Confidence.half_width
    r.Report.elapsed
    (List.length r.Report.trace)
    Taqp_storage.Io_stats.pp r.Report.io

let executor_env ~physical () =
  let clock = Taqp_storage.Clock.create_virtual () in
  let device =
    Taqp_storage.Device.create
      ~params:(Taqp_storage.Cost_params.no_jitter Taqp_storage.Cost_params.default)
      clock
  in
  let config = { Config.default with Config.physical } in
  (device, config)

(* The one-shot run must be bit-identical to driving the handle one
   stage at a time — for every fixture and both physical paths. The
   executor's [run] is literally the start/step loop, so this is a
   regression guard on the handle plumbing (deadline arming, histogram
   snapshots, finalization) rather than on the numerics. *)
let test_run_equals_stepped () =
  List.iter
    (fun (name, (wl : Paper_setup.t), quota) ->
      List.iter
        (fun physical ->
          let run_once () =
            let device, config = executor_env ~physical () in
            Executor.run ~config ~device ~catalog:wl.Paper_setup.catalog
              ~rng:(Prng.create 3) ~quota wl.Paper_setup.query
          in
          let stepped () =
            let device, config = executor_env ~physical () in
            let h =
              Executor.start ~config ~device ~catalog:wl.Paper_setup.catalog
                ~rng:(Prng.create 3) ~quota wl.Paper_setup.query
            in
            let steps = ref 0 in
            let rec go () =
              match Executor.step h with
              | `Continue ->
                  incr steps;
                  checkb "unfinished while stepping" false (Executor.finished h);
                  go ()
              | `Done r -> r
            in
            let r = go () in
            checkb "finished" true (Executor.finished h);
            checkb "report accessor agrees" true (Executor.report h = Some r);
            (r, !steps)
          in
          let direct = run_once () in
          let r, steps = stepped () in
          Alcotest.(check string)
            (Fmt.str "%s/%s run == stepped" name
               (match physical with
               | Config.Sort_merge -> "sort"
               | Config.Hash -> "hash"))
            (step_fingerprint direct) (step_fingerprint r);
          checkb "took at least one step" true (steps >= 0))
        [ Config.Sort_merge; Config.Hash ])
    (Lazy.force resumable_workloads)

(* step after Done keeps returning the same report; finish before
   exhaustion finalizes as quota-exhausted exactly once. *)
let test_step_after_done_and_early_finish () =
  let wl = small_selection in
  let device, config = executor_env ~physical:Config.Sort_merge () in
  let h =
    Executor.start ~config ~device ~catalog:wl.Paper_setup.catalog
      ~rng:(Prng.create 3) ~quota:1.5 wl.Paper_setup.query
  in
  let rec drain () =
    match Executor.step h with `Continue -> drain () | `Done r -> r
  in
  let r = drain () in
  (match Executor.step h with
  | `Done r' -> checkb "step after done is stable" true (r == r')
  | `Continue -> Alcotest.fail "step after done must return the report");
  checkb "finish after done is stable" true (Executor.finish h == r);
  (* Early finish on a fresh handle. *)
  let device, config = executor_env ~physical:Config.Sort_merge () in
  let h2 =
    Executor.start ~config ~device ~catalog:wl.Paper_setup.catalog
      ~rng:(Prng.create 3) ~quota:1.5 wl.Paper_setup.query
  in
  (match Executor.step h2 with
  | `Continue -> ()
  | `Done _ -> Alcotest.fail "first stage should not finish this run");
  let r2 = Executor.finish h2 in
  checkb "early finish reports quota-exhausted" true
    (r2.Report.outcome = Report.Quota_exhausted);
  checkb "handle finished" true (Executor.finished h2);
  checkb "partial stages recorded" true (r2.Report.stages_completed >= 1)

(* Handle accessors expose the deadline bookkeeping the scheduler
   plans with. *)
let test_handle_accessors () =
  let wl = small_selection in
  let device, config = executor_env ~physical:Config.Sort_merge () in
  let h =
    Executor.start ~config ~device ~catalog:wl.Paper_setup.catalog
      ~rng:(Prng.create 3) ~quota:2.0 wl.Paper_setup.query
  in
  Alcotest.check (Alcotest.float 0.0) "quota" 2.0 (Executor.quota h);
  Alcotest.check (Alcotest.float 0.0) "started at 0" 0.0 (Executor.started_at h);
  Alcotest.check (Alcotest.float 0.0) "deadline = start + quota" 2.0
    (Executor.deadline_at h);
  checkb "remaining starts at quota" true (Executor.remaining h <= 2.0);
  checkb "min stage cost positive" true (Executor.min_stage_cost h > 0.0);
  (match Executor.step h with
  | `Continue ->
      checkb "remaining shrinks" true (Executor.remaining h < 2.0)
  | `Done _ -> Alcotest.fail "first stage should not finish");
  ignore (Executor.finish h)

let resumable_suites =
  [
    ( "resumable-executor",
      [
        Alcotest.test_case "run == start+step*" `Slow test_run_equals_stepped;
        Alcotest.test_case "step after done / early finish" `Quick
          test_step_after_done_and_early_finish;
        Alcotest.test_case "handle accessors" `Quick test_handle_accessors;
      ] );
  ]

let aggregate_suites =
  [
    ( "aggregates",
      [
        Alcotest.test_case "parse" `Quick test_aggregate_parse;
        Alcotest.test_case "sum exact" `Quick test_sum_exact_when_exhausted;
        Alcotest.test_case "sum concentrates" `Slow test_sum_estimates_concentrate;
        Alcotest.test_case "avg" `Quick test_avg_estimate;
        Alcotest.test_case "sum over union" `Quick test_sum_over_union;
        Alcotest.test_case "compile errors" `Quick test_aggregate_compile_errors;
      ] );
  ]

let () =
  Alcotest.run "core"
    (main_suites @ multiway_suites @ group_suites @ live_suites @ edge_suites
   @ variance_suites @ resumable_suites @ aggregate_suites)
