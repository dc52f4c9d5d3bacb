(* taqp_parallel: the 1-vs-N bit-identity contract of
   docs/PARALLELISM.md, plus the building blocks it rests on.

   The load-bearing suite is "identity": a full time-constrained run at
   domains ∈ {1,2,4} must produce the SAME report fingerprint, the SAME
   trace event stream, and the SAME budget-ledger reconciliation as the
   sequential engine — for the three standard fixtures × both physical
   paths × 4 seeds, with the parallel threshold forced to 1 so every
   region actually fans out. CI sweeps extra cells via TAQP_DOMAINS and
   TAQP_PHYSICAL. The qcheck suites pin the statistical side (the
   stratified shard merge stays unbiased with nominal CI coverage under
   shard-count and skew sweeps; Prng stream splits are deterministic and
   non-overlapping), and the vclock suite pins the deterministic
   max-merge semantics at stage barriers. *)

module Taqp = Taqp_core.Taqp
module Config = Taqp_core.Config
module Staged = Taqp_core.Staged
module Report = Taqp_core.Report
module Aggregate = Taqp_core.Aggregate
module Executor = Taqp_core.Executor
module Clock = Taqp_storage.Clock
module Device = Taqp_storage.Device
module Cost_params = Taqp_storage.Cost_params
module Io_stats = Taqp_storage.Io_stats
module Paper_setup = Taqp_workload.Paper_setup
module Prng = Taqp_rng.Prng
module Sample = Taqp_rng.Sample
module Sink = Taqp_obs.Sink
module Tracer = Taqp_obs.Tracer
module Event = Taqp_obs.Event
module Ledger = Taqp_audit.Ledger
module Pool = Taqp_parallel.Pool
module Shard = Taqp_parallel.Shard
module Vclock = Taqp_parallel.Vclock
module Merge = Taqp_parallel.Merge

let checkb = Fixtures.checkb
let checki = Fixtures.checki
let checkf = Fixtures.checkf
let checks = Alcotest.check Alcotest.string

let seeds = [ 3; 5; 11; 23 ]

let physicals =
  match Sys.getenv_opt "TAQP_PHYSICAL" with
  | Some "sort_merge" -> [ Config.Sort_merge ]
  | Some "hash" -> [ Config.Hash ]
  | Some other -> failwith ("TAQP_PHYSICAL: unknown path " ^ other)
  | None -> [ Config.Sort_merge; Config.Hash ]

let physical_name = function
  | Config.Sort_merge -> "sort_merge"
  | Config.Hash -> "hash"

let fingerprint (r : Report.t) =
  Fmt.str "%.17g|%.17g|%.17g|%.17g|%d|%b|%a" r.Report.estimate
    r.Report.variance r.Report.confidence.Taqp_stats.Confidence.half_width
    r.Report.elapsed r.Report.stages_completed r.Report.degraded Io_stats.pp
    r.Report.io

(* ------------------------------------------------------------------ *)
(* The full observable surface of one run: report fingerprint, trace
   stream, ledger reconciliation. Jittered device (the default params),
   so the test also covers the jitter-draw ordering. *)

let full_run ~domains ~physical ~seed ~quota (wl : Paper_setup.t) =
  let config = { Fixtures.observe_config with Config.physical; domains } in
  let sink, events = Sink.memory () in
  let rng = Prng.create seed in
  let clock = Clock.create_virtual () in
  let tracer = Tracer.make ~now:(fun () -> Clock.now clock) ~sink in
  let device =
    Device.create ~params:Cost_params.default ~jitter_rng:(Prng.split rng)
      ~tracer clock
  in
  let ledger = Ledger.create () in
  Device.set_spend_listener device (Some (Ledger.on_spend ledger));
  let report =
    Executor.run ~config ~aggregate:Aggregate.Count ~device
      ~catalog:wl.Paper_setup.catalog ~rng ~quota wl.Paper_setup.query
  in
  Tracer.close tracer;
  (fingerprint report, events (), Ledger.reconcile ~quota ledger)

let check_same_run ~ctx (fp1, tr1, rec1) (fpn, trn, recn) =
  checks (ctx ^ ": report fingerprint") fp1 fpn;
  checki (ctx ^ ": trace length") (List.length tr1) (List.length trn);
  checkb (ctx ^ ": trace stream") true
    (List.for_all2 (fun (a : Event.t) b -> a = b) tr1 trn);
  checkf (ctx ^ ": ledger charged") rec1.Ledger.r_charged recn.Ledger.r_charged;
  checkf
    (ctx ^ ": ledger unattributed")
    rec1.Ledger.r_unattributed recn.Ledger.r_unattributed;
  checkb (ctx ^ ": ledger exact") rec1.Ledger.r_exact recn.Ledger.r_exact;
  List.iter2
    (fun (c1, v1) (cn, vn) ->
      checks
        (ctx ^ ": ledger category order")
        (Ledger.category_name c1) (Ledger.category_name cn);
      checkf (ctx ^ ": ledger " ^ Ledger.category_name c1) v1 vn)
    rec1.Ledger.r_by_category recn.Ledger.r_by_category

(* The three standard fixtures, sized so several stages run and the
   binary paths accumulate real pairing/probe work. *)
let matrix_fixtures seed =
  [
    ("join", Paper_setup.join ~spec:(Fixtures.spec ()) ~seed (), 2.0);
    ( "intersection",
      Paper_setup.intersection ~spec:(Fixtures.spec ()) ~overlap:120 ~seed (),
      2.0 );
    ( "three_way_join",
      Paper_setup.three_way_join
        ~spec:(Fixtures.spec ~n_tuples:200 ())
        ~group_size:3 ~seed (),
      2.5 );
  ]

let test_identity_matrix () =
  (* Force every parallel region on, whatever the delta size. *)
  Staged.set_parallel_threshold 1;
  Fun.protect
    ~finally:(fun () -> Staged.set_parallel_threshold 2048)
    (fun () ->
      List.iter
        (fun seed ->
          List.iter
            (fun physical ->
              List.iter
                (fun (fname, wl, quota) ->
                  let base = full_run ~domains:1 ~physical ~seed ~quota wl in
                  List.iter
                    (fun domains ->
                      if domains > 1 then
                        let ctx =
                          Fmt.str "%s/%s/seed=%d/domains=%d" fname
                            (physical_name physical) seed domains
                        in
                        check_same_run ~ctx base
                          (full_run ~domains ~physical ~seed ~quota wl))
                    Fixtures.domains_matrix)
                (matrix_fixtures seed))
            physicals)
        seeds)

let test_identity_sharded_skew () =
  (* The shared sharded fixture, maximally skewed: qualifying density
     concentrated in the last shard. *)
  Staged.set_parallel_threshold 1;
  Fun.protect
    ~finally:(fun () -> Staged.set_parallel_threshold 2048)
    (fun () ->
      List.iter
        (fun skew ->
          let wl = Fixtures.sharded ~shards:4 ~skew ~seed:9 () in
          let base =
            full_run ~domains:1 ~physical:Config.Sort_merge ~seed:9 ~quota:1.5
              wl
          in
          List.iter
            (fun domains ->
              if domains > 1 then
                check_same_run
                  ~ctx:(Fmt.str "sharded/skew=%g/domains=%d" skew domains)
                  base
                  (full_run ~domains ~physical:Config.Sort_merge ~seed:9
                     ~quota:1.5 wl))
            Fixtures.domains_matrix)
        [ 1.0; 3.0 ])

let test_cli_env_default () =
  (* Config.default.domains mirrors TAQP_DOMAINS (parsed in-process at
     startup); whatever it is, it is >= 1 and validates. *)
  checkb "default domains >= 1" true (Config.default.Config.domains >= 1);
  Config.validate Config.default;
  (match Sys.getenv_opt "TAQP_DOMAINS" with
  | Some s when int_of_string_opt (String.trim s) <> None ->
      let d = int_of_string (String.trim s) in
      if d >= 1 then checki "TAQP_DOMAINS honored" d Config.default.Config.domains
  | _ -> ());
  Alcotest.check_raises "domains = 0 rejected"
    (Invalid_argument "Config: domains < 1") (fun () ->
      Config.validate { Config.default with Config.domains = 0 })

(* ------------------------------------------------------------------ *)
(* Shard partitioning *)

let test_shard_ranges () =
  let rs = Shard.ranges ~n:10 ~k:4 in
  checki "4 ranges" 4 (Array.length rs);
  checki "covers 0" 0 rs.(0).Shard.lo;
  checki "covers n" 10 rs.(3).Shard.hi;
  Array.iteri
    (fun i r ->
      if i > 0 then checki "contiguous" rs.(i - 1).Shard.hi r.Shard.lo)
    rs;
  let sizes = Array.map Shard.size rs in
  checki "balanced max" 3 (Array.fold_left Int.max 0 sizes);
  checki "balanced min" 2 (Array.fold_left Int.min 10 sizes);
  checki "k > n clamps" 3 (Array.length (Shard.ranges ~n:3 ~k:8));
  checki "n = 0 empty" 0 (Array.length (Shard.ranges ~n:0 ~k:4));
  (* owner/partition agree with the layout *)
  let rs = Shard.ranges ~n:100 ~k:7 in
  for u = 0 to 99 do
    let j = Shard.owner ~ranges:rs u in
    checkb "owner in range" true (u >= rs.(j).Shard.lo && u < rs.(j).Shard.hi)
  done;
  let parts = Shard.partition ~ranges:rs [ 99; 0; 50; 1 ] in
  checki "partition preserves order" 0 (List.nth parts.(0) 0);
  checki "partition preserves order'" 1 (List.nth parts.(0) 1)

let test_shard_weighted () =
  (* Heavy tail: the greedy sweep closes early ranges fast, never emits
     an empty range, and always covers [0, n). *)
  let weights = Array.init 20 (fun i -> if i < 2 then 100.0 else 1.0) in
  let rs = Shard.weighted ~weights ~k:4 in
  checkb "at most k" true (Array.length rs <= 4);
  checki "covers 0" 0 rs.(0).Shard.lo;
  checki "covers n" 20 rs.(Array.length rs - 1).Shard.hi;
  Array.iter (fun r -> checkb "non-empty" true (Shard.size r > 0)) rs;
  Array.iteri
    (fun i r ->
      if i > 0 then checki "contiguous" rs.(i - 1).Shard.hi r.Shard.lo)
    rs

(* ------------------------------------------------------------------ *)
(* Pool *)

let test_pool_order_and_errors () =
  let pool = Pool.create ~domains:3 in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let tasks = Array.init 100 (fun i () -> i * i) in
      let out = Pool.run pool tasks in
      Array.iteri (fun i v -> checki "task order" (i * i) v) out;
      (* lowest-index exception wins, regardless of which domain ran
         what *)
      let boom i = Failure (Fmt.str "boom %d" i) in
      (try
         ignore
           (Pool.run pool
              (Array.init 64 (fun i () ->
                   if i = 7 || i = 41 then raise (boom i) else i)));
         Alcotest.fail "expected an exception"
       with Failure m -> checks "lowest index re-raised" "boom 7" m);
      (* the pool survives a failed batch *)
      checki "pool still works" 2016
        (Array.fold_left ( + ) 0 (Pool.run pool (Array.init 64 (fun i () -> i))));
      checki "empty batch" 0 (Array.length (Pool.run pool [||])))

let test_pool_single_domain () =
  let pool = Pool.create ~domains:1 in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      checki "size" 1 (Pool.size pool);
      let out = Pool.run pool (Array.init 10 (fun i () -> i + 1)) in
      checki "sequential degenerate" 10 out.(9))

let test_pool_global_cache () =
  let p1 = Pool.global ~domains:2 in
  let p2 = Pool.global ~domains:2 in
  checkb "same pool cached" true (p1 == p2);
  let p3 = Pool.global ~domains:3 in
  checkb "resized pool is fresh" true (p3 != p2);
  checki "resized size" 3 (Pool.size p3)

(* ------------------------------------------------------------------ *)
(* Vclock: deterministic max-merge at stage barriers *)

let test_vclock_merge_max () =
  let g = Vclock.fork ~now:10.0 ~shards:3 () in
  Vclock.charge (Vclock.worker g 0) 1.0;
  Vclock.charge (Vclock.worker g 1) 5.0;
  Vclock.charge (Vclock.worker g 2) 2.5;
  checkf "merge is max" 15.0 (Vclock.merge g);
  (* interleaving-independent: the same per-worker totals charged in a
     different order (and different chunkings) merge identically *)
  let h = Vclock.fork ~now:10.0 ~shards:3 () in
  Vclock.charge (Vclock.worker h 2) 2.5;
  Vclock.charge (Vclock.worker h 1) 2.0;
  Vclock.charge (Vclock.worker h 0) 0.5;
  Vclock.charge (Vclock.worker h 1) 3.0;
  Vclock.charge (Vclock.worker h 0) 0.5;
  checkf "merge order-independent" (Vclock.merge g) (Vclock.merge h);
  (* no work: merge = fork origin *)
  let idle = Vclock.fork ~now:7.0 ~shards:2 () in
  checkf "idle merge" 7.0 (Vclock.merge idle)

let test_vclock_deadline_abort () =
  let g = Vclock.fork ~now:0.0 ~deadline:(10.0, `Abort) ~shards:2 () in
  Vclock.charge (Vclock.worker g 0) 9.0;
  (* the worker that crosses stops exactly at the deadline *)
  (try
     Vclock.charge (Vclock.worker g 0) 5.0;
     Alcotest.fail "expected Deadline_exceeded"
   with Vclock.Deadline_exceeded { shard; at } ->
     checki "crossing shard" 0 shard;
     checkf "stops exactly at deadline" 10.0 at);
  checkf "clock pinned at deadline" 10.0 (Vclock.now (Vclock.worker g 0));
  (* the other worker continues; merge still reflects the max *)
  Vclock.charge (Vclock.worker g 1) 3.0;
  checkf "merge after abort" 10.0 (Vclock.merge g);
  (* armed deadline preserved verbatim across the merge *)
  (match Vclock.armed g with
  | Some (at, `Abort) -> checkf "deadline preserved" 10.0 at
  | _ -> Alcotest.fail "deadline lost");
  match Vclock.first_crossing g with
  | Some (shard, at) ->
      checki "first crossing is lowest shard" 0 shard;
      checkf "crossing instant" 10.0 at
  | None -> Alcotest.fail "crossing lost"

let test_vclock_first_crossing_tiebreak () =
  (* Two workers cross in different wall orders across runs; the
     reported first crossing is the lowest shard index — the
     documented deterministic tie-break. *)
  let run order =
    let g = Vclock.fork ~now:0.0 ~deadline:(1.0, `Observe) ~shards:3 () in
    List.iter (fun i -> Vclock.charge (Vclock.worker g i) 2.0) order;
    (Vclock.first_crossing g, Vclock.crossings g)
  in
  let f1, c1 = run [ 2; 1 ] in
  let f2, c2 = run [ 1; 2 ] in
  (match (f1, f2) with
  | Some (s1, _), Some (s2, _) ->
      checki "tie-break lowest shard" 1 s1;
      checki "tie-break order-independent" s1 s2
  | _ -> Alcotest.fail "missing crossing");
  checki "crossings sorted by shard" 1 (fst (List.nth c1 0));
  checki "crossings sorted by shard'" 2 (fst (List.nth c1 1));
  checki "same crossing set" (List.length c1) (List.length c2)

let test_vclock_observe_mode () =
  let g = Vclock.fork ~now:0.0 ~deadline:(5.0, `Observe) ~shards:1 () in
  let w = Vclock.worker g 0 in
  Vclock.charge w 7.0;
  (* observe: crossing recorded, clock keeps advancing *)
  checkf "observe keeps advancing" 7.0 (Vclock.now w);
  Vclock.charge w 1.0;
  checkf "still advancing" 8.0 (Vclock.now w);
  checki "one crossing" 1 (List.length (Vclock.crossings g));
  (* trace-instant ordering stability: merged instants of successive
     barriers are monotone *)
  let m1 = Vclock.merge g in
  Vclock.charge w 0.5;
  let m2 = Vclock.merge g in
  checkb "barrier instants monotone" true (m2 >= m1)

(* ------------------------------------------------------------------ *)
(* Stratified shard-merge estimator: qcheck properties *)

(* A synthetic block population with a known total; per-block counts
   drawn i.i.d. uniform so the stratified math is exercised without a
   full engine run. *)
let population rng ~blocks =
  Array.init blocks (fun _ -> float_of_int (Prng.int rng 20))

let shard_sample rng ~counts ~(range : Shard.range) ~fraction =
  let nj = Shard.size range in
  let draw = Int.max 2 (int_of_float (fraction *. float_of_int nj)) in
  let draw = Int.min draw nj in
  let units = Sample.without_replacement rng ~k:draw ~n:nj in
  let obs =
    Array.of_list (List.map (fun u -> counts.(range.Shard.lo + u)) units)
  in
  Merge.of_counts ~population:nj obs

let combined_of rng ~counts ~ranges ~fraction =
  Merge.combine
    (Array.to_list
       (Array.map (fun r -> shard_sample rng ~counts ~range:r ~fraction) ranges))

let prop_merge_unbiased =
  QCheck.Test.make ~name:"stratified shard merge is unbiased" ~count:30
    QCheck.(
      triple (int_range 1 8) (int_range 0 1000000) (bool))
    (fun (shards, seed, skewed) ->
      let rng = Prng.create (seed + 17) in
      let counts = population rng ~blocks:240 in
      let truth = Array.fold_left ( +. ) 0.0 counts in
      let ranges =
        if skewed then
          (* skewed shard sizes: geometric weights *)
          Shard.weighted
            ~weights:(Array.init 240 (fun i -> 1.0 +. (float_of_int i /. 40.0)))
            ~k:shards
        else Shard.ranges ~n:240 ~k:shards
      in
      (* average many replicated estimates: the mean must approach the
         truth (CLT: tolerance ~4 sigma of the mean) *)
      let reps = 300 in
      let sum = ref 0.0 and var_sum = ref 0.0 in
      for _ = 1 to reps do
        let c = combined_of rng ~counts ~ranges ~fraction:0.2 in
        sum := !sum +. c.Merge.total_hat;
        var_sum := !var_sum +. c.Merge.var_hat
      done;
      let mean = !sum /. float_of_int reps in
      let sigma_mean =
        sqrt (Float.max 1e-9 (!var_sum /. float_of_int reps))
        /. sqrt (float_of_int reps)
      in
      Float.abs (mean -. truth) <= Float.max (4.0 *. sigma_mean) (0.02 *. truth))

let prop_merge_ci_coverage =
  QCheck.Test.make ~name:"stratified merge CI has ~nominal coverage" ~count:12
    QCheck.(pair (int_range 2 6) (int_range 0 1000000))
    (fun (shards, seed) ->
      let rng = Prng.create (seed + 23) in
      let counts = population rng ~blocks:300 in
      let truth = Array.fold_left ( +. ) 0.0 counts in
      let ranges = Shard.ranges ~n:300 ~k:shards in
      let reps = 200 in
      let hits = ref 0 in
      for _ = 1 to reps do
        let c = combined_of rng ~counts ~ranges ~fraction:0.25 in
        let ci = Merge.interval c ~level:0.95 in
        if Taqp_stats.Confidence.contains ci truth then incr hits
      done;
      (* 95% nominal; allow sampling noise and mild small-sample
         anti-conservatism: require at least 85% *)
      float_of_int !hits /. float_of_int reps >= 0.85)

let prop_merge_matches_unstratified =
  QCheck.Test.make
    ~name:"one shard at full draw reproduces the exact total" ~count:50
    QCheck.(int_range 0 1000000)
    (fun seed ->
      let rng = Prng.create seed in
      let counts = population rng ~blocks:64 in
      let truth = Array.fold_left ( +. ) 0.0 counts in
      let m = Merge.of_counts ~population:64 counts in
      let c = Merge.combine [ m ] in
      c.Merge.total_hat = truth && c.Merge.var_hat = 0.0)

(* ------------------------------------------------------------------ *)
(* Prng stream splitting: deterministic and non-overlapping *)

let prop_split_deterministic =
  QCheck.Test.make ~name:"Prng.split streams are deterministic" ~count:50
    QCheck.(pair (int_range 0 1000000) (int_range 1 8))
    (fun (seed, shards) ->
      let streams_of () =
        let root = Prng.create seed in
        List.init shards (fun _ -> Prng.split root)
      in
      let a = streams_of () and b = streams_of () in
      List.for_all2
        (fun sa sb ->
          List.init 64 (fun _ -> Prng.bits64 sa)
          = List.init 64 (fun _ -> Prng.bits64 sb))
        a b)

let prop_split_non_overlapping =
  QCheck.Test.make
    ~name:"per-shard split streams do not overlap" ~count:20
    QCheck.(pair (int_range 0 1000000) (int_range 2 8))
    (fun (seed, shards) ->
      (* 64-bit draws from distinct xoshiro streams collide with
         probability ~ (k*h)^2 / 2^64 — any repeat across shard streams
         would mean the splits share stream positions. *)
      let root = Prng.create seed in
      let streams = List.init shards (fun _ -> Prng.split root) in
      let horizon = 512 in
      let seen = Hashtbl.create (shards * horizon) in
      List.for_all
        (fun s ->
          let ok = ref true in
          for _ = 1 to horizon do
            let v = Prng.bits64 s in
            if Hashtbl.mem seen v then ok := false
            else Hashtbl.add seen v ()
          done;
          !ok)
        streams)

let prop_split_draws_disjoint_blocks =
  QCheck.Test.make
    ~name:"split streams drive disjoint without-replacement draws"
    ~count:30
    QCheck.(int_range 0 1000000)
    (fun seed ->
      (* The engine's per-shard usage: each shard samples its own block
         range with its own split stream; the global draw sets stay
         disjoint because the ranges are. *)
      let root = Prng.create seed in
      let ranges = Shard.ranges ~n:200 ~k:4 in
      let all = Hashtbl.create 64 in
      Array.for_all
        (fun (r : Shard.range) ->
          let s = Prng.split root in
          let units = Sample.without_replacement s ~k:10 ~n:(Shard.size r) in
          List.for_all
            (fun u ->
              let g = r.Shard.lo + u in
              if Hashtbl.mem all g then false
              else begin
                Hashtbl.add all g ();
                true
              end)
            units)
        ranges)

(* ------------------------------------------------------------------ *)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "parallel"
    [
      ( "identity",
        [
          Alcotest.test_case "1-vs-N bit-identity matrix" `Slow
            test_identity_matrix;
          Alcotest.test_case "sharded fixture, skewed density" `Quick
            test_identity_sharded_skew;
          Alcotest.test_case "TAQP_DOMAINS config default" `Quick
            test_cli_env_default;
        ] );
      ( "shard",
        [
          Alcotest.test_case "ranges partition [0,n)" `Quick test_shard_ranges;
          Alcotest.test_case "weighted ranges absorb skew" `Quick
            test_shard_weighted;
        ] );
      ( "pool",
        [
          Alcotest.test_case "task order and lowest-index raise" `Quick
            test_pool_order_and_errors;
          Alcotest.test_case "domains=1 degenerates" `Quick
            test_pool_single_domain;
          Alcotest.test_case "global pool cached by size" `Quick
            test_pool_global_cache;
        ] );
      ( "vclock",
        [
          Alcotest.test_case "barrier merge is deterministic max" `Quick
            test_vclock_merge_max;
          Alcotest.test_case "abort stops exactly at the deadline" `Quick
            test_vclock_deadline_abort;
          Alcotest.test_case "first-crossing tie-break is by shard" `Quick
            test_vclock_first_crossing_tiebreak;
          Alcotest.test_case "observe mode records and continues" `Quick
            test_vclock_observe_mode;
        ] );
      ( "estimator",
        [
          qc prop_merge_unbiased;
          qc prop_merge_ci_coverage;
          qc prop_merge_matches_unstratified;
        ] );
      ( "prng",
        [
          qc prop_split_deterministic;
          qc prop_split_non_overlapping;
          qc prop_split_draws_disjoint_blocks;
        ] );
    ]
