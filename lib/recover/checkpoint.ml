(* Journal record payloads for one query's recovery journal: a [meta]
   record written once at journal creation (everything needed to
   recompile the query and rebuild its device) and a [checkpoint]
   record written at each stage boundary (the executor snapshot plus
   the device's mutable state and the clock reading the checkpoint
   completed at).

   Two things deliberately do NOT round-trip:
   - [Config.selectivity_oracle] is a closure; it is dropped on encode
     and must be re-injected by the resuming caller
     ({!Query_journal.resume_last}'s [selectivity_oracle]);
   - the catalog: journaling base data would dwarf the journal, and
     recovery is only meaningful against the same store anyway, so the
     caller supplies it. *)

module C = Codec
module Config = Taqp_core.Config
module Aggregate = Taqp_core.Aggregate
module Executor = Taqp_core.Executor
module Staged = Taqp_core.Staged
module Report = Taqp_core.Report
module Strategy = Taqp_timecontrol.Strategy
module Stopping = Taqp_timecontrol.Stopping
module Plan = Taqp_sampling.Plan
module Stage_set = Taqp_sampling.Stage_set
module Selectivity = Taqp_estimators.Selectivity
module Count_estimator = Taqp_estimators.Count_estimator
module Cost_model = Taqp_timecost.Cost_model
module Least_squares = Taqp_stats.Least_squares
module Summary = Taqp_stats.Summary
module Cost_params = Taqp_storage.Cost_params
module Device = Taqp_storage.Device
module Fault_plan = Taqp_fault.Fault_plan
module Injector = Taqp_fault.Injector

type meta = {
  m_query : Taqp_relational.Ra.t;
  m_aggregate : Aggregate.t;
  m_config : Config.t;
  m_quota : float;
  m_seed : int;  (** the run's sampling seed (informational: every
                     stream position is restored from the snapshot) *)
  m_params : Cost_params.t;
  m_fault_plan : Fault_plan.t;
  m_fault_seed : int;
}

type checkpoint = {
  c_at : float;  (** clock reading once the checkpoint was charged *)
  c_exec : Executor.snapshot;
  c_device : Device.dump;
}

(* ------------------------------------------------------------------ *)
(* Relational / core scalars                                            *)

let query b (q : Taqp_relational.Ra.t) =
  C.string b (Taqp_relational.Ra.to_string q)

let read_query d =
  let s = C.read_string d in
  match Taqp_relational.Parser.expression s with
  | q -> q
  | exception e ->
      raise
        (C.Decode_error
           (Printf.sprintf "journaled query %S does not parse back: %s" s
              (Printexc.to_string e)))

let aggregate b (a : Aggregate.t) =
  match a with
  | Count -> C.u8 b 0
  | Sum attr ->
      C.u8 b 1;
      C.string b attr
  | Avg attr ->
      C.u8 b 2;
      C.string b attr

let read_aggregate d : Aggregate.t =
  match C.read_u8 d with
  | 0 -> Count
  | 1 -> Sum (C.read_string d)
  | 2 -> Avg (C.read_string d)
  | n -> raise (C.Decode_error (Printf.sprintf "bad aggregate tag %d" n))

let moments b (m : Aggregate.moments) =
  C.float b m.sum;
  C.float b m.sum_sq;
  C.float b m.hits

let read_moments d : Aggregate.moments =
  let sum = C.read_float d in
  let sum_sq = C.read_float d in
  let hits = C.read_float d in
  { sum; sum_sq; hits }

let strategy b (s : Strategy.t) =
  match s with
  | One_at_a_time { d_beta; zero_beta } ->
      C.u8 b 0;
      C.float b d_beta;
      C.float b zero_beta
  | Single_interval { d_alpha; zero_beta } ->
      C.u8 b 1;
      C.float b d_alpha;
      C.float b zero_beta
  | Heuristic { split } ->
      C.u8 b 2;
      C.float b split

let read_strategy d : Strategy.t =
  match C.read_u8 d with
  | 0 ->
      let d_beta = C.read_float d in
      let zero_beta = C.read_float d in
      One_at_a_time { d_beta; zero_beta }
  | 1 ->
      let d_alpha = C.read_float d in
      let zero_beta = C.read_float d in
      Single_interval { d_alpha; zero_beta }
  | 2 -> Heuristic { split = C.read_float d }
  | n -> raise (C.Decode_error (Printf.sprintf "bad strategy tag %d" n))

let rec stopping b (s : Stopping.t) =
  match s with
  | Hard_deadline -> C.u8 b 0
  | Soft_deadline { grace } ->
      C.u8 b 1;
      C.float b grace
  | Error_bound { relative; level } ->
      C.u8 b 2;
      C.float b relative;
      C.float b level
  | Stagnation { epsilon; window } ->
      C.u8 b 3;
      C.float b epsilon;
      C.int b window
  | Max_stages n ->
      C.u8 b 4;
      C.int b n
  | All ss ->
      C.u8 b 5;
      C.list stopping b ss

let rec read_stopping d : Stopping.t =
  match C.read_u8 d with
  | 0 -> Hard_deadline
  | 1 -> Soft_deadline { grace = C.read_float d }
  | 2 ->
      let relative = C.read_float d in
      let level = C.read_float d in
      Error_bound { relative; level }
  | 3 ->
      let epsilon = C.read_float d in
      let window = C.read_int d in
      Stagnation { epsilon; window }
  | 4 -> Max_stages (C.read_int d)
  | 5 -> All (C.read_list read_stopping d)
  | n -> raise (C.Decode_error (Printf.sprintf "bad stopping tag %d" n))

let plan b (p : Plan.t) =
  C.u8 b (match p.unit_kind with Cluster -> 0 | Simple_random -> 1);
  C.u8 b (match p.fulfillment with Full -> 0 | Partial -> 1)

let read_plan d : Plan.t =
  let unit_kind : Plan.unit_kind =
    match C.read_u8 d with
    | 0 -> Cluster
    | 1 -> Simple_random
    | n -> raise (C.Decode_error (Printf.sprintf "bad unit_kind tag %d" n))
  in
  let fulfillment : Plan.fulfillment =
    match C.read_u8 d with
    | 0 -> Full
    | 1 -> Partial
    | n -> raise (C.Decode_error (Printf.sprintf "bad fulfillment tag %d" n))
  in
  { unit_kind; fulfillment }

let config b (c : Config.t) =
  strategy b c.strategy;
  stopping b c.stopping;
  plan b c.plan;
  C.float b c.confidence_level;
  C.float b c.bisect_eps_frac;
  C.bool b c.adaptive_cost;
  C.float b c.initial_cost_scale;
  C.option C.float b c.initial_selectivities.select;
  C.option C.float b c.initial_selectivities.join;
  C.option C.float b c.initial_selectivities.intersect;
  C.option C.float b c.initial_selectivities.project;
  (* selectivity_oracle: a closure, dropped — see the module comment *)
  C.u8 b
    (match c.projection_estimator with
    | Goodman_unbiased -> 0
    | Goodman_first_order -> 1
    | Scale_up -> 2
    | Chao -> 3);
  C.u8 b
    (match c.variance_estimator with Srs_approximation -> 0 | Cluster_exact -> 1);
  C.u8 b (match c.physical with Sort_merge -> 0 | Hash -> 1);
  C.int b c.max_bisect_iterations;
  C.bool b c.trace;
  C.int b c.domains

let read_config d : Config.t =
  let strategy = read_strategy d in
  let stopping = read_stopping d in
  let plan = read_plan d in
  let confidence_level = C.read_float d in
  let bisect_eps_frac = C.read_float d in
  let adaptive_cost = C.read_bool d in
  let initial_cost_scale = C.read_float d in
  let select = C.read_option C.read_float d in
  let join = C.read_option C.read_float d in
  let intersect = C.read_option C.read_float d in
  let project = C.read_option C.read_float d in
  let projection_estimator : Config.projection_estimator =
    match C.read_u8 d with
    | 0 -> Goodman_unbiased
    | 1 -> Goodman_first_order
    | 2 -> Scale_up
    | 3 -> Chao
    | n ->
        raise (C.Decode_error (Printf.sprintf "bad projection_estimator %d" n))
  in
  let variance_estimator : Config.variance_estimator =
    match C.read_u8 d with
    | 0 -> Srs_approximation
    | 1 -> Cluster_exact
    | n -> raise (C.Decode_error (Printf.sprintf "bad variance_estimator %d" n))
  in
  let physical : Config.physical_operator =
    match C.read_u8 d with
    | 0 -> Sort_merge
    | 1 -> Hash
    | n -> raise (C.Decode_error (Printf.sprintf "bad physical tag %d" n))
  in
  let max_bisect_iterations = C.read_int d in
  let trace = C.read_bool d in
  let domains = C.read_int d in
  {
    strategy;
    stopping;
    plan;
    confidence_level;
    bisect_eps_frac;
    adaptive_cost;
    initial_cost_scale;
    initial_selectivities = { select; join; intersect; project };
    selectivity_oracle = None;
    projection_estimator;
    variance_estimator;
    physical;
    max_bisect_iterations;
    trace;
    domains;
  }

let cost_params b (p : Cost_params.t) =
  C.float b p.block_read;
  C.float b p.tuple_check_base;
  C.float b p.per_comparison;
  C.float b p.page_write;
  C.float b p.temp_tuple_write;
  C.float b p.sort_per_nlogn;
  C.float b p.sort_per_tuple;
  C.float b p.merge_per_tuple;
  C.float b p.merge_setup;
  C.float b p.hash_build_per_tuple;
  C.float b p.hash_probe_per_tuple;
  C.float b p.output_per_tuple;
  C.float b p.stage_overhead;
  C.float b p.estimator_per_tuple;
  C.float b p.jitter_sigma;
  C.float b p.clock_tick;
  C.float b p.journal_byte_write;
  C.float b p.cache_probe

let read_cost_params d : Cost_params.t =
  let block_read = C.read_float d in
  let tuple_check_base = C.read_float d in
  let per_comparison = C.read_float d in
  let page_write = C.read_float d in
  let temp_tuple_write = C.read_float d in
  let sort_per_nlogn = C.read_float d in
  let sort_per_tuple = C.read_float d in
  let merge_per_tuple = C.read_float d in
  let merge_setup = C.read_float d in
  let hash_build_per_tuple = C.read_float d in
  let hash_probe_per_tuple = C.read_float d in
  let output_per_tuple = C.read_float d in
  let stage_overhead = C.read_float d in
  let estimator_per_tuple = C.read_float d in
  let jitter_sigma = C.read_float d in
  let clock_tick = C.read_float d in
  let journal_byte_write = C.read_float d in
  let cache_probe = C.read_float d in
  {
    block_read;
    tuple_check_base;
    per_comparison;
    page_write;
    temp_tuple_write;
    sort_per_nlogn;
    sort_per_tuple;
    merge_per_tuple;
    merge_setup;
    hash_build_per_tuple;
    hash_probe_per_tuple;
    output_per_tuple;
    stage_overhead;
    estimator_per_tuple;
    jitter_sigma;
    clock_tick;
    journal_byte_write;
    cache_probe;
  }

(* ------------------------------------------------------------------ *)
(* Faults                                                               *)

let fault_kind b (k : Fault_plan.kind) =
  match k with
  | Read_error -> C.u8 b 0
  | Latency_spike f ->
      C.u8 b 1;
      C.float b f
  | Stall dur ->
      C.u8 b 2;
      C.float b dur
  | Torn_block -> C.u8 b 3
  | Crash -> C.u8 b 4

let read_fault_kind d : Fault_plan.kind =
  match C.read_u8 d with
  | 0 -> Read_error
  | 1 -> Latency_spike (C.read_float d)
  | 2 -> Stall (C.read_float d)
  | 3 -> Torn_block
  | 4 -> Crash
  | n -> raise (C.Decode_error (Printf.sprintf "bad fault kind tag %d" n))

let fault_rule b (r : Fault_plan.rule) =
  C.option C.string b r.op;
  fault_kind b r.kind;
  C.float b r.probability;
  C.float b r.after;
  C.float b r.until;
  C.int b r.max_faults

let read_fault_rule d : Fault_plan.rule =
  let op = C.read_option C.read_string d in
  let kind = read_fault_kind d in
  let probability = C.read_float d in
  let after = C.read_float d in
  let until = C.read_float d in
  let max_faults = C.read_int d in
  { op; kind; probability; after; until; max_faults }

let fault_plan b (p : Fault_plan.t) =
  C.list fault_rule b p.rules;
  C.int b p.max_retries;
  C.float b p.backoff;
  C.float b p.backoff_multiplier

let read_fault_plan d : Fault_plan.t =
  let rules = C.read_list read_fault_rule d in
  let max_retries = C.read_int d in
  let backoff = C.read_float d in
  let backoff_multiplier = C.read_float d in
  { rules; max_retries; backoff; backoff_multiplier }

let fault_event b (e : Injector.event) =
  C.string b e.ev_op;
  fault_kind b e.ev_kind;
  C.float b e.ev_at;
  C.int b e.ev_attempt;
  C.bool b e.ev_recovered

let read_fault_event d : Injector.event =
  let ev_op = C.read_string d in
  let ev_kind = read_fault_kind d in
  let ev_at = C.read_float d in
  let ev_attempt = C.read_int d in
  let ev_recovered = C.read_bool d in
  { ev_op; ev_kind; ev_at; ev_attempt; ev_recovered }

let injector_dump b (i : Injector.dump) =
  C.rng_state b i.d_rng;
  C.array C.int b i.d_fired;
  C.list fault_event b i.d_events_rev;
  C.int b i.d_n_events;
  C.int b i.d_n_unrecovered;
  C.float b i.d_injected

let read_injector_dump d : Injector.dump =
  let d_rng = C.read_rng_state d in
  let d_fired = C.read_array C.read_int d in
  let d_events_rev = C.read_list read_fault_event d in
  let d_n_events = C.read_int d in
  let d_n_unrecovered = C.read_int d in
  let d_injected = C.read_float d in
  { d_rng; d_fired; d_events_rev; d_n_events; d_n_unrecovered; d_injected }

let device_dump b (dv : Device.dump) =
  C.list C.int b dv.d_io;
  C.option C.rng_state b dv.d_jitter;
  C.option injector_dump b dv.d_faults

let read_device_dump d : Device.dump =
  let d_io = C.read_list C.read_int d in
  let d_jitter = C.read_option C.read_rng_state d in
  let d_faults = C.read_option read_injector_dump d in
  { d_io; d_jitter; d_faults }

(* ------------------------------------------------------------------ *)
(* Estimator / stats state                                              *)

let count_estimator b (e : Count_estimator.t) =
  C.float b e.estimate;
  C.float b e.variance;
  C.float b e.hits;
  C.float b e.points;
  C.float b e.total_points;
  C.bool b e.is_exact

let read_count_estimator d : Count_estimator.t =
  let estimate = C.read_float d in
  let variance = C.read_float d in
  let hits = C.read_float d in
  let points = C.read_float d in
  let total_points = C.read_float d in
  let is_exact = C.read_bool d in
  { estimate; variance; hits; points; total_points; is_exact }

let summary_dump b (s : Summary.dump) =
  C.int b s.d_n;
  C.float b s.d_mean;
  C.float b s.d_m2;
  C.float b s.d_lo;
  C.float b s.d_hi;
  C.float b s.d_total

let read_summary_dump d : Summary.dump =
  let d_n = C.read_int d in
  let d_mean = C.read_float d in
  let d_m2 = C.read_float d in
  let d_lo = C.read_float d in
  let d_hi = C.read_float d in
  let d_total = C.read_float d in
  { d_n; d_mean; d_m2; d_lo; d_hi; d_total }

let least_squares_dump b (l : Least_squares.dump) =
  C.array (C.array C.float) b l.d_a;
  C.array C.float b l.d_b;
  C.float b l.d_anchor_scale;
  C.int b l.d_n

let read_least_squares_dump d : Least_squares.dump =
  let d_a = C.read_array (C.read_array C.read_float) d in
  let d_b = C.read_array C.read_float d in
  let d_anchor_scale = C.read_float d in
  let d_n = C.read_int d in
  { d_a; d_b; d_anchor_scale; d_n }

let step_state b (s : Cost_model.step_state) =
  C.float b s.ss_calibration;
  least_squares_dump b s.ss_fit

let read_step_state d : Cost_model.step_state =
  let ss_calibration = C.read_float d in
  let ss_fit = read_least_squares_dump d in
  { ss_calibration; ss_fit }

let cost_model_dump b (cm : Cost_model.dump) =
  C.list (C.pair C.int (C.list step_state)) b cm

let read_cost_model_dump d : Cost_model.dump =
  C.read_list (C.read_pair C.read_int (C.read_list read_step_state)) d

let selectivity_dump b (s : Selectivity.dump) =
  C.float b s.d_points;
  C.float b s.d_tuples;
  C.int b s.d_stages;
  C.float b s.d_design_effect

let read_selectivity_dump d : Selectivity.dump =
  let d_points = C.read_float d in
  let d_tuples = C.read_float d in
  let d_stages = C.read_int d in
  let d_design_effect = C.read_float d in
  { d_points; d_tuples; d_stages; d_design_effect }

let stage_set_dump b (s : Stage_set.dump) =
  C.int b s.d_n_units;
  C.list (C.list C.int) b s.d_stages_rev;
  C.rng_state b s.d_rng

let read_stage_set_dump d : Stage_set.dump =
  let d_n_units = C.read_int d in
  let d_stages_rev = C.read_list (C.read_list C.read_int) d in
  let d_rng = C.read_rng_state d in
  { d_n_units; d_stages_rev; d_rng }

(* ------------------------------------------------------------------ *)
(* The staged-query snapshot                                            *)

let scan_snapshot b (s : Staged.scan_snapshot) =
  C.string b s.sn_relation;
  C.list C.int b s.sn_stage_tuples;
  C.int b s.sn_drawn_tuples;
  stage_set_dump b s.sn_units

let read_scan_snapshot d : Staged.scan_snapshot =
  let sn_relation = C.read_string d in
  let sn_stage_tuples = C.read_list C.read_int d in
  let sn_drawn_tuples = C.read_int d in
  let sn_units = read_stage_set_dump d in
  { sn_relation; sn_stage_tuples; sn_drawn_tuples; sn_units }

let rec node_state b (n : Staged.node_state) =
  C.int b n.ns_id;
  C.float b n.ns_cum_out;
  C.float b n.ns_cum_points;
  selectivity_dump b n.ns_sel;
  match n.ns_kind with
  | Ns_leaf -> C.u8 b 0
  | Ns_select child ->
      C.u8 b 1;
      node_state b child
  | Ns_project { np_groups; np_child } ->
      C.u8 b 2;
      C.list (C.pair C.tuple C.int) b np_groups;
      node_state b np_child
  | Ns_binary { nb_left; nb_right; nb_deltas_l; nb_deltas_r } ->
      C.u8 b 3;
      node_state b nb_left;
      node_state b nb_right;
      C.list (C.array C.tuple) b nb_deltas_l;
      C.list (C.array C.tuple) b nb_deltas_r

let rec read_node_state d : Staged.node_state =
  let ns_id = C.read_int d in
  let ns_cum_out = C.read_float d in
  let ns_cum_points = C.read_float d in
  let ns_sel = read_selectivity_dump d in
  let ns_kind : Staged.node_kind_state =
    match C.read_u8 d with
    | 0 -> Ns_leaf
    | 1 -> Ns_select (read_node_state d)
    | 2 ->
        let np_groups = C.read_list (C.read_pair C.read_tuple C.read_int) d in
        let np_child = read_node_state d in
        Ns_project { np_groups; np_child }
    | 3 ->
        let nb_left = read_node_state d in
        let nb_right = read_node_state d in
        let nb_deltas_l = C.read_list (C.read_array C.read_tuple) d in
        let nb_deltas_r = C.read_list (C.read_array C.read_tuple) d in
        Ns_binary { nb_left; nb_right; nb_deltas_l; nb_deltas_r }
    | n -> raise (C.Decode_error (Printf.sprintf "bad node kind tag %d" n))
  in
  { ns_id; ns_cum_out; ns_cum_points; ns_sel; ns_kind }

let term_snapshot b (t : Staged.term_snapshot) =
  node_state b t.tn_root;
  moments b t.tn_moments;
  C.list C.float b t.tn_block_counts

let read_term_snapshot d : Staged.term_snapshot =
  let tn_root = read_node_state d in
  let tn_moments = read_moments d in
  let tn_block_counts = C.read_list C.read_float d in
  { tn_root; tn_moments; tn_block_counts }

let staged_snapshot b (s : Staged.snapshot) =
  C.int b s.sn_stage;
  C.option count_estimator b s.sn_last_estimate;
  C.list scan_snapshot b s.sn_scans;
  C.list term_snapshot b s.sn_terms

let read_staged_snapshot d : Staged.snapshot =
  let sn_stage = C.read_int d in
  let sn_last_estimate = C.read_option read_count_estimator d in
  let sn_scans = C.read_list read_scan_snapshot d in
  let sn_terms = C.read_list read_term_snapshot d in
  { sn_stage; sn_last_estimate; sn_scans; sn_terms }

(* ------------------------------------------------------------------ *)
(* Report stages (the run's accumulated trace)                          *)

let op_snapshot b (o : Report.op_snapshot) =
  C.int b o.op_id;
  C.string b o.op_label;
  C.float b o.selectivity;
  C.float b o.points_seen;
  C.float b o.tuples_seen

let read_op_snapshot d : Report.op_snapshot =
  let op_id = C.read_int d in
  let op_label = C.read_string d in
  let selectivity = C.read_float d in
  let points_seen = C.read_float d in
  let tuples_seen = C.read_float d in
  { op_id; op_label; selectivity; points_seen; tuples_seen }

let stage b (s : Report.stage) =
  C.int b s.index;
  C.float b s.fraction;
  C.list (C.pair C.string C.int) b s.new_blocks;
  C.float b s.predicted_cost;
  C.float b s.actual_cost;
  C.float b s.started_at;
  C.float b s.finished_at;
  C.float b s.estimate;
  C.float b s.variance;
  C.list op_snapshot b s.ops

let read_stage d : Report.stage =
  let index = C.read_int d in
  let fraction = C.read_float d in
  let new_blocks = C.read_list (C.read_pair C.read_string C.read_int) d in
  let predicted_cost = C.read_float d in
  let actual_cost = C.read_float d in
  let started_at = C.read_float d in
  let finished_at = C.read_float d in
  let estimate = C.read_float d in
  let variance = C.read_float d in
  let ops = C.read_list read_op_snapshot d in
  {
    index;
    fraction;
    new_blocks;
    predicted_cost;
    actual_cost;
    started_at;
    finished_at;
    estimate;
    variance;
    ops;
  }

(* ------------------------------------------------------------------ *)
(* The executor snapshot, meta and checkpoint payloads                  *)

let executor_snapshot b (s : Executor.snapshot) =
  query b s.snap_query;
  aggregate b s.snap_aggregate;
  config b s.snap_config;
  C.float b s.snap_quota;
  C.float b s.snap_start;
  staged_snapshot b s.snap_staged;
  cost_model_dump b s.snap_cost_model;
  C.float b s.snap_useful_time;
  C.int b s.snap_stages_attempted;
  C.int b s.snap_stages_completed;
  C.list stage b s.snap_trace_rev;
  C.list C.float b s.snap_recent_estimates;
  C.option count_estimator b s.snap_last_good;
  C.int b s.snap_useful_blocks;
  summary_dump b s.snap_residuals;
  C.list C.int b s.snap_io_before;
  C.int b s.snap_faults_before;
  C.float b s.snap_fault_time_before;
  C.bool b s.snap_forced_degraded

let read_executor_snapshot d : Executor.snapshot =
  let snap_query = read_query d in
  let snap_aggregate = read_aggregate d in
  let snap_config = read_config d in
  let snap_quota = C.read_float d in
  let snap_start = C.read_float d in
  let snap_staged = read_staged_snapshot d in
  let snap_cost_model = read_cost_model_dump d in
  let snap_useful_time = C.read_float d in
  let snap_stages_attempted = C.read_int d in
  let snap_stages_completed = C.read_int d in
  let snap_trace_rev = C.read_list read_stage d in
  let snap_recent_estimates = C.read_list C.read_float d in
  let snap_last_good = C.read_option read_count_estimator d in
  let snap_useful_blocks = C.read_int d in
  let snap_residuals = read_summary_dump d in
  let snap_io_before = C.read_list C.read_int d in
  let snap_faults_before = C.read_int d in
  let snap_fault_time_before = C.read_float d in
  let snap_forced_degraded = C.read_bool d in
  {
    snap_query;
    snap_aggregate;
    snap_config;
    snap_quota;
    snap_start;
    snap_staged;
    snap_cost_model;
    snap_useful_time;
    snap_stages_attempted;
    snap_stages_completed;
    snap_trace_rev;
    snap_recent_estimates;
    snap_last_good;
    snap_useful_blocks;
    snap_residuals;
    snap_io_before;
    snap_faults_before;
    snap_fault_time_before;
    snap_forced_degraded;
  }

let meta b (m : meta) =
  query b m.m_query;
  aggregate b m.m_aggregate;
  config b m.m_config;
  C.float b m.m_quota;
  C.int b m.m_seed;
  cost_params b m.m_params;
  fault_plan b m.m_fault_plan;
  C.int b m.m_fault_seed

let read_meta d : meta =
  let m_query = read_query d in
  let m_aggregate = read_aggregate d in
  let m_config = read_config d in
  let m_quota = C.read_float d in
  let m_seed = C.read_int d in
  let m_params = read_cost_params d in
  let m_fault_plan = read_fault_plan d in
  let m_fault_seed = C.read_int d in
  { m_query; m_aggregate; m_config; m_quota; m_seed; m_params; m_fault_plan;
    m_fault_seed }

let checkpoint b (c : checkpoint) =
  C.float b c.c_at;
  executor_snapshot b c.c_exec;
  device_dump b c.c_device

let read_checkpoint d : checkpoint =
  let c_at = C.read_float d in
  let c_exec = read_executor_snapshot d in
  let c_device = read_device_dump d in
  { c_at; c_exec; c_device }
