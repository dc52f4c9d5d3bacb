(* The traced run's per-layer probes. Each probe calls one layer's
   public functions from here, on the workload's own inputs, inside a
   span; calls far below a microsecond are timed as one span around a
   batch, with the batch size recorded as the span's work. Nothing here
   changes the program: where a layer is reached only from inside
   another, the probe drives it directly on the same inputs
   ([Sample_size.bisect] over [Staged.predicted_cost], [Staged.run_stage]
   replayed at the fractions a report recorded, an in-process [Engine]
   fed the workload's job stream). *)

module Config = Taqp_core.Config
module Staged = Taqp_core.Staged
module Executor = Taqp_core.Executor
module Report = Taqp_core.Report
module Taqp = Taqp_core.Taqp
module Ra = Taqp_relational.Ra
module Ops = Taqp_relational.Ops
module Predicate = Taqp_relational.Predicate
module Catalog = Taqp_storage.Catalog
module Heap_file = Taqp_storage.Heap_file
module Device = Taqp_storage.Device
module Clock = Taqp_storage.Clock
module Cost_params = Taqp_storage.Cost_params
module Stage_set = Taqp_sampling.Stage_set
module Count_estimator = Taqp_estimators.Count_estimator
module Sample_size = Taqp_timecontrol.Sample_size
module Strategy = Taqp_timecontrol.Strategy
module Cost_model = Taqp_timecost.Cost_model
module Formulas = Taqp_timecost.Formulas
module Pool = Taqp_parallel.Pool
module Cache = Taqp_cache.Cache
module Engine = Taqp_sched.Engine
module Admission = Taqp_sched.Admission
module Job = Taqp_sched.Job
module Sched_journal = Taqp_sched.Sched_journal
module Journal = Taqp_recover.Journal
module Wire = Taqp_net.Wire
module Prng = Taqp_rng.Prng
module Schema = Taqp_data.Schema
module Value = Taqp_data.Value

let virtual_device () =
  Device.create ~params:(Cost_params.no_jitter Cost_params.default) (Clock.create_virtual ())

let tuples file = Array.concat (List.init (Heap_file.n_blocks file) (Heap_file.block file))

(* Seconds per unit of work over every span named [name]. *)
let per_work sp spans name =
  let w = Spans.work sp name in
  if w = 0 then nan else Array.fold_left ( +. ) 0.0 (Spans.durations spans name) /. float_of_int w

(* One class per distinct query, in class order. *)
let distinct_classes (w : Inputs.t) =
  Array.fold_left
    (fun acc (c : Inputs.cls) ->
      if List.exists (fun (d : Inputs.cls) -> d.Inputs.query == c.Inputs.query) acc then acc
      else acc @ [ c ])
    [] w.classes

let compile ?(seed = 7) (w : Inputs.t) (c : Inputs.cls) =
  Staged.compile ~catalog:w.catalog ~config:c.config ~rng:(Prng.create seed)
    ~cost_model:(Cost_model.create ()) c.query

let sel_mode (c : Inputs.cls) =
  match c.config.Config.strategy with
  | Strategy.One_at_a_time { d_beta; zero_beta } -> Staged.Inflated { d_beta; zero_beta }
  | _ -> Staged.Plain

(* ---- compile, time control, cost model ------------------------- *)

let planning sp (w : Inputs.t) =
  let probes = ref 0 and calls = ref 0 in
  List.iter
    (fun (c : Inputs.cls) ->
      for i = 1 to 20 do
        ignore (Spans.span sp "staged.compile" (fun () -> compile ~seed:i w c))
      done;
      let staged = compile w c in
      let mode = sel_mode c in
      for i = 1 to 40 do
        let budget = c.quota *. float_of_int i /. 41.0 in
        let cost_at f =
          incr probes;
          Spans.span sp "staged.predicted_cost" (fun () -> Staged.predicted_cost staged ~f ~mode)
        in
        incr calls;
        ignore
          (Spans.span sp "sample_size.bisect" (fun () ->
               Sample_size.bisect ~cost_at ~budget ~f_min:Executor.min_fraction ~f_max:1.0
                 ~eps:(Float.max 1e-6 (c.config.Config.bisect_eps_frac *. budget))
                 ~max_iterations:c.config.Config.max_bisect_iterations ()))
      done;
      (* the cost model, fed this query's stage plans at a spread of
         fractions, one (node, step) observation per call *)
      let model = Cost_model.create () in
      let plans =
        List.init 50 (fun r -> Staged.plan staged ~f:(float_of_int (r + 1) /. 1000.0) ~mode:Staged.Plain)
      in
      List.iteri
        (fun id (n : Staged.node_plan) -> Cost_model.register model ~id n.Staged.plan_kind)
        (List.hd plans);
      let obs =
        List.concat_map
          (fun plan ->
            List.concat
              (List.mapi
                 (fun id (n : Staged.node_plan) ->
                   List.map
                     (fun step -> (id, step, n.Staged.plan_measures, 1e-4 *. float_of_int (id + 1)))
                     (Formulas.steps n.Staged.plan_kind))
                 plan))
          plans
      in
      let n = List.length obs in
      Spans.span sp ~n "cost_model.observe_step" (fun () ->
          List.iter (fun (id, step, m, seconds) -> Cost_model.observe_step model ~id ~step m ~seconds) obs);
      Spans.span sp ~n "cost_model.predict" (fun () ->
          List.iter (fun (id, step, m, _) -> ignore (Cost_model.predict_step model ~id ~step m)) obs))
    (distinct_classes w);
  float_of_int !probes /. float_of_int !calls

(* ---- storage, sampling, estimators ----------------------------- *)

let storage sp (w : Inputs.t) =
  let dev = virtual_device () in
  List.iter
    (fun name ->
      let file = Catalog.find w.catalog name in
      let n = Heap_file.n_blocks file in
      Spans.span sp ~n "heap_file.read_block" (fun () ->
          for b = 0 to n - 1 do ignore (Heap_file.read_block dev file b) done))
    (Catalog.names w.catalog);
  for s = 1 to 20 do
    let set = Stage_set.create ~n_units:2_000 (Prng.create s) in
    Spans.span sp ~n:2_000 "stage_set.draw_stage" (fun () ->
        while not (Stage_set.exhausted set) do ignore (Stage_set.draw_stage set ~k:20) done)
  done;
  let n = 20_000 in
  Spans.span sp ~n "count_estimator.confidence" (fun () ->
      for i = 1 to n do
        let points = float_of_int (1000 + i) in
        let e = Count_estimator.of_sample ~hits:(points /. 7.0) ~points ~total_points:1e8 in
        ignore (Count_estimator.confidence e)
      done)

(* ---- operators --------------------------------------------------- *)

(* The base relations of the first class whose query joins two of
   them; every workload has one. *)
let join_inputs (w : Inputs.t) =
  Array.to_list w.classes
  |> List.find_map (fun (c : Inputs.cls) ->
         match c.Inputs.original.Taqp_workload.Paper_setup.query with
         | Ra.Join (_, Ra.Relation { name = a; _ }, Ra.Relation { name = b; _ }) ->
             let cat = c.Inputs.original.Taqp_workload.Paper_setup.catalog in
             Some ((a, Catalog.find cat a), (b, Catalog.find cat b))
         | _ -> None)
  |> Option.get

let operators sp (w : Inputs.t) =
  let (la, fa), (lb, fb) = join_inputs w in
  let ta = tuples fa and tb = tuples fb in
  let schema = Heap_file.schema fa in
  let na = Array.length ta and nb = Array.length tb in
  let pred =
    Predicate.Cmp (Predicate.Lt, Predicate.Attr "sel", Predicate.Const (Value.Int (na / 10)))
  in
  for _ = 1 to 5 do
    ignore (Spans.span sp ~n:na "ops.select" (fun () -> Ops.select ~schema pred ta))
  done;
  let key = Ops.key_positions schema [ "key" ] in
  for _ = 1 to 3 do
    ignore (Spans.span sp ~n:na "ops.sort_stage" (fun () -> Ops.sort_stage ~key ta))
  done;
  let schema_l = Schema.qualify la schema and schema_r = Schema.qualify lb (Heap_file.schema fb) in
  let eq = Predicate.Cmp (Predicate.Eq, Predicate.Attr (la ^ ".key"), Predicate.Attr (lb ^ ".key")) in
  for _ = 1 to 3 do
    ignore
      (Spans.span sp ~n:(na + nb) "ops.merge_join" (fun () -> Ops.merge_join ~schema_l ~schema_r eq ta tb))
  done;
  for _ = 1 to 3 do
    let idx = Ops.Hash_index.create ~key in
    Spans.span sp ~n:na "ops.hash_index.add" (fun () -> Ops.Hash_index.add idx ta);
    let hits = ref 0 in
    Spans.span sp ~n:nb "ops.hash_index.probe" (fun () ->
        Ops.Hash_index.probe ~probe_key:key idx tb ~emit:(fun ~indexed:_ ~probe:_ -> incr hits))
  done

(* ---- stages at the recorded fractions ---------------------------- *)

let stages sp (w : Inputs.t) =
  let stage_tuples = ref [] in
  List.iteri
    (fun i (c : Inputs.cls) ->
      let seed = Inputs.request_seed w (1_000_000 + i) in
      let config = { c.config with Config.trace = true } in
      let report = Taqp.count_within ~config ~seed w.catalog ~quota:c.quota c.query in
      let staged =
        Staged.compile ~catalog:w.catalog ~config ~rng:(Prng.create seed)
          ~cost_model:(Cost_model.create ()) c.query
      in
      let per_unit =
        List.map
          (fun (name, units) ->
            (name, float_of_int (Heap_file.n_tuples (Catalog.find w.catalog name)) /. float_of_int units))
          (Staged.relations staged)
      in
      let dev = virtual_device () in
      List.iter
        (fun (s : Report.stage) ->
          match
            Spans.span sp "staged.run_stage" (fun () -> Staged.run_stage staged ~device:dev ~f:s.Report.fraction)
          with
          | None -> ()
          | Some r ->
              let t =
                List.fold_left
                  (fun a (name, k) -> a +. (float_of_int k *. List.assoc name per_unit))
                  0.0 r.Staged.new_units
              in
              stage_tuples := t :: !stage_tuples)
        report.Report.trace)
    (distinct_classes w);
  Stats.median (Array.of_list !stage_tuples)

(* ---- domains ----------------------------------------------------- *)

let pool sp =
  let p = Pool.create ~domains:2 in
  let tasks = Array.make 2 (fun () -> ()) in
  for _ = 1 to 2_000 do
    Spans.span sp "pool.run" (fun () -> ignore (Pool.run p tasks))
  done;
  Pool.shutdown p

(* Wall time of the same requests at one domain over two domains. *)
let speedup_2d (w : Inputs.t) ~first ~count =
  let time domains =
    let t0 = Spans.now_ns () in
    for k = first to first + count - 1 do
      let c = w.classes.(w.pick k) in
      ignore
        (Taqp.count_within ~config:c.config ~domains ~seed:(Inputs.request_seed w k) w.catalog
           ~quota:c.quota c.query)
    done;
    Spans.since_s t0
  in
  ignore (time 2);
  let t1 = time 1 in
  let t2 = time 2 in
  t1 /. t2

(* ---- serving path in process --------------------------------------- *)

(* The workload's job stream through an in-process engine configured
   as the traced run's `taqp serve` is: EDF, admission
   (max_queue 8, headroom 1.2), a 1 MB cache and a journal. Each job
   arrives at the engine's current virtual time, and the engine is
   stepped whenever more than [in_flight] jobs are queued or live: more
   than admission's queue limit, so jobs overlap, wait and are
   sometimes refused, as on an overloaded server. *)
let serving sp (w : Inputs.t) ~work ~jobs:n =
  let in_flight = 6 in
  let cache = Cache.create ~budget_mb:1.0 ~seed:0 () in
  let jpath = Filename.concat work "engine.journal" in
  let journal = Journal.create jpath in
  let admission = Admission.make ~max_queue:8 ~headroom:1.2 () in
  let e = Engine.create ~policy:Taqp_sched.Policy.Edf ~admission ~journal ~cache [] in
  let step () = Spans.span sp "engine.step" (fun () -> Engine.step e) in
  let job_of k ~now =
    let c = w.classes.(w.pick k) in
    Job.make ~label:(Printf.sprintf "q%d" k) ~priority:c.priority ?min_confidence:c.min_rhw
      ~config:c.config ~seed:(Inputs.request_seed w k) ~id:k ~catalog:w.catalog ~arrival:now
      ~deadline:(now +. c.quota) c.query
  in
  let priced = ref 0 in
  for k = 0 to n - 1 do
    let job = job_of k ~now:(Engine.now e) in
    if !priced < 100 then begin
      incr priced;
      Spans.span sp "admission.price" (fun () ->
          let staged = Admission.compile_for_pricing ~cache ~job () in
          ignore (Admission.price_min_stage ~device:(Engine.device e) staged ~config:job.Job.config))
    end;
    Engine.submit e job;
    while Engine.live_count e + Engine.pending_count e > in_flight do ignore (step ()) done
  done;
  while step () = `Progress do () done;
  let result = Engine.finish e in
  Journal.close journal;
  let journal_bytes = (Unix.stat jpath).Unix.st_size in
  let cache_stats = Cache.stats cache and hit_ratio = Cache.hit_ratio cache in
  let blocks =
    List.concat_map
      (fun name ->
        let file = Catalog.find w.catalog name in
        List.init (Heap_file.n_blocks file) (fun b -> (file, b)))
      (Catalog.names w.catalog)
  in
  Spans.span sp ~n:(List.length blocks) "cache.find_block" (fun () ->
      List.iter (fun (file, b) -> ignore (Cache.find_block cache ~file b)) blocks);
  let dones = List.map Engine.to_done_record result.Engine.reports in
  let nd = List.length dones in
  let payloads =
    Spans.span sp ~n:nd "sched_journal.encode" (fun () ->
        List.map (fun d -> Sched_journal.encode (Sched_journal.Done d)) dones)
  in
  let jpath2 = Filename.concat work "append.journal" in
  let writer = Journal.create jpath2 in
  Spans.span sp ~n:nd "journal.append" (fun () -> List.iter (Journal.append writer) payloads);
  Journal.close writer;
  Sys.remove jpath2;
  Sys.remove jpath;
  let lines = List.init n (Inputs.job_line w) in
  let frames =
    Spans.span sp ~n:(n + nd) "wire.frame_message" (fun () ->
        List.map (fun line -> Wire.frame_message (Wire.Submit { line })) lines
        @ List.map (fun d -> Wire.frame_message (Wire.Result d)) dones)
  in
  let wire_bytes = List.fold_left (fun a f -> a + String.length f) 0 frames in
  let decoded = ref 0 in
  Spans.span sp ~n:(n + nd) "wire.decode" (fun () ->
      let rd = Wire.reader () in
      List.iter
        (fun f ->
          Wire.feed rd (Bytes.unsafe_of_string f) (String.length f);
          match Wire.next rd with
          | Ok (Some p) -> (match Wire.decode p with Ok _ -> incr decoded | Error _ -> ())
          | _ -> ())
        frames);
  if !decoded <> n + nd then failwith "wire probe: a frame did not decode";
  let s = result.Engine.summary in
  let fn = float_of_int n in
  let waits = List.map (fun (d : Sched_journal.done_record) -> d.Sched_journal.d_queue_wait) dones in
  [
    ("cache.hit_ratio", "ratio", hit_ratio);
    ("cache.evictions_per_job", "count", float_of_int cache_stats.Cache.evictions /. fn);
    ("engine.preemptions_per_job", "count", float_of_int s.Engine.preemptions /. fn);
    ("engine.queue_wait_s_mean", "s", List.fold_left ( +. ) 0.0 waits /. float_of_int nd);
    ("admission.accept_ratio", "ratio", float_of_int s.Engine.admitted /. float_of_int s.Engine.submitted);
    ("journal.bytes_per_job", "bytes", float_of_int journal_bytes /. fn);
    ("wire.bytes_per_job", "bytes", float_of_int wire_bytes /. fn);
  ]

(* Every probe, then the timings read off the spans. *)
let run sp (w : Inputs.t) ~work ~engine_jobs ~speedup_first ~speedup_count =
  let probes_per_call = planning sp w in
  storage sp w;
  operators sp w;
  let tuples_per_stage = stages sp w in
  pool sp;
  let speedup = speedup_2d w ~first:speedup_first ~count:speedup_count in
  let serving = serving sp w ~work ~jobs:engine_jobs in
  let spans = Spans.spans sp in
  let us name = 1e6 *. per_work sp spans name and ns name = 1e9 *. per_work sp spans name in
  let median_us name = 1e6 *. Stats.median (Spans.durations spans name) in
  [
    ("staged.compile_us", "us", median_us "staged.compile");
    ("sample_size.bisect_us", "us", median_us "sample_size.bisect");
    ("sample_size.probes_per_call", "count", probes_per_call);
    ("staged.predicted_cost_us", "us", median_us "staged.predicted_cost");
    ("cost_model.observe_step_us", "us", us "cost_model.observe_step");
    ("cost_model.predict_us", "us", us "cost_model.predict");
    ("heap_file.read_block_ns", "ns", ns "heap_file.read_block");
    ("stage_set.draw_ns_per_unit", "ns", ns "stage_set.draw_stage");
    ("count_estimator.confidence_us", "us", us "count_estimator.confidence");
    ("ops.select_ns_per_tuple", "ns", ns "ops.select");
    ("ops.sort_ns_per_tuple", "ns", ns "ops.sort_stage");
    ("ops.merge_join_ns_per_tuple", "ns", ns "ops.merge_join");
    ("ops.hash_build_ns_per_tuple", "ns", ns "ops.hash_index.add");
    ("ops.hash_probe_ns_per_tuple", "ns", ns "ops.hash_index.probe");
    ("staged.run_stage_ms", "ms", 1e3 *. Stats.median (Spans.durations spans "staged.run_stage"));
    ("staged.tuples_per_stage", "count", tuples_per_stage);
    ("pool.run_overhead_us", "us", median_us "pool.run");
    ("parallel.speedup_2d", "ratio", speedup);
    ("cache.find_block_ns", "ns", ns "cache.find_block");
    ("engine.step_us", "us", median_us "engine.step");
    ("admission.price_us", "us", median_us "admission.price");
    ("sched_journal.encode_us", "us", us "sched_journal.encode");
    ("journal.append_us", "us", us "journal.append");
    ("wire.encode_us", "us", us "wire.frame_message");
    ("wire.decode_us", "us", us "wire.decode");
  ]
  @ serving
