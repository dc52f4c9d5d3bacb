(* The physical-path performance report: drive Staged directly (no
   time-control loop, jitter-free device, fixed per-stage fraction) so
   sort and hash runs evaluate exactly the same sample at
   every stage, and dump per-query wall-clock and virtual-device costs
   to BENCH_perf.json — the machine-readable record of the hash path's
   late-stage advantage, for tracking across commits. *)

module Config = Taqp_core.Config
module Staged = Taqp_core.Staged
module Paper_setup = Taqp_workload.Paper_setup
module Generator = Taqp_workload.Generator
module Cost_model = Taqp_timecost.Cost_model
module Count_estimator = Taqp_estimators.Count_estimator
module Prng = Taqp_rng.Prng
module Clock = Taqp_storage.Clock
module Device = Taqp_storage.Device
module Cost_params = Taqp_storage.Cost_params
module Json = Taqp_obs.Json

let spec = { Generator.n_tuples = 2_000; tuple_bytes = 200; block_bytes = 1024 }

let workloads =
  [
    ("join", Paper_setup.join ~spec ~seed:3 ());
    ("intersection", Paper_setup.intersection ~spec ~overlap:500 ~seed:4 ());
    ( "three_way_join",
      Paper_setup.three_way_join
        ~spec:{ spec with Generator.n_tuples = 1_000 }
        ~group_size:3 ~seed:5 () );
  ]

let modes = [ ("sort", Config.Sort_merge); ("hash", Config.Hash) ]

type run = {
  stages_run : int;
  wall_ms : float;
  virtual_seconds : float;  (** whole-device clock, scans included *)
  operator_virtual_seconds : float;  (** per-stage operator time summed *)
  estimate : float;
}

let run_staged ~physical ~stages ~f (wl : Paper_setup.t) =
  let config = { Config.default with Config.physical } in
  let cost_model = Cost_model.create () in
  let staged =
    Staged.compile ~catalog:wl.catalog ~config ~rng:(Prng.create 11)
      ~cost_model wl.query
  in
  let clock = Clock.create_virtual () in
  let device =
    Device.create ~params:(Cost_params.no_jitter Cost_params.default) clock
  in
  let t0 = Unix.gettimeofday () in
  let stages_run = ref 0 in
  let op_cost = ref 0.0 in
  let estimate = ref 0.0 in
  for _ = 1 to stages do
    match Staged.run_stage staged ~device ~f with
    | Some r ->
        incr stages_run;
        op_cost := !op_cost +. r.Staged.nodes_elapsed;
        estimate := r.Staged.estimate.Count_estimator.estimate
    | None -> ()
  done;
  {
    stages_run = !stages_run;
    wall_ms = (Unix.gettimeofday () -. t0) *. 1e3;
    virtual_seconds = Clock.now clock;
    operator_virtual_seconds = !op_cost;
    estimate = !estimate;
  }

let run_json name (r : run) =
  Json.Obj
    [
      ("mode", Json.Str name);
      ("stages", Json.Num (float_of_int r.stages_run));
      ("wall_ms", Json.Num r.wall_ms);
      ("virtual_seconds", Json.Num r.virtual_seconds);
      ("operator_virtual_seconds", Json.Num r.operator_virtual_seconds);
      ("estimate", Json.Num r.estimate);
    ]

let query_json ~stages ~f (name, wl) =
  let runs = List.map (fun (mn, p) -> (mn, run_staged ~physical:p ~stages ~f wl)) modes in
  let cost m = (List.assoc m runs).operator_virtual_seconds in
  Fmt.pr "  %-16s sort %8.4fs  hash %8.4fs  (virtual op cost, %d stages)@."
    name (cost "sort") (cost "hash") stages;
  Json.Obj
    [
      ("query", Json.Str name);
      ("exact", Json.Num (float_of_int wl.Paper_setup.exact));
      ("modes", Json.List (List.map (fun (mn, r) -> run_json mn r) runs));
    ]

let write ?(path = "BENCH_perf.json") ?(stages = 6) ?(f = 0.05) () =
  Fmt.pr "@.=== Physical-path perf (sort vs hash) ===@.";
  let doc =
    Json.Obj
      [
        ("schema", Json.Str "taqp-bench-perf/1");
        ("stages_per_run", Json.Num (float_of_int stages));
        ("stage_fraction", Json.Num f);
        ("queries", Json.List (List.map (query_json ~stages ~f) workloads));
      ]
  in
  let oc = open_out path in
  output_string oc (Json.to_string doc);
  output_string oc "\n";
  close_out oc;
  Fmt.pr "wrote %s (%d queries x %d modes)@." path (List.length workloads)
    (List.length modes)
