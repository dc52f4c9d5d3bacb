(* taqp_recover: journal codec, torn-tail handling, and the recovery
   guarantees of docs/RECOVERY.md.

   The load-bearing suite is "boundary": a journaled run killed at a
   stage boundary and resumed from its newest checkpoint must
   reproduce the uninterrupted run bit-for-bit — same report
   fingerprint AND same trace stream (crashed prefix ++ resumed tail =
   uninterrupted stream) — across every fixture x physical path x
   seed cell. CI sweeps extra cells via TAQP_RECOVER_SEED and
   TAQP_PHYSICAL. *)

module Taqp = Taqp_core.Taqp
module Config = Taqp_core.Config
module Report = Taqp_core.Report
module Aggregate = Taqp_core.Aggregate
module Executor = Taqp_core.Executor
module Clock = Taqp_storage.Clock
module Device = Taqp_storage.Device
module Cost_params = Taqp_storage.Cost_params
module Io_stats = Taqp_storage.Io_stats
module Paper_setup = Taqp_workload.Paper_setup
module Prng = Taqp_rng.Prng
module Value = Taqp_data.Value
module Tuple = Taqp_data.Tuple
module Sink = Taqp_obs.Sink
module Tracer = Taqp_obs.Tracer
module Event = Taqp_obs.Event
module Json = Taqp_obs.Json
module Metrics = Taqp_obs.Metrics
module Strategy = Taqp_timecontrol.Strategy
module Stopping = Taqp_timecontrol.Stopping
module Fault_plan = Taqp_fault.Fault_plan
module Injector = Taqp_fault.Injector
module Job = Taqp_sched.Job
module Scheduler = Taqp_sched.Scheduler
module Sched_journal = Taqp_sched.Sched_journal
module Crc32 = Taqp_recover.Crc32
module Codec = Taqp_recover.Codec
module Journal = Taqp_recover.Journal
module Checkpoint = Taqp_recover.Checkpoint
module Query_journal = Taqp_recover.Query_journal
module Plan = Taqp_sampling.Plan

let checkb = Fixtures.checkb
let checki = Fixtures.checki
let checkf = Fixtures.checkf

(* CI sweeps one cell per matrix job; the default covers the whole
   grid in one process. *)
let seeds =
  match Sys.getenv_opt "TAQP_RECOVER_SEED" with
  | Some s -> [ int_of_string s ]
  | None -> [ 3; 5; 11; 23 ]

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

let tmp tag = Filename.temp_file ("taqp_test_" ^ tag) ".jrn"

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* Flip one byte of a journal file in place. *)
let corrupt path pos =
  let s = Bytes.of_string (read_file path) in
  Bytes.set s pos (Char.chr (Char.code (Bytes.get s pos) lxor 0xff));
  write_file path (Bytes.to_string s)

let truncate_file path keep =
  let s = read_file path in
  write_file path (String.sub s 0 keep)

(* ------------------------------------------------------------------ *)
(* A journaled evaluation loop mirroring the CLI's --journal path, and
   the matching resume loop with continuation journaling (the resumed
   run keeps paying the same per-boundary checkpoint charge, so its
   [elapsed] matches the uninterrupted journaled run's). *)

let journaled_run ?sink ?metrics ?(params = Cost_params.default)
    ?(config = Config.default) ?(stop_after = max_int) ~path ~wl ~quota ~seed
    () =
  let rng = Prng.create seed in
  let clock = Clock.create_virtual () in
  let tracer =
    Option.map
      (fun sink -> Tracer.make ~now:(fun () -> Clock.now clock) ~sink)
      sink
  in
  let device =
    Device.create ~params ~jitter_rng:(Prng.split rng) ?metrics ?tracer clock
  in
  let catalog = wl.Paper_setup.catalog and expr = wl.Paper_setup.query in
  let h =
    Executor.start ~config ~aggregate:Aggregate.Count ~device ~catalog ~rng
      ~quota expr
  in
  let journal =
    Query_journal.create ~path ~device
      {
        Checkpoint.m_query = expr;
        m_aggregate = Aggregate.Count;
        m_config = config;
        m_quota = quota;
        m_seed = seed;
        m_params = params;
        m_fault_plan = Fault_plan.none;
        m_fault_seed = seed;
      }
  in
  Query_journal.checkpoint journal h;
  let rec loop n =
    if n >= stop_after then `Abandoned
    else
      match Executor.step h with
      | `Continue ->
          Query_journal.checkpoint journal h;
          loop (n + 1)
      | `Done r -> `Done r
  in
  let out = loop 0 in
  Query_journal.close journal;
  out

let resume_run ?sink ?now ?continue_to ~catalog loaded =
  match Query_journal.resume_last ?sink ?now ~catalog loaded with
  | Error m -> failwith m
  | Ok (device, h) ->
      let continuation =
        Option.map
          (fun path ->
            Query_journal.create ~path ~device loaded.Query_journal.l_meta)
          continue_to
      in
      let rec loop () =
        match Executor.step h with
        | `Continue ->
            Option.iter (fun j -> Query_journal.checkpoint j h) continuation;
            loop ()
        | `Done r -> r
      in
      let r = loop () in
      Option.iter Query_journal.close continuation;
      r

let cleanup paths = List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) paths

(* ------------------------------------------------------------------ *)
(* CRC-32                                                              *)

let test_crc32_vector () =
  Alcotest.check Alcotest.int32 "IEEE test vector" 0xCBF43926l
    (Crc32.string "123456789");
  Alcotest.check Alcotest.int32 "empty" 0l (Crc32.string "")

let test_crc32_incremental () =
  let s = "the journal torn-tail rule" in
  let n = String.length s in
  for cut = 0 to n do
    let inc = Crc32.update (Crc32.update 0l s 0 cut) s cut (n - cut) in
    Alcotest.check Alcotest.int32
      (Printf.sprintf "split at %d" cut)
      (Crc32.string s) inc
  done;
  checkb "out-of-range slice raises" true
    (match Crc32.update 0l s 0 (n + 1) with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Codec                                                               *)

let test_codec_primitives () =
  let rt enc dec v = Codec.of_string dec (Codec.to_string enc v) in
  List.iter
    (fun i -> checki "int" i (rt Codec.int Codec.read_int i))
    [ 0; 1; -1; 42; max_int; min_int ];
  List.iter
    (fun f ->
      checkb
        (Printf.sprintf "float %h bit-exact" f)
        true
        (Int64.bits_of_float (rt Codec.float Codec.read_float f)
        = Int64.bits_of_float f))
    [ 0.0; -0.0; 1.5; -3.25e300; infinity; neg_infinity; nan; epsilon_float ];
  checkb "bool" true (rt Codec.bool Codec.read_bool true);
  checkb "bool" false (rt Codec.bool Codec.read_bool false);
  Alcotest.check Alcotest.string "string" "déjà\x00vu"
    (rt Codec.string Codec.read_string "déjà\x00vu");
  checkb "option none" true
    (rt (Codec.option Codec.int) (Codec.read_option Codec.read_int) None
    = None);
  checkb "list" true
    (rt (Codec.list Codec.int) (Codec.read_list Codec.read_int)
       [ 7; -9; 0 ]
    = [ 7; -9; 0 ])

let test_codec_domain () =
  let rt enc dec v = Codec.of_string dec (Codec.to_string enc v) in
  let values =
    [ Value.Int (-7); Value.Float 2.5; Value.String "x"; Value.Bool false;
      Value.Null ]
  in
  List.iter
    (fun v -> checkb "value" true (rt Codec.value Codec.read_value v = v))
    values;
  let t = Tuple.of_list ~pad:13 values in
  let t' = rt Codec.tuple Codec.read_tuple t in
  checkb "tuple fields" true (Tuple.fields t' = Tuple.fields t);
  checki "tuple pad" (Tuple.pad t) (Tuple.pad t');
  let rng = Prng.create 99 in
  let st = Prng.state rng in
  checkb "rng state" true (rt Codec.rng_state Codec.read_rng_state st = st)

let test_codec_errors () =
  let payload = Codec.to_string Codec.string "hello" in
  checkb "truncated payload raises Decode_error" true
    (match
       Codec.of_string Codec.read_string
         (String.sub payload 0 (String.length payload - 1))
     with
    | _ -> false
    | exception Codec.Decode_error _ -> true);
  checkb "trailing bytes raise Decode_error" true
    (match Codec.of_string Codec.read_string (payload ^ "x") with
    | _ -> false
    | exception Codec.Decode_error _ -> true)

(* ------------------------------------------------------------------ *)
(* Journal framing and the torn-tail rule                              *)

let test_journal_roundtrip () =
  checki "frame overhead" 8 Journal.frame_overhead;
  let path = tmp "frames" in
  let w = Journal.create path in
  List.iter (Journal.append w) [ "alpha"; "bravo!"; "charlie" ];
  Journal.close w;
  (match Journal.load path with
  | Error m -> Alcotest.fail m
  | Ok { records; tail } ->
      checkb "records back in order" true
        (records = [ "alpha"; "bravo!"; "charlie" ]);
      checkb "clean tail" true (tail = Journal.Clean));
  cleanup [ path ]

let test_journal_torn_tail () =
  let write3 path =
    let w = Journal.create path in
    List.iter (Journal.append w) [ "alpha"; "bravo!"; "charlie" ];
    Journal.close w
  in
  let magic = String.length Journal.magic in
  let frame s = Journal.frame_overhead + String.length s in
  (* Kill mid-write: the torn final frame is discarded, the rest kept. *)
  let path = tmp "torn" in
  write3 path;
  truncate_file path (magic + frame "alpha" + frame "bravo!" + 3);
  (match Journal.load path with
  | Error m -> Alcotest.fail m
  | Ok { records; tail } ->
      checkb "prefix survives" true (records = [ "alpha"; "bravo!" ]);
      checkb "tail reported torn" true
        (match tail with Journal.Torn _ -> true | Journal.Clean -> false));
  (* Bit rot in the last payload: CRC catches it. *)
  write3 path;
  let len = String.length (read_file path) in
  corrupt path (len - 1);
  (match Journal.load path with
  | Error m -> Alcotest.fail m
  | Ok { records; tail } ->
      checkb "crc drops the bad frame" true (records = [ "alpha"; "bravo!" ]);
      checkb "crc mismatch is torn, not fatal" true
        (match tail with Journal.Torn _ -> true | Journal.Clean -> false));
  (* A bad middle frame ends the usable journal there — everything
     after it is unreachable (frame lengths can no longer be trusted). *)
  write3 path;
  corrupt path (magic + frame "alpha" + Journal.frame_overhead);
  (match Journal.load path with
  | Error m -> Alcotest.fail m
  | Ok { records; tail } ->
      checkb "only the prefix before the damage" true (records = [ "alpha" ]);
      checkb "torn at the damaged frame" true
        (match tail with
        | Journal.Torn { at; _ } -> at = magic + frame "alpha"
        | Journal.Clean -> false));
  (* A wrong magic is not a journal at all. *)
  write_file path ("NOTAJRNL" ^ String.make 32 '\x00');
  checkb "bad magic is an error" true
    (match Journal.load path with Error _ -> true | Ok _ -> false);
  cleanup [ path ]

(* ------------------------------------------------------------------ *)
(* Meta record round-trip                                              *)

let test_meta_roundtrip () =
  let wl = Paper_setup.join ~spec:(Fixtures.spec ()) ~seed:21 () in
  let configs =
    [
      Config.default;
      {
        Config.default with
        Config.strategy = Strategy.Single_interval { d_alpha = 0.1; zero_beta = 0.02 };
        stopping = Stopping.Soft_deadline { grace = 0.25 };
        physical = Config.Hash;
        trace = false;
      };
      {
        Config.default with
        Config.strategy = Strategy.Heuristic { split = 0.5 };
        stopping = Stopping.Error_bound { relative = 0.1; level = 0.9 };
        adaptive_cost = false;
      };
      {
        Config.default with
        Config.stopping = Stopping.Stagnation { epsilon = 0.01; window = 4 };
        selectivity_oracle = Some (fun _ -> 0.5);
      };
    ]
  in
  List.iteri
    (fun i config ->
      let m =
        {
          Checkpoint.m_query = wl.Paper_setup.query;
          m_aggregate = Aggregate.Count;
          m_config = config;
          m_quota = 2.5;
          m_seed = 17;
          m_params = Cost_params.default;
          m_fault_plan =
            (if i mod 2 = 0 then Fault_plan.none
             else Fault_plan.make [ Fault_plan.crash_at 1.0 ]);
          m_fault_seed = 9;
        }
      in
      let m' = Codec.of_string Checkpoint.read_meta
          (Codec.to_string Checkpoint.meta m)
      in
      let tag s = Printf.sprintf "config %d: %s" i s in
      Alcotest.check Alcotest.string (tag "query")
        (Taqp_relational.Ra.to_string m.Checkpoint.m_query)
        (Taqp_relational.Ra.to_string m'.Checkpoint.m_query);
      checkb (tag "aggregate") true
        (m'.Checkpoint.m_aggregate = m.Checkpoint.m_aggregate);
      (* The oracle closure is deliberately dropped on encode. *)
      checkb (tag "config less oracle") true
        (m'.Checkpoint.m_config
        = { config with Config.selectivity_oracle = None });
      checkf (tag "quota") m.Checkpoint.m_quota m'.Checkpoint.m_quota;
      checki (tag "seed") m.Checkpoint.m_seed m'.Checkpoint.m_seed;
      checkb (tag "params") true
        (m'.Checkpoint.m_params = m.Checkpoint.m_params);
      checkb (tag "fault plan") true
        (m'.Checkpoint.m_fault_plan = m.Checkpoint.m_fault_plan);
      checki (tag "fault seed") m.Checkpoint.m_fault_seed
        m'.Checkpoint.m_fault_seed)
    configs

(* ------------------------------------------------------------------ *)
(* Boundary-crash bit-identity: the tentpole guarantee                 *)

let boundary_cell ~fulfillment ~wl_name ~physical ~seed wl quota =
  let cell = Printf.sprintf "%s/%s/seed=%d" wl_name (physical_name physical) seed in
  let config =
    {
      Config.default with
      Config.physical;
      plan = { Plan.default with Plan.fulfillment };
    }
  in
  let full_path = tmp "full" and crash_path = tmp "crash" and cont = tmp "cont" in
  (* The uninterrupted journaled run, trace captured. *)
  let full_sink, full_events = Sink.memory () in
  let full =
    match
      journaled_run ~sink:full_sink ~config ~path:full_path ~wl ~quota ~seed ()
    with
    | `Done r -> r
    | `Abandoned -> assert false
  in
  checkb (cell ^ ": fixture is multi-stage") true
    (full.Report.stages_completed >= 2);
  (* The same run killed right after its first stage boundary... *)
  let crash_sink, crash_events = Sink.memory () in
  (match
     journaled_run ~sink:crash_sink ~config ~path:crash_path ~wl ~quota ~seed
       ~stop_after:1 ()
   with
  | `Abandoned -> ()
  | `Done _ -> Alcotest.fail (cell ^ ": finished before the kill point"));
  (* ...and resumed from its newest checkpoint, continuation-journaled
     so it keeps paying the per-boundary charge. *)
  let loaded =
    match Query_journal.load crash_path with
    | Ok l -> l
    | Error m -> Alcotest.fail (cell ^ ": " ^ m)
  in
  checkb (cell ^ ": crash journal not torn") true
    (loaded.Query_journal.l_torn = None);
  let resume_sink, resume_events = Sink.memory () in
  let resumed =
    resume_run ~sink:resume_sink ~continue_to:cont
      ~catalog:wl.Paper_setup.catalog loaded
  in
  Alcotest.check Alcotest.string (cell ^ ": report fingerprint")
    (fingerprint full) (fingerprint resumed);
  (* Trace-stream identity: the resumed stream is the exact
     continuation of the crashed one. *)
  let show es = List.map (fun e -> Json.to_string (Event.to_json e)) es in
  Alcotest.check
    Alcotest.(list string)
    (cell ^ ": crashed prefix ++ resumed tail = uninterrupted trace")
    (show (full_events ()))
    (show (crash_events ()) @ show (resume_events ()));
  cleanup [ full_path; crash_path; cont ]

let boundary_case ?(fulfillment = Plan.Full) ~wl_name ~make_wl ~quota () =
  List.iter
    (fun physical ->
      List.iter
        (fun seed ->
          boundary_cell ~fulfillment ~wl_name ~physical ~seed
            (make_wl ~seed ()) quota)
        seeds)
    physicals

let test_boundary_selection =
  boundary_case ~wl_name:"selection"
    ~make_wl:(fun ~seed () -> Paper_setup.selection ~spec:(Fixtures.spec ()) ~seed ())
    ~quota:1.5

let test_boundary_join =
  (* The join needs a bigger relation to stay multi-stage across every
     seed on both physical paths. *)
  boundary_case ~wl_name:"join"
    ~make_wl:(fun ~seed () ->
      Paper_setup.join
        ~spec:(Fixtures.spec ~n_tuples:2000 ~tuple_bytes:200 ())
        ~seed ())
    ~quota:5.0

let test_boundary_intersection =
  boundary_case ~wl_name:"intersection"
    ~make_wl:(fun ~seed () -> Paper_setup.intersection ~spec:(Fixtures.spec ()) ~seed ())
    ~quota:2.0

(* Partial fulfillment is the case where the two paths retain different
   structures across a boundary: Sort_merge keeps a sorted file per
   delta, Hash keeps no index at all (each stage builds a transient
   one), and restore must rebuild exactly that. *)
let test_boundary_partial =
  boundary_case ~fulfillment:Plan.Partial ~wl_name:"join-partial"
    ~make_wl:(fun ~seed () ->
      Paper_setup.join
        ~spec:(Fixtures.spec ~n_tuples:2000 ~tuple_bytes:200 ())
        ~seed ())
    ~quota:8.0

(* ------------------------------------------------------------------ *)
(* Zero cost when off                                                  *)

let test_zero_rate_matches_plain () =
  (* With the journal charge rated at zero, a journaled run is
     bit-identical to the plain evaluator on the same params — the
     journal machinery itself perturbs nothing (jitter and sampling
     streams are untouched by journal writes). *)
  let wl = Paper_setup.join ~spec:(Fixtures.spec ()) ~seed:77 () in
  let params = { Cost_params.default with Cost_params.journal_byte_write = 0.0 } in
  let quota = 2.5 and seed = 13 in
  let plain =
    Taqp.count_within ~params ~seed wl.Paper_setup.catalog ~quota
      wl.Paper_setup.query
  in
  let path = tmp "zero" in
  let journaled =
    match journaled_run ~params ~path ~wl ~quota ~seed () with
    | `Done r -> r
    | `Abandoned -> assert false
  in
  Alcotest.check Alcotest.string "zero-rate journaled = plain"
    (fingerprint plain) (fingerprint journaled);
  cleanup [ path ]

(* ------------------------------------------------------------------ *)
(* Mid-stage crash: degraded, widened, never narrowed                  *)

let test_mid_stage_crash_degrades () =
  let wl = Paper_setup.join ~spec:(Fixtures.spec ()) ~seed:31 () in
  let quota = 2.5 and seed = 5 in
  let path = tmp "dirty" in
  (match journaled_run ~path ~wl ~quota ~seed ~stop_after:1 () with
  | `Abandoned -> ()
  | `Done _ -> Alcotest.fail "finished before the kill point");
  let loaded =
    match Query_journal.load path with Ok l -> l | Error m -> failwith m
  in
  let last =
    List.hd (List.rev loaded.Query_journal.l_checkpoints)
  in
  let c_at = last.Checkpoint.c_at in
  (* Boundary-exact resume as the baseline... *)
  let exact = resume_run ~catalog:wl.Paper_setup.catalog loaded in
  checkb "boundary-exact resume is not degraded" false
    exact.Report.degraded;
  (* ...vs a crash that landed mid-stage: the progress between the
     checkpoint and the crash instant is gone, so the resumed report
     is degraded with a widened — never narrowed — interval. *)
  let loaded =
    match Query_journal.load path with Ok l -> l | Error m -> failwith m
  in
  let dirty =
    resume_run ~now:(c_at +. 0.05) ~catalog:wl.Paper_setup.catalog loaded
  in
  checkb "mid-stage resume is degraded" true dirty.Report.degraded;
  let hw r = r.Report.confidence.Taqp_stats.Confidence.half_width in
  checkb "never narrows the interval" true (hw dirty >= hw exact -. 1e-12);
  checkb "widens at most 2x" true (hw dirty <= (2.0 *. hw exact) +. 1e-12);
  (* Rewinding before the checkpoint instant is refused. *)
  let loaded =
    match Query_journal.load path with Ok l -> l | Error m -> failwith m
  in
  checkb "resume before the checkpoint is an error" true
    (match
       Query_journal.resume_last ~now:(c_at -. 0.1)
         ~catalog:wl.Paper_setup.catalog loaded
     with
    | Error _ -> true
    | Ok _ -> false);
  cleanup [ path ]

(* A checkpoint record under the tag of the earlier layout is refused
   with an error, never misdecoded and never raised. The record here is
   a current checkpoint relabelled with the old tag. *)
let test_old_checkpoint_tag_is_error () =
  let wl = Paper_setup.join ~spec:(Fixtures.spec ()) ~seed:21 () in
  let path = tmp "current" and old = tmp "oldtag" in
  ignore (journaled_run ~path ~wl ~quota:2.5 ~seed:3 ~stop_after:1 ());
  checkb "current journal loads" true
    (match Query_journal.load path with Ok _ -> true | Error _ -> false);
  let records =
    match Journal.load path with
    | Ok { records; _ } -> records
    | Error m -> Alcotest.fail m
  in
  checkb "journal holds checkpoints" true (List.length records >= 2);
  let w = Journal.create old in
  List.iteri
    (fun i r ->
      Journal.append w
        (if i = 0 then r else "\002" ^ String.sub r 1 (String.length r - 1)))
    records;
  Journal.close w;
  checkb "old checkpoint tag refused" true
    (match Query_journal.load old with
    | Error _ -> true
    | Ok _ -> false
    | exception _ -> false);
  cleanup [ path; old ]

let test_empty_journal_is_error () =
  let path = tmp "empty" in
  let w = Journal.create path in
  Journal.close w;
  checkb "meta-less journal refused" true
    (match Query_journal.load path with Error _ -> true | Ok _ -> false);
  cleanup [ path ]

(* ------------------------------------------------------------------ *)
(* Executor snapshot/resume in memory (no file in the loop)            *)

let test_executor_snapshot_resume () =
  let wl = Paper_setup.join ~spec:(Fixtures.spec ()) ~seed:51 () in
  let quota = 2.5 and seed = 19 in
  let params = Cost_params.default in
  let rng = Prng.create seed in
  let clock = Clock.create_virtual () in
  let device = Device.create ~params ~jitter_rng:(Prng.split rng) clock in
  let h =
    Executor.start ~aggregate:Aggregate.Count ~device
      ~catalog:wl.Paper_setup.catalog ~rng ~quota wl.Paper_setup.query
  in
  (match Executor.step h with
  | `Continue -> ()
  | `Done _ -> Alcotest.fail "fixture finished in one stage");
  let snap = Executor.snapshot h in
  let dump = Device.dump device in
  let t = Clock.now clock in
  let rec drive h =
    match Executor.step h with `Continue -> drive h | `Done r -> r
  in
  let a = drive h in
  (* Rebuild on a fresh device: restore counters, stream positions and
     the clock, then resume and drive to completion. *)
  let clock2 = Clock.create_virtual () in
  let device2 =
    Device.create ~params ~jitter_rng:(Prng.split (Prng.create 999)) clock2
  in
  Device.restore device2 dump;
  Clock.restore clock2 ~now:t;
  let h2 =
    Executor.resume ~device:device2 ~catalog:wl.Paper_setup.catalog snap
  in
  let b = drive h2 in
  Alcotest.check Alcotest.string "resumed handle completes identically"
    (fingerprint a) (fingerprint b);
  checkb "snapshot after finalization raises" true
    (match Executor.snapshot h with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Scheduler journal and job-level recovery                            *)

let sched_fixture () =
  let wl = Paper_setup.selection ~spec:(Fixtures.spec ()) ~seed:42 () in
  List.init 6 (fun i ->
      Job.make ~id:i
        ~label:(Printf.sprintf "j%d" i)
        ~seed:(100 + i) ~catalog:wl.Paper_setup.catalog
        ~arrival:(0.5 *. float_of_int i)
        ~deadline:((0.5 *. float_of_int i) +. 4.0)
        wl.Paper_setup.query)

let test_sched_record_roundtrip () =
  let path = tmp "schedrt" in
  let records =
    [
      Sched_journal.Admitted
        { a_id = 3; a_label = "j3"; a_granted = 1.25; a_degraded = true; a_now = 0.5 };
      Sched_journal.Progress { p_id = 3; p_steps = 7; p_now = 1.75 };
      Sched_journal.Done
        {
          Sched_journal.d_id = 3;
          d_label = "j3";
          d_outcome = "finished";
          d_admitted = true;
          d_degraded = false;
          d_missed = false;
          d_lateness = -0.5;
          d_queue_wait = 0.25;
          d_finished_at = 3.5;
          d_service = 1.0;
          d_steps = 9;
          d_preemptions = 2;
          d_estimate = Some 123.5;
          d_now = 3.5;
        };
      Sched_journal.Done
        {
          Sched_journal.d_id = 4;
          d_label = "j4";
          d_outcome = "expired";
          d_admitted = true;
          d_degraded = false;
          d_missed = true;
          d_lateness = 0.75;
          d_queue_wait = 1.0;
          d_finished_at = 5.0;
          d_service = 0.0;
          d_steps = 0;
          d_preemptions = 0;
          d_estimate = None;
          d_now = 5.0;
        };
    ]
  in
  let w = Journal.create path in
  List.iter (fun r -> Journal.append w (Sched_journal.encode r)) records;
  Journal.close w;
  (match Sched_journal.load path with
  | Error m -> Alcotest.fail m
  | Ok { Sched_journal.records = back; torn } ->
      checkb "clean tail" true (torn = None);
      checkb "all records round-trip" true (back = records));
  cleanup [ path ]

let test_sched_journaled_run_complete () =
  let jobs = sched_fixture () in
  let path = tmp "schedrun" in
  let w = Journal.create path in
  let result = Scheduler.run ~journal:w jobs in
  Journal.close w;
  match Sched_journal.load path with
  | Error m -> Alcotest.fail m
  | Ok { Sched_journal.records; torn } ->
      checkb "clean tail" true (torn = None);
      let done_ids =
        List.filter_map
          (function
            | Sched_journal.Done d -> Some d.Sched_journal.d_id
            | Sched_journal.Admitted _ | Sched_journal.Progress _
            | Sched_journal.Submitted _ ->
                None)
          records
      in
      List.iter
        (fun (r : Scheduler.job_report) ->
          let id = r.Scheduler.job.Job.id in
          checkb
            (Printf.sprintf "job %d has a Done record" id)
            true (List.mem id done_ids);
          let d =
            List.find_map
              (function
                | Sched_journal.Done d when d.Sched_journal.d_id = id -> Some d
                | _ -> None)
              records
            |> Option.get
          in
          checkb
            (Printf.sprintf "job %d journaled accounting agrees" id)
            true
            (d.Sched_journal.d_missed = r.Scheduler.missed
            && d.Sched_journal.d_admitted = r.Scheduler.admitted
            && d.Sched_journal.d_steps = r.Scheduler.steps))
        result.Scheduler.reports;
      cleanup [ path ]

let test_sched_crash_recover_accounting () =
  let jobs = sched_fixture () in
  (* Place a deterministic kill mid-makespan. *)
  let clean = Scheduler.run jobs in
  (* Late enough that some jobs have journaled Done records, early
     enough that others are still queued or running. *)
  let crash_at = 0.7 *. clean.Scheduler.summary.Scheduler.makespan in
  let path = tmp "schedcrash" in
  let w = Journal.create path in
  let faults =
    Injector.create ~seed:3 (Fault_plan.make [ Fault_plan.crash_at crash_at ])
  in
  (match Scheduler.run ~journal:w ~faults jobs with
  | _ -> Alcotest.fail "the crash fault never fired"
  | exception Injector.Crashed _ -> ());
  Journal.close w;
  let { Sched_journal.records; torn } =
    match Sched_journal.load path with
    | Ok l -> l
    | Error m -> failwith m
  in
  checkb "crash journal readable" true (torn = None);
  let recovery = Scheduler.recover ~downtime:1.0 ~records jobs in
  let journaled_ids =
    List.map (fun d -> d.Sched_journal.d_id) recovery.Scheduler.r_journaled
  in
  checkb "something was journaled before the crash" true
    (journaled_ids <> []);
  let rerun_ids =
    List.map
      (fun (r : Scheduler.job_report) -> r.Scheduler.job.Job.id)
      recovery.Scheduler.r_run.Scheduler.reports
  in
  (* Every job is accounted for exactly once: reported from the
     journal or re-run, never both, never dropped. *)
  let all = List.sort compare (journaled_ids @ rerun_ids) in
  checkb "journal and re-run partition the job file" true
    (all = List.init (List.length jobs) Fun.id);
  let s = recovery.Scheduler.r_summary in
  checki "combined summary covers every job" (List.length jobs)
    s.Scheduler.submitted;
  let journal_missed =
    List.length
      (List.filter
         (fun d -> d.Sched_journal.d_missed)
         recovery.Scheduler.r_journaled)
  in
  let rerun_missed =
    List.length
      (List.filter
         (fun (r : Scheduler.job_report) -> r.Scheduler.missed)
         recovery.Scheduler.r_run.Scheduler.reports)
  in
  checki "combined miss count = journaled + re-run"
    (journal_missed + rerun_missed) s.Scheduler.missed;
  cleanup [ path ]

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "recover"
    [
      ( "crc32",
        [
          Alcotest.test_case "IEEE vector" `Quick test_crc32_vector;
          Alcotest.test_case "incremental = one-shot" `Quick
            test_crc32_incremental;
        ] );
      ( "codec",
        [
          Alcotest.test_case "primitives round-trip" `Quick
            test_codec_primitives;
          Alcotest.test_case "domain values round-trip" `Quick
            test_codec_domain;
          Alcotest.test_case "corruption raises Decode_error" `Quick
            test_codec_errors;
        ] );
      ( "journal",
        [
          Alcotest.test_case "frames round-trip" `Quick test_journal_roundtrip;
          Alcotest.test_case "torn-tail rule" `Quick test_journal_torn_tail;
          Alcotest.test_case "meta-less journal refused" `Quick
            test_empty_journal_is_error;
          Alcotest.test_case "old checkpoint tag refused" `Quick
            test_old_checkpoint_tag_is_error;
        ] );
      ( "meta",
        [ Alcotest.test_case "meta round-trip" `Quick test_meta_roundtrip ] );
      ( "boundary",
        [
          Alcotest.test_case "selection bit-identical" `Quick
            test_boundary_selection;
          Alcotest.test_case "join bit-identical" `Quick test_boundary_join;
          Alcotest.test_case "intersection bit-identical" `Quick
            test_boundary_intersection;
          Alcotest.test_case "partial-fulfillment join bit-identical" `Quick
            test_boundary_partial;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "zero-rate journaled = plain" `Quick
            test_zero_rate_matches_plain;
          Alcotest.test_case "mid-stage crash degrades, never narrows" `Quick
            test_mid_stage_crash_degrades;
        ] );
      ( "executor",
        [
          Alcotest.test_case "snapshot/resume completes identically" `Quick
            test_executor_snapshot_resume;
        ] );
      ( "sched",
        [
          Alcotest.test_case "record round-trip" `Quick
            test_sched_record_roundtrip;
          Alcotest.test_case "journaled run is complete" `Quick
            test_sched_journaled_run_complete;
          Alcotest.test_case "crash recovery partitions the job file" `Quick
            test_sched_crash_recover_accounting;
        ] );
    ]
