(* Benchmark harness: runs one named workload from a seed, checks the
   program's outputs, and prints every metric with its unit. The last
   line of standard output is the result object; everything before it
   is a human-readable log. run.py builds the program and starts this.

   --trace 0 measures the end-to-end metrics with no tracing at all.
   --trace 1 is a separate run that records spans around calls into
   each layer and prints the per-layer metrics instead. *)

module Json = Taqp_obs.Json
module Taqp = Taqp_core.Taqp
module Sched_journal = Taqp_sched.Sched_journal

exception Check_failed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Check_failed s)) fmt
let log fmt = Printf.printf (fmt ^^ "\n%!")

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }
let ms x = x *. 1e3

(* Peak resident set of a process, from /proc (MB). *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> fail "cannot read %s" path
  | s -> (
      String.split_on_char '\n' s
      |> List.find_map (fun l ->
             match String.split_on_char ':' l with
             | [ "VmHWM"; v ] -> Scanf.sscanf (String.trim v) "%d kB" (fun kb -> Some (float_of_int kb /. 1024.0))
             | _ -> None)
      |> function
      | Some mb -> mb
      | None -> fail "no VmHWM in %s" path)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let check_exact (w : Inputs.t) =
  Array.iter
    (fun (c : Inputs.cls) ->
      let got = Taqp.count_exact w.catalog c.query in
      if got <> c.exact then
        fail "%s/%s: count_exact %d <> Paper_setup.exact %d" w.name c.label got c.exact)
    w.classes

(* Set up [setup_reps] times from scratch and report the median time.
   Each repetition first drops the previous copy and collects the heap,
   untimed, so no repetition pays for the garbage of the one before. *)
let setup_reps = 11

let timed_setup f =
  let times = Array.make setup_reps 0.0 and last = ref None in
  for i = 0 to setup_reps - 1 do
    last := None;
    Gc.full_major ();
    let t0 = Spans.now_ns () in
    let x = f i in
    times.(i) <- Spans.since_s t0;
    last := Some x
  done;
  let q1, q2, q3 = Stats.quartiles times in
  log "  set-up x%d: quartiles %.4f / %.4f / %.4f s" setup_reps q1 q2 q3;
  (Option.get !last, Stats.median times)

(* ---- closed loop ---------------------------------------------------- *)

let warmup_requests = 50

(* Requests 0..49, over and over for a second: the timed requests
   start at 50 whatever the host's speed, so the answers a run checks
   depend only on the seed and on how many requests it reached. *)
let warm_up (w : Inputs.t) =
  let t0 = Spans.now_ns () in
  while Spans.since_s t0 < 1.0 do
    ignore (Closed.run ~count:warmup_requests ~seconds:1.0 ~first:0 w (Closed.untraced w))
  done

(* p99 needs 1000 samples (ten beyond it); closed runs extend to that. *)
let min_samples = 1000

let tail_check n what =
  match Stats.highest_tail n with
  | Some p when p >= 99.0 -> ()
  | _ -> fail "only %d %s: p99 needs at least %d" n what min_samples

let check_pass p = match Closed.check_answers p with Ok () -> () | Error e -> fail "%s" e

let closed_e2e (w : Inputs.t) ~seconds ~setup_s =
  warm_up w;
  let p = Closed.run ~min_n:min_samples ~seconds ~first:warmup_requests w (Closed.untraced w) in
  check_pass p;
  let lat = Closed.latencies p in
  let n = Array.length lat in
  tail_check n "requests";
  log "%s: %d requests answered in %.3f s, 0 failed" w.name n (Closed.elapsed p);
  let rate win = float_of_int (Array.length win) /. Array.fold_left ( +. ) 0.0 win in
  log "  throughput by window: %s"
    (String.concat " "
       (Array.to_list (Array.map (fun win -> Printf.sprintf "%.1f" (rate win)) (Stats.windows ~k:10 lat))));
  ( n,
    [
      m "setup_s" "s" setup_s;
      m "throughput_qps" "1/s" (Stats.windowed ~k:10 rate lat);
      m "latency_ms_p50" "ms" (ms (Stats.windowed_percentile lat 50.0));
      m "latency_ms_p95" "ms" (ms (Stats.windowed_percentile lat 95.0));
      m "latency_ms_p99" "ms" (ms (Stats.windowed_percentile lat 99.0));
      m "peak_rss_mb" "MB" (peak_rss_mb "self");
      m "rel_error_p50" "ratio" (Stats.median (Closed.rel_errors p));
      m "ci_coverage" "ratio" (Closed.coverage p);
      m "overspend_rate" "ratio" (Closed.overspend_rate p);
    ] )

(* ---- socket runs ----------------------------------------------------- *)

(* The traced run serves the workload's own job stream over the socket
   at two light fixed rates (jobs per wall second, seconds held), for the
   client, load-generator and serving metrics. *)
let socket_plan (w : Inputs.t) =
  if w.name = "paper_mix" then [ (250.0, 1.5); (500.0, 1.5) ] else [ (8.0, 3.0); (16.0, 3.0) ]

(* A rate step meets the limit when its p99 is within this latency and
   the generator did not fall further behind; the log marks each step. *)
let latency_limit_s = 0.025
let lag_limit_s = 0.001

type step = { rate : float; jobs : Openloop.job array }

let refused (j : Openloop.job) = j.Openloop.door_refused || j.Openloop.admission_refused

(* Due-to-answer wall time; a refused job never meets the limit. *)
let latency (j : Openloop.job) = if refused j then infinity else j.Openloop.terminal -. j.Openloop.due

let lag (j : Openloop.job) = j.Openloop.sent -. j.Openloop.due

(* Mean send lag of the step's second half minus its first half. *)
let lag_growth jobs =
  let n = Array.length jobs in
  let mean a b =
    let s = ref 0.0 in
    for i = a to b - 1 do s := !s +. lag jobs.(i) done;
    !s /. float_of_int (max 1 (b - a))
  in
  mean (n / 2) n -. mean 0 (n / 2)

let step_ok st =
  Stats.percentile (Array.map latency st.jobs) 99.0 <= latency_limit_s
  && lag_growth st.jobs <= lag_limit_s

let missed (j : Openloop.job) =
  refused j || match j.Openloop.result with Some d -> d.Sched_journal.d_missed | None -> false

let count f a = Array.fold_left (fun n x -> if f x then n + 1 else n) 0 a
let answered (j : Openloop.job) = j.Openloop.result <> None

let log_step st =
  let lat = Array.map latency st.jobs in
  log "  rate %6.0f/s: n %5d p50 %8.3f ms p99 %8.3f ms refused %4d missed %4d lag p99 %.3f ms growth %.3f ms%s"
    st.rate (Array.length st.jobs) (ms (Stats.percentile lat 50.0)) (ms (Stats.percentile lat 99.0))
    (count refused st.jobs) (count missed st.jobs)
    (ms (Stats.percentile (Array.map lag st.jobs) 99.0))
    (ms (lag_growth st.jobs))
    (if step_ok st then "" else "  (misses the limit)")

(* Relative error of every served estimate. Every RESULT of a
   completed job carries a finite estimate. *)
let served_errors (w : Inputs.t) all =
  Array.to_list all
  |> List.filter_map (fun (j : Openloop.job) ->
         match j.Openloop.result with
         | None -> None
         | Some d -> (
             match (d.Sched_journal.d_outcome, d.Sched_journal.d_estimate) with
             | ("rejected" | "expired"), _ -> None
             | _, Some e when Float.is_finite e ->
                 let exact = float_of_int w.classes.(w.pick j.Openloop.index).Inputs.exact in
                 Some (Float.abs (e -. exact) /. Float.max 1.0 exact)
             | o, _ -> fail "RESULT for request %d (%s) has no finite estimate" j.Openloop.index o))
  |> Array.of_list

type session = {
  steps : step list;
  all : Openloop.job array;
  errors : float array;
}

(* Offer every step to a running server, drain it, check that the
   replies reconcile, and reap the server. *)
let socket_session (w : Inputs.t) (srv : Openloop.server) plan =
  let conns = [ Openloop.connect srv.Openloop.port; Openloop.connect srv.Openloop.port ] in
  let r = Openloop.create_run () in
  let first = ref 0 in
  let steps =
    List.map
      (fun (rate, hold) ->
        let n = int_of_float (rate *. hold) in
        let jobs = Openloop.step r conns ~line:(Inputs.job_line w) ~first:!first ~rate ~n ~settle:30.0 in
        first := !first + n;
        { rate; jobs })
      plan
  in
  let summary = Openloop.drain r conns in
  List.iter (fun c -> Unix.close c.Openloop.fd) conns;
  let all = Array.concat (List.map (fun s -> s.jobs) steps) in
  Openloop.reconcile all summary;
  (match Openloop.reap srv ~timeout:10.0 with
  | Some (Unix.WEXITED (0 | 1)) -> ()
  | _ -> fail "server did not exit cleanly after DRAIN");
  let errors = served_errors w all in
  if Array.length errors = 0 then fail "no served answer carried an estimate";
  List.iter log_step steps;
  log "  %d attempted, %d answered, %d refused, 0 failed" (Array.length all) (count answered all)
    (count refused all);
  { steps; all; errors }

(* Set-up here is making the inputs and writing them as the server's
   CSVs, timed like the untraced run's; the one server is started after
   the timing, over the last copy. *)
let with_server ~cli ~work ~name ~seed f =
  let (w, dir), setup_s =
    timed_setup (fun i ->
        let w = Inputs.make name ~seed in
        let dir = Filename.concat work (Printf.sprintf "setup%d" i) in
        Sys.mkdir dir 0o755;
        Inputs.write_csv w dir;
        (w, dir))
  in
  let srv = Openloop.start ~cli ~dir ~tag:"serve" in
  Fun.protect ~finally:(fun () -> Openloop.kill srv) (fun () -> f w srv setup_s)

let socket_metrics (s : session) =
  let queued = List.filter (fun (j : Openloop.job) -> j.Openloop.id <> None) (Array.to_list s.all) in
  let arr f l = Array.of_list (List.map f l) in
  let n = float_of_int (Array.length s.all) in
  [
    m "client.queued_rtt_ms_p50" "ms"
      (ms (Stats.percentile (arr (fun (j : Openloop.job) -> j.Openloop.replied -. j.Openloop.sent) queued) 50.0));
    m "client.result_wait_ms_p99" "ms"
      (ms
         (Stats.percentile
            (arr (fun (j : Openloop.job) -> j.Openloop.terminal -. j.Openloop.replied) (List.filter answered queued))
            99.0));
    m "load.send_lag_ms_p99" "ms" (ms (Stats.percentile (Array.map lag s.all) 99.0));
    m "serve.top_rate_latency_ms_p50" "ms"
      (ms (Stats.percentile (Array.map latency (List.nth s.steps (List.length s.steps - 1)).jobs) 50.0));
    m "serve.deadline_miss_rate" "ratio" (float_of_int (count missed s.all) /. n);
    m "serve.refused_frac" "ratio" (float_of_int (count refused s.all) /. n);
    m "serve.rel_error_p50" "ratio" (Stats.median s.errors);
  ]

(* ---- traced run -------------------------------------------------------- *)

(* Sizes of the traced probes: jobs through the in-process engine, and
   requests timed at one and at two domains. *)
let engine_jobs (w : Inputs.t) = if w.name = "deep_join" then 72 else 400
let speedup_requests (w : Inputs.t) = if w.name = "deep_join" then 120 else 1000

let traced ~cli ~work ~name ~seed ~seconds =
  with_server ~cli ~work ~name ~seed (fun w srv setup_s ->
      check_exact w;
      let session = socket_session w srv (socket_plan w) in
      let sp = Spans.create () in
      warm_up w;
      let u, t = Closed.paired sp w ~first:warmup_requests ~seconds:(seconds /. 3.0) ~min_n:20 in
      let n = u.Closed.n in
      check_pass u;
      check_pass t;
      let du = Closed.digest u and dt = Closed.digest t in
      if du <> dt then fail "tracing changed the answers: digest %s untraced, %s traced" du dt;
      log "  %d requests each run untraced and traced: answer digest %s both times" n du;
      let layers =
        Layers.run sp w ~work ~engine_jobs:(engine_jobs w) ~speedup_first:warmup_requests
          ~speedup_count:(speedup_requests w)
      in
      let spans = Spans.spans sp in
      List.iter
        (fun (name, k, tot, self) ->
          log "  span %-28s n %7d total %10.3f ms self %10.3f ms" name k (ms tot) (ms self))
        (Spans.table spans);
      let med name = Stats.median (Spans.durations spans name) in
      let fn = float_of_int n in
      let metrics =
        [
          m "workload.gen_s" "s" setup_s;
          m "executor.start_us" "us" (1e6 *. med "executor.start");
          m "executor.step_us" "us" (1e6 *. med "executor.step");
          m "executor.steps_per_query" "count"
            (float_of_int (Array.length (Spans.durations spans "executor.step")) /. fn);
          m "io.blocks_per_query" "count" (float_of_int t.Closed.blocks /. fn);
          m "gc.minor_words_per_query" "words" (u.Closed.minor_words /. fn);
          m "gc.major_collections_per_1k" "count" (1000.0 *. float_of_int u.Closed.major_collections /. fn);
          m "tracer.overhead_frac" "ratio" (1.0 -. (Closed.throughput t /. Closed.throughput u));
        ]
        @ List.map (fun (name, unit_, value) -> m name unit_ value) layers
        @ socket_metrics session
      in
      (Array.length session.all + (2 * n), metrics))

(* ---- main ---------------------------------------------------------------- *)

let result_json ~attempted metrics =
  Json.Obj
    [
      ("correct", Json.Bool true);
      ("attempted", Json.Num (float_of_int attempted));
      ("failed", Json.Num 0.0);
      ( "metrics",
        Json.Obj
          (List.map
             (fun x -> (x.name, Json.Obj [ ("value", Json.Num x.value); ("unit", Json.Str x.unit_) ]))
             metrics) );
    ]

let usage () =
  prerr_endline "usage: harness --workload NAME --seed N --seconds S --trace 0|1 --cli PATH --work DIR";
  exit 2

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0.0 and trace = ref (-1) in
  let cli = ref "" and work = ref "" in
  let rec parse = function
    | "--workload" :: v :: r -> workload := v; parse r
    | "--seed" :: v :: r -> seed := int_of_string v; parse r
    | "--seconds" :: v :: r -> seconds := float_of_string v; parse r
    | "--trace" :: v :: r -> trace := int_of_string v; parse r
    | "--cli" :: v :: r -> cli := v; parse r
    | "--work" :: v :: r -> work := v; parse r
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if (not (List.mem !workload Inputs.names)) || !seed < 0 || !seconds <= 0.0
     || (!trace <> 0 && !trace <> 1) || !cli = "" || !work = ""
  then usage ();
  (match Stats.self_test () with
  | [] -> ()
  | fails ->
      prerr_endline ("harness statistics self-test failed: " ^ String.concat ", " fails);
      exit 3);
  log "workload %s seed %d seconds %g trace %d | nproc %d | OCaml %s" !workload !seed !seconds !trace
    (Domain.recommended_domain_count ()) Sys.ocaml_version;
  let result =
    try
      rm_rf !work;
      (try Sys.mkdir (Filename.dirname !work) 0o755 with Sys_error _ -> ());
      Sys.mkdir !work 0o755;
      Fun.protect
        ~finally:(fun () -> rm_rf !work)
        (fun () ->
          let attempted, metrics =
            match (!trace, !workload) with
            | 1, name -> traced ~cli:!cli ~work:!work ~name ~seed:!seed ~seconds:!seconds
            | _, name ->
                let w, setup_s = timed_setup (fun _ -> Inputs.make name ~seed:!seed) in
                check_exact w;
                closed_e2e w ~seconds:!seconds ~setup_s
          in
          List.iter
            (fun x ->
              if not (Stats.valid_name x.name && Float.is_finite x.value) then
                fail "bad metric %s = %g" x.name x.value)
            metrics;
          Ok (attempted, metrics))
    with Check_failed msg | Openloop.Failed msg -> Error msg
  in
  match result with
  | Error msg ->
      prerr_endline ("check failed: " ^ msg);
      exit 1
  | Ok (attempted, metrics) ->
      List.iter (fun x -> log "  %-32s %16.6f %s" x.name x.value x.unit_) metrics;
      print_endline (Json.to_string (result_json ~attempted metrics))
