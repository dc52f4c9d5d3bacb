(* Closed loop, one in-process caller: request k+1 is issued when
   request k has returned. The untraced pass calls the front door
   [Taqp.count_within]; the traced pass performs the same evaluation
   through [Executor.start]/[Executor.step] on an identically built
   device (that is exactly what [count_within] runs), with a span
   around each call, so the two passes must agree bit for bit. *)

module Taqp = Taqp_core.Taqp
module Executor = Taqp_core.Executor
module Report = Taqp_core.Report
module Confidence = Taqp_stats.Confidence
module Prng = Taqp_rng.Prng
module Clock = Taqp_storage.Clock
module Device = Taqp_storage.Device
module Cost_params = Taqp_storage.Cost_params

(* What the harness keeps of a pass: each request's wall time and
   relative error as unboxed floats, and running counts. Holding the
   reports, or a record per request, would grow the heap with the number
   of requests a run reaches, so the process's peak memory would follow
   the host's speed instead of the program's own footprint. *)
type pass = {
  w : Inputs.t;
  first : int;  (** index of the first timed request *)
  mutable n : int;
  mutable lat : Float.Array.t;  (** wall seconds per request; capacity >= n *)
  mutable err : Float.Array.t;  (** |estimate - exact| / max(1, exact) *)
  mutable covered : int;  (** answers whose CI holds the exact count *)
  mutable overspent : int;
  mutable non_finite : int;  (** answers with a non-finite estimate or CI *)
  mutable blocks : int;
  mutable digest : Digest.t;  (** of every (estimate, CI, outcome), in order *)
  mutable minor_words : float;
  mutable major_collections : int;
}

let create w ~first =
  { w; first; n = 0; lat = Float.Array.create 1024; err = Float.Array.create 1024; covered = 0;
    overspent = 0; non_finite = 0; blocks = 0; digest = Digest.string ""; minor_words = 0.0;
    major_collections = 0 }

let push a n x =
  let a =
    if n < Float.Array.length a then a
    else begin
      let b = Float.Array.create (2 * n) in
      Float.Array.blit a 0 b 0 n;
      b
    end
  in
  Float.Array.set a n x;
  a

let record p ~latency (r : Report.t) =
  let c = r.Report.confidence in
  let exact = float_of_int p.w.classes.(p.w.pick (p.first + p.n)).Inputs.exact in
  p.lat <- push p.lat p.n latency;
  p.err <- push p.err p.n (Float.abs (r.Report.estimate -. exact) /. Float.max 1.0 exact);
  p.n <- p.n + 1;
  if Confidence.contains c exact then p.covered <- p.covered + 1;
  (* the paper's risk: the last stage ran into the hard deadline *)
  if r.Report.outcome = Report.Aborted_mid_stage then p.overspent <- p.overspent + 1;
  if not (Float.is_finite r.Report.estimate && Float.is_finite c.Confidence.center
          && Float.is_finite c.Confidence.half_width)
  then p.non_finite <- p.non_finite + 1;
  p.blocks <- p.blocks + r.Report.blocks_read;
  p.digest <-
    Digest.string
      (Printf.sprintf "%s %h %h %h %s" p.digest r.Report.estimate c.Confidence.center
         c.Confidence.half_width (Report.outcome_name r.Report.outcome))

let latencies p = Array.init p.n (Float.Array.get p.lat)
let rel_errors p = Array.init p.n (Float.Array.get p.err)
let elapsed p = Float.Array.fold_left ( +. ) 0.0 (Float.Array.sub p.lat 0 p.n)
let share p k = float_of_int k /. float_of_int p.n
let coverage p = share p p.covered
let overspend_rate p = share p p.overspent
let throughput p = float_of_int p.n /. elapsed p
let digest p = Digest.to_hex p.digest

(* Every answer carries a finite estimate and interval. *)
let check_answers p =
  if p.non_finite > 0 then
    Error (Printf.sprintf "%s: %d of %d answers have a non-finite estimate or CI" p.w.Inputs.name
             p.non_finite p.n)
  else Ok ()

let untraced (w : Inputs.t) k =
  let c = w.classes.(w.pick k) in
  Taqp.count_within ~config:c.config ~seed:(Inputs.request_seed w k) w.catalog
    ~quota:c.quota c.query

let traced sp (w : Inputs.t) k =
  let c = w.classes.(w.pick k) in
  Spans.span sp "query" (fun () ->
      let rng = Prng.create (Inputs.request_seed w k) in
      let clock = Clock.create_virtual () in
      let device =
        Device.create ~params:Cost_params.default ~jitter_rng:(Prng.split rng) clock
      in
      let h =
        Spans.span sp "executor.start" (fun () ->
            Executor.start ~config:c.config ~device ~catalog:w.catalog ~rng
              ~quota:c.quota c.query)
      in
      let rec loop () =
        match Spans.span sp "executor.step" (fun () -> Executor.step h) with
        | `Continue -> loop ()
        | `Done r -> r
      in
      loop ())

(* Run requests [first], [first+1], ... until [seconds] of wall time
   have passed and at least [min_n] requests completed (or exactly
   [count] requests, when given). *)
let run ?count ?(min_n = 0) ~seconds ~first w call =
  let p = create w ~first in
  let g0 = Gc.quick_stat () in
  let t0 = Spans.now_ns () in
  let continue () =
    match count with
    | Some c -> p.n < c
    | None -> p.n < min_n || Spans.since_s t0 < seconds
  in
  while continue () do
    let t = Spans.now_ns () in
    let r = call (first + p.n) in
    record p ~latency:(Spans.since_s t) r
  done;
  let g1 = Gc.quick_stat () in
  p.minor_words <- g1.Gc.minor_words -. g0.Gc.minor_words;
  p.major_collections <- g1.Gc.major_collections - g0.Gc.major_collections;
  p

(* Each request run both untraced and traced, back to back, the order
   alternating between requests: drift over the run (heap growth, the
   other process on the host) and the warm caches the first of the two
   leaves fall on both passes alike. Runs for [seconds] and at least
   [min_n] requests. *)
let paired sp w ~first ~seconds ~min_n =
  let u = create w ~first and t = create w ~first in
  let untraced_timed k =
    let g0 = Gc.quick_stat () in
    let a = Spans.now_ns () in
    let r = untraced w k in
    let d = Spans.since_s a in
    let g1 = Gc.quick_stat () in
    u.minor_words <- u.minor_words +. (g1.Gc.minor_words -. g0.Gc.minor_words);
    u.major_collections <- u.major_collections + (g1.Gc.major_collections - g0.Gc.major_collections);
    record u ~latency:d r
  in
  let traced_timed k =
    let a = Spans.now_ns () in
    let r = traced sp w k in
    record t ~latency:(Spans.since_s a) r
  in
  let t0 = Spans.now_ns () in
  while u.n < min_n || Spans.since_s t0 < seconds do
    let k = first + u.n in
    if Inputs.mix 0 k land 1 = 0 then (untraced_timed k; traced_timed k)
    else (traced_timed k; untraced_timed k)
  done;
  (u, t)
