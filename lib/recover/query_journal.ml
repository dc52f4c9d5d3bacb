module Clock = Taqp_storage.Clock
module Device = Taqp_storage.Device
module Metrics = Taqp_obs.Metrics
module Tracer = Taqp_obs.Tracer
module Executor = Taqp_core.Executor
module Injector = Taqp_fault.Injector

let tag_meta = 1

(* Tag 2 framed the earlier checkpoint layout, whose binary-node state
   also carried per-path progress counters; such records are refused
   rather than misread. *)
let tag_checkpoint = 3

type t = {
  writer : Journal.writer;
  device : Device.t;
  meta : Checkpoint.meta;
  c_checkpoints : Metrics.Counter.t;
  c_bytes : Metrics.Counter.t;
}

let meta t = t.meta
let path t = Journal.path t.writer

let create ~path ~device m =
  let writer = Journal.create path in
  Journal.append writer
    (Codec.to_string
       (fun b m ->
         Codec.u8 b tag_meta;
         Checkpoint.meta b m)
       m);
  let metrics = Device.metrics device in
  {
    writer;
    device;
    meta = m;
    c_checkpoints = Metrics.counter metrics "recover.checkpoints";
    c_bytes = Metrics.counter metrics "recover.checkpoint_bytes";
  }

let close t = Journal.close t.writer

let encode_checkpoint (c : Checkpoint.checkpoint) =
  Codec.to_string
    (fun b c ->
      Codec.u8 b tag_checkpoint;
      Checkpoint.checkpoint b c)
    c

let checkpoint t handle =
  let clock = Device.clock t.device in
  let snap = Executor.snapshot handle in
  let dev = Device.dump t.device in
  (* Size the record with a placeholder timestamp (floats are fixed
     width, so the real record is byte-for-byte the same size), charge
     the write to the clock, and only then read the clock for the
     checkpoint instant: [c_at] is the time the checkpoint *completed*,
     which is exactly where a boundary-exact resume restores the clock
     to. If the deadline fires during the charge the clock pins at the
     deadline and the record is still written — the resumed run's next
     step then deterministically finalizes Quota_exhausted, the same
     way the uninterrupted run's would. *)
  let sized =
    encode_checkpoint { Checkpoint.c_at = 0.0; c_exec = snap; c_device = dev }
  in
  let bytes = String.length sized + Journal.frame_overhead in
  let t0 = Clock.now clock in
  (try Device.journal_write t.device ~bytes
   with Clock.Deadline_exceeded _ -> ());
  let at = Clock.now clock in
  Journal.append t.writer
    (encode_checkpoint { Checkpoint.c_at = at; c_exec = snap; c_device = dev });
  Metrics.Counter.incr t.c_checkpoints;
  Metrics.Counter.add t.c_bytes bytes;
  let tracer = Device.tracer t.device in
  if Tracer.enabled tracer then
    Tracer.complete tracer ~cat:"recover" ~begin_ts:t0 "checkpoint"
      ~args:
        [
          ("bytes", Taqp_obs.Event.Int bytes);
          ("stage", Taqp_obs.Event.Int snap.Executor.snap_stages_completed);
        ]

(* ------------------------------------------------------------------ *)
(* Reading                                                              *)

type loaded = {
  l_meta : Checkpoint.meta;
  l_checkpoints : Checkpoint.checkpoint list;
  l_torn : string option;
}

let decode_meta payload =
  let d = Codec.decoder payload in
  match Codec.read_u8 d with
  | tag when tag = tag_meta ->
      let m = Checkpoint.read_meta d in
      if not (Codec.at_end d) then
        raise (Codec.Decode_error "trailing bytes after meta record");
      m
  | tag ->
      raise
        (Codec.Decode_error
           (Printf.sprintf "expected meta record (tag %d), found tag %d"
              tag_meta tag))

let decode_checkpoint payload =
  let d = Codec.decoder payload in
  match Codec.read_u8 d with
  | tag when tag = tag_checkpoint ->
      let c = Checkpoint.read_checkpoint d in
      if not (Codec.at_end d) then
        raise (Codec.Decode_error "trailing bytes after checkpoint record");
      c
  | tag ->
      raise
        (Codec.Decode_error
           (Printf.sprintf "expected checkpoint record (tag %d), found tag %d"
              tag_checkpoint tag))

let load path =
  match Journal.load path with
  | Error _ as e -> e
  | Ok { records = []; _ } ->
      Error (path ^ ": empty journal (no meta record)")
  | Ok { records = first :: rest; tail } -> (
      match
        let m = decode_meta first in
        let cps = List.map decode_checkpoint rest in
        (m, cps)
      with
      | m, cps ->
          Ok
            {
              l_meta = m;
              l_checkpoints = cps;
              l_torn =
                (match tail with
                | Journal.Clean -> None
                | Journal.Torn { at; reason } ->
                    Some (Printf.sprintf "torn tail at byte %d: %s" at reason));
            }
      | exception Codec.Decode_error m -> Error (path ^ ": " ^ m))

let resume_last ?sink ?metrics ?now ?selectivity_oracle ~catalog loaded =
  match List.rev loaded.l_checkpoints with
  | [] -> Error "journal has no checkpoints: nothing to resume"
  | last :: _ ->
      let m = loaded.l_meta in
      let now = Option.value now ~default:last.Checkpoint.c_at in
      if now < last.Checkpoint.c_at then
        Error
          (Printf.sprintf
             "resume instant %g precedes the checkpoint instant %g" now
             last.Checkpoint.c_at)
      else begin
        let clock = Clock.create_virtual () in
        Clock.restore clock ~now;
        let tracer =
          match sink with
          | None -> None
          | Some sink ->
              Some (Tracer.make ~now:(fun () -> Clock.now clock) ~sink)
        in
        (* Streams are created with dummy seeds purely so the device
           has the right shape; [Device.restore] overwrites every
           stream position from the checkpoint. *)
        let jitter_rng =
          Option.map
            (fun _ -> Taqp_rng.Prng.create 0)
            last.Checkpoint.c_device.Device.d_jitter
        in
        let faults =
          Option.map
            (fun _ -> Injector.create ~seed:m.Checkpoint.m_fault_seed
                        m.Checkpoint.m_fault_plan)
            last.Checkpoint.c_device.Device.d_faults
        in
        let device =
          Device.create ~params:m.Checkpoint.m_params ?jitter_rng ?metrics
            ?tracer ?faults clock
        in
        Device.restore device last.Checkpoint.c_device;
        (* A resumed process never re-creates its own killer: pending
           Crash rules are skipped (without consuming a Bernoulli draw)
           so recovery cannot crash-loop on the same deterministic
           fault. All other fault kinds keep firing as planned. *)
        Option.iter Injector.disable_crashes (Device.fault_injector device);
        let dirty = now > last.Checkpoint.c_at in
        let handle =
          Executor.resume ~device ~catalog ?selectivity_oracle ~dirty
            last.Checkpoint.c_exec
        in
        let registry = Device.metrics device in
        Metrics.Counter.incr (Metrics.counter registry "recover.resumes");
        if loaded.l_torn <> None then
          Metrics.Counter.incr
            (Metrics.counter registry "recover.torn_records");
        Ok (device, handle)
      end
