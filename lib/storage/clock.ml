module Tracer = Taqp_obs.Tracer
module Event = Taqp_obs.Event

type deadline_mode = [ `Abort | `Observe ]

type kind = Virtual | Wall

(* All-float, so the record is stored flat: [charge] overwrites [vnow]
   in place with no boxed float and no write barrier. [start] is the
   wall clock's origin; a virtual clock ignores it. *)
type times = { mutable vnow : float; start : float }

type t = {
  kind : kind;
  times : times;
  mutable deadline : float option;
  mutable mode : deadline_mode;
  mutable tracer : Tracer.t;
}

exception Deadline_exceeded of { now : float; deadline : float }

(* CLOCK_MONOTONIC: never steps backwards, unlike the time of day. *)
let monotonic () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let create kind start =
  {
    kind;
    times = { vnow = 0.0; start };
    deadline = None;
    mode = `Observe;
    tracer = Tracer.disabled;
  }

let create_virtual () = create Virtual 0.0
let create_wall () = create Wall (monotonic ())

let set_tracer t tracer = t.tracer <- tracer
let tracer t = t.tracer

let is_virtual t = match t.kind with Virtual -> true | Wall -> false

let now t =
  match t.kind with
  | Virtual -> t.times.vnow
  | Wall -> monotonic () -. t.times.start

(* The timer-interrupt service routine: stamp the abort on the trace at
   the exact clock value it fired at, then raise. Reading the clock for
   the event does not charge it. *)
let abort t ~now ~deadline =
  Tracer.instant t.tracer ~cat:"clock" ~ts:now
    ~args:[ ("deadline", Event.Float deadline) ]
    "deadline.abort";
  raise (Deadline_exceeded { now; deadline })

let check_deadline t =
  match (t.deadline, t.mode) with
  | Some d, `Abort when now t > d -> abort t ~now:(now t) ~deadline:d
  | _, _ -> ()

let charge t dt =
  if dt < 0.0 then invalid_arg "Clock.charge: negative charge";
  match t.kind with
  | Virtual -> (
      let v = t.times in
      match (t.deadline, t.mode) with
      | Some d, `Abort when v.vnow +. dt > d ->
          (* The timer interrupt fires mid-operation, exactly at the
             deadline: the remainder of the charge is never performed. *)
          v.vnow <- d;
          abort t ~now:d ~deadline:d
      | _, _ -> v.vnow <- v.vnow +. dt)
  | Wall -> check_deadline t

let arm t ~mode ~at =
  t.deadline <- Some at;
  t.mode <- mode;
  Tracer.instant t.tracer ~cat:"clock"
    ~args:
      [
        ("at", Event.Float at);
        ( "mode",
          Event.String (match mode with `Abort -> "abort" | `Observe -> "observe")
        );
      ]
    "deadline.armed"

let disarm t = t.deadline <- None

let deadline t = t.deadline

let armed t =
  match t.deadline with None -> None | Some at -> Some (t.mode, at)

let remaining t =
  match t.deadline with None -> None | Some d -> Some (d -. now t)

let expired t = match t.deadline with None -> false | Some d -> now t > d

let sleep_until t at =
  match t.kind with
  | Virtual -> (
      let v = t.times in
      match (t.deadline, t.mode) with
      | Some d, `Abort when v.vnow > d ->
          (* The deadline had already passed when the sleeper called in:
             the interrupt is pending, so it fires immediately — even
             for a zero-length (or backwards) sleep target, which would
             otherwise return without ever recording [deadline.abort]. *)
          abort t ~now:v.vnow ~deadline:d
      | Some d, `Abort when at > d ->
          (* The interrupt fires while the process is asleep: wake at
             the deadline, not at [at]. *)
          if d > v.vnow then v.vnow <- d;
          abort t ~now:v.vnow ~deadline:d
      | _, _ -> if at > v.vnow then v.vnow <- at)
  | Wall ->
      while now t < at do
        ignore (Sys.opaque_identity ())
      done;
      check_deadline t

(* ------------------------------------------------------------------ *)
(* Recovery: both restore operations are deliberately silent — the
   resumed process replays nothing, so it must also emit nothing that
   an uninterrupted run would not have emitted at this point. *)

let restore t ~now:at =
  match t.kind with
  | Virtual -> t.times.vnow <- at
  | Wall -> invalid_arg "Clock.restore: wall clock cannot be restored"

let restore_deadline t ~mode ~at =
  t.deadline <- Some at;
  t.mode <- mode
