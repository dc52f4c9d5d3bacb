(** The query-processing clock.

    The paper's prototype (ERAM on a SUN 3/60) read the operating-system
    clock and armed a timer interrupt at the time quota. This module
    reproduces both faces of that mechanism behind one interface:

    - a {e virtual} clock advanced explicitly by the cost charges of the
      simulated storage engine — deterministic, fast, and the substrate
      for all experiments; and
    - a {e wall} clock backed by the host's monotonic time — for live
      use of the library on real workloads.

    A deadline may be armed on the clock; in [`Abort] mode, crossing it
    during a charge raises {!Deadline_exceeded}, simulating the timer
    interrupt service routine that flips the algorithm's
    Stopping-Criterion. In [`Observe] mode the crossing is recorded but
    execution continues — ERAM's experimental mode, which lets the
    overspend be measured (Section 5). *)

type t

exception Deadline_exceeded of { now : float; deadline : float }

val create_virtual : unit -> t
(** A virtual clock starting at time 0.0. *)

val create_wall : unit -> t
(** A wall clock; [now] is seconds since creation, read from the host's
    monotonic clock, so it never runs backwards when the time of day is
    stepped. [charge] only checks the deadline (wall time advances by
    itself). *)

val is_virtual : t -> bool

val now : t -> float
(** Seconds elapsed on this clock. *)

val charge : t -> float -> unit
(** [charge t dt] accounts [dt] seconds of work. On a virtual clock the
    time advances by [dt]; on a wall clock [dt] is ignored. If a
    deadline is armed in [`Abort] mode and the charge would cross it,
    the virtual clock stops exactly at the deadline (the timer
    interrupt fires mid-operation) and {!Deadline_exceeded} is raised;
    a wall clock raises on the first charge observed past the deadline.
    @raise Invalid_argument on negative [dt]. *)

type deadline_mode = [ `Abort | `Observe ]

val arm : t -> mode:deadline_mode -> at:float -> unit
(** Arm a deadline at absolute clock time [at], and record a
    [deadline.armed] instant on the attached tracer. At most one
    deadline is armed at a time: arming {e replaces} any previously
    armed deadline and mode — there is no deadline stack, and the
    replaced instant can never fire again.

    Recovery note ({!Taqp_recover}): a resumed run re-arms from the
    {e original} absolute deadline recorded in the journal, never from
    [now + quota] — crash downtime is lost quota, exactly as an
    absolute transaction deadline demands. It does so through
    {!restore_deadline} (silent), not [arm], so the resumed trace
    stream carries no second [deadline.armed] instant. This is what lets interleaved jobs share the clock — a
    job re-arms its own deadline at every stage boundary, and a
    finished job's deadline must be {!disarm}ed (the executor does this
    when it finalizes a report) so that a later [sleep_until] past the
    stale instant cannot raise on behalf of a job that no longer
    exists. *)

val disarm : t -> unit
(** Remove the armed deadline. After [disarm] (or after {!arm} with a
    new target), crossing the old instant never raises. *)

val deadline : t -> float option

val armed : t -> (deadline_mode * float) option
(** The currently armed deadline with its mode, if any — what a
    resumable executor compares against to re-arm only when another
    job's deadline (or none) is in place. *)

val remaining : t -> float option
(** Time left before the armed deadline (may be negative). *)

val expired : t -> bool
(** The armed deadline has passed (always [false] when disarmed). *)

val sleep_until : t -> float -> unit
(** Advance a virtual clock to an absolute time (no-op if already
    past); busy-waits a wall clock. Used to model idle waiting. If a
    deadline is armed in [`Abort] mode and the target time lies past
    it, the sleeper is interrupted: the clock stops at the deadline
    and {!Deadline_exceeded} is raised. If the deadline has already
    passed when [sleep_until] is called, the pending interrupt fires
    immediately — even for a zero-length sleep. *)

(** {2 Observability}

    A {!Taqp_obs.Tracer} may be attached to the clock; armed deadlines
    and timer-interrupt aborts are then recorded as instant events
    ([deadline.armed], [deadline.abort]) stamped at the exact clock
    value they occurred at. The tracer only ever {e reads} the clock —
    attaching one never changes the charge sequence. *)

val set_tracer : t -> Taqp_obs.Tracer.t -> unit
val tracer : t -> Taqp_obs.Tracer.t

(** {2 Recovery}

    Used only by {!Taqp_recover} when rebuilding a crashed process's
    device. Both are silent: they emit no trace events and perform no
    deadline checks, because resuming must be observationally neutral —
    the journal already contains everything the dead process emitted. *)

val restore : t -> now:float -> unit
(** Set a virtual clock to an absolute time (forwards or backwards —
    recovery lands exactly on the journaled instant).
    @raise Invalid_argument on a wall clock. *)

val restore_deadline : t -> mode:deadline_mode -> at:float -> unit
(** Exactly {!arm} minus the [deadline.armed] trace instant. *)
