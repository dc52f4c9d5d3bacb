(** Seeded, splittable pseudo-random number generator.

    Implementation: xoshiro256** seeded through splitmix64. Deterministic
    for a given seed, so every experiment in the repository is exactly
    reproducible. Not cryptographically secure.

    A draw updates the state in place without allocating: {!int},
    {!bool} and {!int_in} allocate nothing, and the float draws box
    only the float they return. *)

type t

val create : int -> t
(** Generator seeded from an integer. Equal seeds give equal streams. *)

val split : t -> t
(** A new generator whose stream is independent of the parent's
    subsequent output. Advances the parent. *)

val copy : t -> t

val bits64 : t -> int64
(** Next 64 uniformly random bits. *)

val int : t -> int -> int
(** [int t n] is uniform on [0, n). @raise Invalid_argument if [n <= 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform on [lo, hi] inclusive. *)

val float : t -> float -> float
(** [float t x] is uniform on [0, x). *)

val bool : t -> bool

val gaussian : ?mu:float -> ?sigma:float -> t -> float
(** Normal deviate by Box–Muller (polar form). Defaults mu=0, sigma=1. *)

val exponential : t -> float -> float
(** [exponential t lambda] with mean [1/lambda]. *)

val lognormal_factor : t -> float -> float
(** [lognormal_factor t s] is [exp (gaussian ~sigma:s)] with the mean
    corrected to 1.0 — a multiplicative jitter factor. *)

(** {2 Checkpointing}

    The full xoshiro256** state, exposed so a crash-safe checkpoint can
    record the exact stream position and a recovery can resume drawing
    from it ({!Taqp_recover}). *)

type state = int64 * int64 * int64 * int64

val state : t -> state

val set_state : t -> state -> unit
(** Overwrite the generator's stream position in place. After
    [set_state t (state t')] the two generators produce identical
    subsequent streams. *)
