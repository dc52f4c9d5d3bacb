(** Atomic attribute values stored in tuples.

    The 1989 prototype stored fixed-size tuples (200 bytes each in the
    experiments); [byte_size] reports the storage footprint a value
    contributes so that relations can reproduce the paper's blocking
    factor accounting. *)

type t =
  | Int of int
  | Float of float
  | String of string
  | Bool of bool
  | Null

(** The type of a value, used for schema checking. *)
type ty = Tint | Tfloat | Tstring | Tbool

val type_of : t -> ty option
(** [type_of v] is the type of [v], or [None] for [Null]. *)

val ty_name : ty -> string

val compare : t -> t -> int
(** Total order: [Null] sorts first, then bools, ints and floats
    (numerically, cross-type), then strings. *)

val equal : t -> t -> bool

val hash : t -> int
(** Consistent with {!equal}: values that compare equal hash alike, so
    [Int 3] and [Float 3.0] share a hash-table group. Allocates
    nothing. *)

val byte_size : t -> int
(** Storage footprint in bytes: 8 for numbers, 1 for bools and nulls,
    string length for strings. *)

val is_null : t -> bool

val to_int : t -> int option
val to_float : t -> float option
(** Numeric coercions; [Int] coerces to float, not vice versa. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
