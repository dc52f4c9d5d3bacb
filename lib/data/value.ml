type t =
  | Int of int
  | Float of float
  | String of string
  | Bool of bool
  | Null

type ty = Tint | Tfloat | Tstring | Tbool

let type_of = function
  | Int _ -> Some Tint
  | Float _ -> Some Tfloat
  | String _ -> Some Tstring
  | Bool _ -> Some Tbool
  | Null -> None

let ty_name = function
  | Tint -> "int"
  | Tfloat -> "float"
  | Tstring -> "string"
  | Tbool -> "bool"

(* Rank used to order values of distinct kinds; numerics share a rank so
   that cross-type numeric comparison is consistent with [equal]. *)
let rank = function
  | Null -> 0
  | Bool _ -> 1
  | Int _ | Float _ -> 2
  | String _ -> 3

let compare a b =
  match (a, b) with
  | Null, Null -> 0
  | Bool x, Bool y -> Bool.compare x y
  | Int x, Int y -> Int.compare x y
  | Float x, Float y -> Float.compare x y
  | Int x, Float y -> Float.compare (float_of_int x) y
  | Float x, Int y -> Float.compare x (float_of_int y)
  | String x, String y -> String.compare x y
  | _, _ -> Int.compare (rank a) (rank b)

let equal a b = compare a b = 0

(* The 64-bit murmur3 finalizer with its constants cut to OCaml's int
   width: every input bit reaches the low bits a hash table indexes by. *)
let mix h =
  let h = h lxor (h lsr 33) in
  let h = h * 0x3f51afd7ed558ccd in
  let h = h lxor (h lsr 33) in
  let h = h * 0x04ceb9fe1a85ec53 in
  h lxor (h lsr 33)

(* Consistent with [compare]: a float equal to an int hashes as that
   int, every NaN hashes alike, and an int too large for a float to
   hold exactly hashes as the float it compares equal to. Nothing here
   boxes or calls out of OCaml except the string case. *)
let[@inline] hash_float f =
  if Float.is_integer f && Float.abs f < 0x1p62 then mix (int_of_float f)
  else if Float.is_nan f then 0x2f
  else mix (Int64.to_int (Int64.bits_of_float f))

let hash = function
  | Null -> 17
  | Bool b -> if b then 31 else 37
  | Int i when i >= -0x20000000000000 && i <= 0x20000000000000 -> mix i
  | Int i -> hash_float (float_of_int i)
  | Float f -> hash_float f
  | String s -> Hashtbl.hash s

let byte_size = function
  | Int _ | Float _ -> 8
  | Bool _ | Null -> 1
  | String s -> String.length s

let is_null = function Null -> true | Int _ | Float _ | String _ | Bool _ -> false

let to_int = function
  | Int i -> Some i
  | Float _ | String _ | Bool _ | Null -> None

let to_float = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | String _ | Bool _ | Null -> None

let pp ppf = function
  | Int i -> Fmt.int ppf i
  | Float f -> Fmt.float ppf f
  | String s -> Fmt.pf ppf "%S" s
  | Bool b -> Fmt.bool ppf b
  | Null -> Fmt.string ppf "null"

let to_string v = Fmt.str "%a" pp v
