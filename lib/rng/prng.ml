(* The xoshiro256** state words s0..s3, little-endian at byte offsets 0,
   8, 16 and 24. A generator lives as long as its query and is drawn
   from on every jittered charge: mutable [int64] record fields would
   box a fresh Int64 on each write (and pay a write barrier for it),
   while reads and writes of a byte buffer stay unboxed. *)
type t = Bytes.t

let[@inline] get t i = Bytes.get_int64_le t (8 * i)
let[@inline] set t i v = Bytes.set_int64_le t (8 * i) v

(* splitmix64, used only to expand the integer seed into xoshiro state. *)
let splitmix_next state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let of_splitmix seed =
  let state = ref seed in
  let t = Bytes.create 32 in
  for i = 0 to 3 do
    set t i (splitmix_next state)
  done;
  t

let create seed = of_splitmix (Int64.of_int seed)

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let[@inline] next t =
  let open Int64 in
  let s0 = get t 0 and s1 = get t 1 and s2 = get t 2 and s3 = get t 3 in
  let result = mul (rotl (mul s1 5L) 7) 9L in
  let tmp = shift_left s1 17 in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  let s1 = logxor s1 s2 in
  let s0 = logxor s0 s3 in
  set t 0 s0;
  set t 1 s1;
  set t 2 (logxor s2 tmp);
  set t 3 (rotl s3 45);
  result

let bits64 t = next t
let split t = of_splitmix (next t)
let copy = Bytes.copy

let[@inline] top62 t = Int64.to_int (Int64.shift_right_logical (next t) 2)

(* Uniform int in [0, n) by rejection on the top 62 bits, avoiding
   modulo bias. *)
let int t n =
  if n <= 0 then invalid_arg "Prng.int: bound must be positive";
  let bound = (max_int / n) * n in
  let v = ref (top62 t) in
  while !v >= bound do
    v := top62 t
  done;
  !v mod n

let int_in t lo hi =
  if hi < lo then invalid_arg "Prng.int_in: empty range";
  lo + int t (hi - lo + 1)

(* 53 random bits mapped to [0,1). *)
let[@inline] unit t =
  Int64.to_float (Int64.shift_right_logical (next t) 11) *. 0x1p-53

let float t x = x *. unit t

let bool t = Int64.logand (next t) 1L = 1L

(* Box–Muller, polar form: redraw the pair until it lies strictly inside
   the unit disc, then scale. *)
let[@inline] normal t mu sigma =
  let u = ref 0.0 and s = ref 0.0 in
  while
    u := (2.0 *. unit t) -. 1.0;
    let v = (2.0 *. unit t) -. 1.0 in
    s := (!u *. !u) +. (v *. v);
    !s >= 1.0 || !s = 0.0
  do
    ()
  done;
  mu +. (sigma *. !u *. sqrt (-2.0 *. log !s /. !s))

let gaussian ?(mu = 0.0) ?(sigma = 1.0) t = normal t mu sigma

let exponential t lambda =
  if lambda <= 0.0 then invalid_arg "Prng.exponential: rate must be positive";
  -.log (1.0 -. unit t) /. lambda

let lognormal_factor t s =
  if s <= 0.0 then 1.0 else exp (normal t 0.0 s -. (s *. s /. 2.0))

type state = int64 * int64 * int64 * int64

let state t = (get t 0, get t 1, get t 2, get t 3)

let set_state t (s0, s1, s2, s3) =
  set t 0 s0;
  set t 1 s1;
  set t 2 s2;
  set t 3 s3
