type t = {
  k : int;
  init : float array;
  forgetting : float;
  (* Normal equations accumulated with exponential forgetting, plus a
     ridge anchor toward [init] so the estimate degrades gracefully to
     the designer-supplied constants when data is scarce. *)
  a : float array array;
  b : float array;
  ridge : float;
  mutable anchor_scale : float;
  mutable n : int;
  mutable cache : float array option;
}

let create ?(forgetting = 0.9) ~init () =
  let k = Array.length init in
  if k = 0 then invalid_arg "Least_squares.create: empty init";
  if forgetting <= 0.0 || forgetting > 1.0 then
    invalid_arg "Least_squares.create: forgetting outside (0,1]";
  {
    k;
    init = Array.copy init;
    forgetting;
    a = Array.make_matrix k k 0.0;
    b = Array.make k 0.0;
    ridge = 1e-6;
    anchor_scale = 1.0;
    n = 0;
    cache = None;
  }

let dim t = t.k

let set_anchor_scale t scale =
  if scale <= 0.0 then invalid_arg "Least_squares.set_anchor_scale: scale <= 0";
  t.anchor_scale <- scale;
  t.cache <- None

let anchor_scale t = t.anchor_scale

let observe t ~x ~y =
  if Array.length x <> t.k then
    invalid_arg "Least_squares.observe: dimension mismatch";
  if (not (Float.is_finite y)) || Array.exists (fun v -> not (Float.is_finite v)) x
  then invalid_arg "Least_squares.observe: non-finite input";
  let lambda = t.forgetting in
  for i = 0 to t.k - 1 do
    for j = 0 to t.k - 1 do
      t.a.(i).(j) <- (lambda *. t.a.(i).(j)) +. (x.(i) *. x.(j))
    done;
    t.b.(i) <- (lambda *. t.b.(i)) +. (x.(i) *. y)
  done;
  t.n <- t.n + 1;
  t.cache <- None

(* Gaussian elimination with partial pivoting; dimensions are tiny
   (<= 6) so O(k^3) per solve is irrelevant. *)
let solve a b k =
  let m = Array.init k (fun i -> Array.append (Array.copy a.(i)) [| b.(i) |]) in
  for col = 0 to k - 1 do
    let pivot = ref col in
    for row = col + 1 to k - 1 do
      if Float.abs m.(row).(col) > Float.abs m.(!pivot).(col) then pivot := row
    done;
    let tmp = m.(col) in
    m.(col) <- m.(!pivot);
    m.(!pivot) <- tmp;
    let p = m.(col).(col) in
    if Float.abs p > 1e-12 then
      for row = 0 to k - 1 do
        if row <> col then begin
          let factor = m.(row).(col) /. p in
          for j = col to k do
            m.(row).(j) <- m.(row).(j) -. (factor *. m.(col).(j))
          done
        end
      done
  done;
  Array.init k (fun i ->
      let p = m.(i).(i) in
      if Float.abs p > 1e-12 then m.(i).(k) /. p else nan)

(* The solved coefficients, cached until the next [observe]: callers
   inside this module read them without a copy. *)
let solved t =
  match t.cache with
  | Some c -> c
  | None ->
      let c =
        if t.n = 0 then Array.map (fun c -> c *. t.anchor_scale) t.init
        else begin
          (* Anchor strength shrinks as real observations accumulate. *)
          let anchor = Float.max t.ridge (1.0 /. (1.0 +. (5.0 *. float_of_int t.n))) in
          let a =
            Array.init t.k (fun i ->
                Array.init t.k (fun j ->
                    t.a.(i).(j) +. if i = j then anchor else 0.0))
          in
          let b = Array.init t.k (fun i -> t.b.(i) +. (anchor *. t.init.(i) *. t.anchor_scale)) in
          let sol = solve a b t.k in
          (* Any degenerate coordinate falls back to its initial value;
             negative cost coefficients are clamped to zero. *)
          Array.mapi
            (fun i v ->
              if Float.is_finite v then Float.max 0.0 v
              else t.init.(i) *. t.anchor_scale)
            sol
        end
      in
      t.cache <- Some c;
      c

let coefficients t = Array.copy (solved t)

let predict t x =
  if Array.length x <> t.k then
    invalid_arg "Least_squares.predict: dimension mismatch";
  let c = solved t in
  let acc = ref 0.0 in
  for i = 0 to t.k - 1 do
    acc := !acc +. (c.(i) *. x.(i))
  done;
  !acc

let observations t = t.n

let simple_fit pairs =
  let n = List.length pairs in
  if n < 2 then invalid_arg "Least_squares.simple_fit: need >= 2 points";
  let fn = float_of_int n in
  let sx = List.fold_left (fun acc (x, _) -> acc +. x) 0.0 pairs in
  let sy = List.fold_left (fun acc (_, y) -> acc +. y) 0.0 pairs in
  let sxx = List.fold_left (fun acc (x, _) -> acc +. (x *. x)) 0.0 pairs in
  let sxy = List.fold_left (fun acc (x, y) -> acc +. (x *. y)) 0.0 pairs in
  let denom = (fn *. sxx) -. (sx *. sx) in
  if Float.abs denom < 1e-12 then
    invalid_arg "Least_squares.simple_fit: degenerate x values";
  let b = ((fn *. sxy) -. (sx *. sy)) /. denom in
  let a = (sy -. (b *. sx)) /. fn in
  (a, b)

type dump = {
  d_a : float array array;
  d_b : float array;
  d_anchor_scale : float;
  d_n : int;
}

let dump t =
  {
    d_a = Array.map Array.copy t.a;
    d_b = Array.copy t.b;
    d_anchor_scale = t.anchor_scale;
    d_n = t.n;
  }

let restore t d =
  if Array.length d.d_b <> t.k || Array.length d.d_a <> t.k then
    invalid_arg "Least_squares.restore: dimension mismatch";
  Array.iteri
    (fun i row ->
      if Array.length row <> t.k then
        invalid_arg "Least_squares.restore: dimension mismatch";
      Array.blit row 0 t.a.(i) 0 t.k)
    d.d_a;
  Array.blit d.d_b 0 t.b 0 t.k;
  t.anchor_scale <- d.d_anchor_scale;
  t.n <- d.d_n;
  t.cache <- None
