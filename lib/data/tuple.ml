type t = { fields : Value.t array; pad : int }

let make ?(pad = 0) fields =
  if pad < 0 then invalid_arg "Tuple.make: negative pad";
  { fields; pad }

let of_list ?pad vs = make ?pad (Array.of_list vs)

let arity t = Array.length t.fields
let get t i = t.fields.(i)
let fields t = Array.copy t.fields
let pad t = t.pad

let byte_size t =
  Array.fold_left (fun acc v -> acc + Value.byte_size v) t.pad t.fields

let project t positions =
  make (Array.of_list (List.map (fun i -> t.fields.(i)) positions))

let concat a b =
  { fields = Array.append a.fields b.fields; pad = a.pad + b.pad }

(* The comparisons below run once per sort or merge step, so they are
   loops over local refs: a local recursive function would allocate a
   closure on every call. *)
let compare a b =
  let na = arity a and nb = arity b in
  let n = Int.min na nb in
  let i = ref 0 and c = ref 0 in
  while !c = 0 && !i < n do
    c := Value.compare a.fields.(!i) b.fields.(!i);
    incr i
  done;
  if !c <> 0 then !c else Int.compare na nb

let equal a b = compare a b = 0

let hash t =
  Array.fold_left (fun acc v -> (acc * 31) + Value.hash v) 7 t.fields

let compare_on key a b =
  let i = ref 0 and c = ref 0 in
  while !c = 0 && !i < Array.length key do
    let k = key.(!i) in
    c := Value.compare a.fields.(k) b.fields.(k);
    incr i
  done;
  !c

let key t positions = Array.map (fun i -> t.fields.(i)) positions

let pp ppf t =
  Fmt.pf ppf "<%a>" Fmt.(array ~sep:comma Value.pp) t.fields
