(* The harness's own statistics: order statistics over wall-time
   samples, the tail-percentile rule, span self time and metric-name
   validation. [self_test] checks each against hand-computed values and
   runs before every benchmark run, so a broken statistic fails the run
   instead of printing a wrong number. *)

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* Median of an unsorted sample (mean of the middle pair when even). *)
let median a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: empty sample";
  let s = sorted a in
  if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

(* The three quartile cut points, computed like Python's
   [statistics.quantiles(data, n=4)] (its default "exclusive" method),
   so the spread the harness reports matches the one a reader computes
   from the printed values. *)
let quartiles a =
  let m = Array.length a in
  if m < 2 then invalid_arg "Stats.quartiles: need at least two samples";
  let s = sorted a in
  let at i =
    let j = i * (m + 1) / 4 in
    let delta = (i * (m + 1)) - (j * 4) in
    let lo = s.(max 0 (min (m - 1) (j - 1))) and hi = s.(min (m - 1) j) in
    ((lo *. float_of_int (4 - delta)) +. (hi *. float_of_int delta)) /. 4.0
  in
  (at 1, at 2, at 3)

(* Nearest-rank percentile ([p] in 0..100) of an unsorted sample. *)
let percentile a p =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: empty sample";
  let s = sorted a in
  let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
  s.(max 0 (min (n - 1) (rank - 1)))

(* A percentile is reported only when at least ten samples lie beyond
   it; [highest_tail n] is the highest of the usual ladder that [n]
   samples support. *)
let tail_supported ~n p = float_of_int n *. (1.0 -. (p /. 100.0)) >= 10.0 -. 1e-9

let highest_tail n =
  List.fold_left
    (fun best p -> if tail_supported ~n p then Some p else best)
    None [ 50.0; 90.0; 95.0; 99.0; 99.9 ]

(* [a] (kept in arrival order) cut into [k] consecutive windows of
   equal count, and the median of [f] over them: a stall that hits one
   window moves the reported value less than it moves a pooled one. *)
let windows ~k a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.windows: empty sample";
  let k = max 1 (min k n) in
  Array.init k (fun i -> Array.sub a (i * n / k) (((i + 1) * n / k) - (i * n / k)))

let windowed ~k f a = median (Array.map f (windows ~k a))

(* How many windows (at most 20) keep ten samples beyond [p] in each. *)
let windows_for ~n p =
  let need = int_of_float (Float.ceil ((10.0 /. (1.0 -. (p /. 100.0))) -. 1e-6)) in
  max 1 (min 20 (n / need))

let windowed_percentile a p = windowed ~k:(windows_for ~n:(Array.length a) p) (fun w -> percentile w p) a

(* Self time of a span: its duration minus the part of its interval
   that the union of its children's intervals covers. Children may
   overlap each other (parallel work) or stick out of the parent. *)
let self_time ~start ~stop children =
  let clipped =
    List.filter_map
      (fun (s, e) ->
        let s = Float.max s start and e = Float.min e stop in
        if e > s then Some (s, e) else None)
      children
    |> List.sort compare
  in
  let covered, last =
    List.fold_left
      (fun (acc, cur) (s, e) ->
        match cur with
        | None -> (acc, Some (s, e))
        | Some (cs, ce) when s <= ce -> (acc, Some (cs, Float.max ce e))
        | Some (cs, ce) -> (acc +. (ce -. cs), Some (s, e)))
      (0.0, None) clipped
  in
  let covered =
    match last with None -> covered | Some (s, e) -> covered +. (e -. s)
  in
  stop -. start -. covered

let valid_name s =
  String.length s > 0
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       s

let self_test () =
  let fails = ref [] in
  let check name ok = if not ok then fails := name :: !fails in
  let close a b = Float.abs (a -. b) < 1e-9 in
  let ten = Array.init 10 (fun i -> float_of_int (10 - i)) in
  check "median odd" (close (median [| 3.; 1.; 2. |]) 2.0);
  check "median even" (close (median ten) 5.5);
  (* statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] *)
  let q1, q2, q3 = quartiles ten in
  check "quartiles 1..10" (close q1 2.75 && close q2 5.5 && close q3 8.25);
  (* statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0] *)
  let q1, q2, q3 = quartiles [| 16.; 1.; 8.; 2.; 4. |] in
  check "quartiles 5 points" (close q1 1.5 && close q2 4.0 && close q3 12.0);
  let hundred = Array.init 100 (fun i -> float_of_int (i + 1)) in
  check "p50 nearest rank" (close (percentile hundred 50.0) 50.0);
  check "p99 nearest rank" (close (percentile hundred 99.0) 99.0);
  check "p100 is max" (close (percentile hundred 100.0) 100.0);
  check "tail 999" (highest_tail 999 = Some 95.0);
  check "tail 1000" (highest_tail 1000 = Some 99.0);
  check "tail 10000" (highest_tail 10_000 = Some 99.9);
  check "tail 19" (highest_tail 19 = None);
  check "tail 20" (highest_tail 20 = Some 50.0);
  check "windowed medians" (close (windowed ~k:4 median hundred) 50.5);
  check "windowed drops one bad window"
    (close (windowed ~k:3 (fun w -> percentile w 99.0)
              (Array.init 3000 (fun i -> if i < 1000 && i mod 50 = 0 then 100.0 else 1.0)))
       1.0);
  check "windows p99" (windows_for ~n:3000 99.0 = 3 && windows_for ~n:999 99.0 = 1);
  check "windows p50" (windows_for ~n:1000 50.0 = 20 && windows_for ~n:60 50.0 = 3);
  check "self no children" (close (self_time ~start:0. ~stop:10. []) 10.0);
  check "self disjoint"
    (close (self_time ~start:0. ~stop:10. [ (1., 2.); (5., 7.) ]) 7.0);
  check "self overlapping"
    (close (self_time ~start:0. ~stop:10. [ (1., 4.); (3., 6.); (5., 5.5) ]) 5.0);
  check "self nested child"
    (close (self_time ~start:0. ~stop:10. [ (2., 8.); (3., 4.) ]) 4.0);
  check "self clipped"
    (close (self_time ~start:0. ~stop:10. [ (-5., 1.); (9., 20.) ]) 8.0);
  check "name ok" (valid_name "cache.hit_ratio" && valid_name "p-99_x.y");
  check "name bad"
    ((not (valid_name "")) && (not (valid_name "a b")) && not (valid_name "a/b"));
  List.rev !fails
