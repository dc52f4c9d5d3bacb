module Prng = Taqp_rng.Prng
module Sample = Taqp_rng.Sample

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool
let checkf = Alcotest.check (Alcotest.float 1e-9)

let stream rng n = List.init n (fun _ -> Prng.int rng 1_000_000)

let test_determinism () =
  let a = stream (Prng.create 42) 50 and b = stream (Prng.create 42) 50 in
  Alcotest.check Alcotest.(list int) "same seed same stream" a b;
  let c = stream (Prng.create 43) 50 in
  checkb "different seed differs" true (a <> c)

let test_copy () =
  let rng = Prng.create 7 in
  ignore (stream rng 10);
  let clone = Prng.copy rng in
  Alcotest.check Alcotest.(list int) "copy continues identically" (stream rng 20)
    (stream clone 20)

let test_split_diverges () =
  let rng = Prng.create 7 in
  let child = Prng.split rng in
  checkb "parent and child differ" true (stream rng 20 <> stream child 20)

let test_int_errors () =
  let rng = Prng.create 1 in
  Alcotest.check_raises "zero bound"
    (Invalid_argument "Prng.int: bound must be positive") (fun () ->
      ignore (Prng.int rng 0));
  Alcotest.check_raises "empty range"
    (Invalid_argument "Prng.int_in: empty range") (fun () ->
      ignore (Prng.int_in rng 3 2))

let test_int_in_bounds () =
  let rng = Prng.create 5 in
  for _ = 1 to 1000 do
    let v = Prng.int_in rng (-3) 4 in
    checkb "in range" true (v >= -3 && v <= 4)
  done

let test_bool_both () =
  let rng = Prng.create 5 in
  let trues = ref 0 in
  for _ = 1 to 1000 do
    if Prng.bool rng then incr trues
  done;
  checkb "roughly balanced" true (!trues > 400 && !trues < 600)

let test_gaussian_moments () =
  let rng = Prng.create 11 in
  let s = Taqp_stats.Summary.create () in
  for _ = 1 to 20_000 do
    Taqp_stats.Summary.add s (Prng.gaussian ~mu:3.0 ~sigma:2.0 rng)
  done;
  checkb "mean near 3" true (Float.abs (Taqp_stats.Summary.mean s -. 3.0) < 0.1);
  checkb "std near 2" true (Float.abs (Taqp_stats.Summary.stddev s -. 2.0) < 0.1)

let test_exponential_mean () =
  let rng = Prng.create 11 in
  let s = Taqp_stats.Summary.create () in
  for _ = 1 to 20_000 do
    Taqp_stats.Summary.add s (Prng.exponential rng 4.0)
  done;
  checkb "mean near 1/4" true (Float.abs (Taqp_stats.Summary.mean s -. 0.25) < 0.02)

let test_lognormal_mean_one () =
  let rng = Prng.create 11 in
  let s = Taqp_stats.Summary.create () in
  for _ = 1 to 50_000 do
    Taqp_stats.Summary.add s (Prng.lognormal_factor rng 0.2)
  done;
  checkb "mean corrected to 1" true
    (Float.abs (Taqp_stats.Summary.mean s -. 1.0) < 0.02);
  checkf "zero sigma is exactly 1" 1.0 (Prng.lognormal_factor rng 0.0)

let prop_int_bounds =
  QCheck.Test.make ~name:"Prng.int in [0,n)" ~count:500
    QCheck.(pair small_int (int_range 1 10_000))
    (fun (seed, n) ->
      let rng = Prng.create seed in
      let v = Prng.int rng n in
      v >= 0 && v < n)

let prop_float_bounds =
  QCheck.Test.make ~name:"Prng.float in [0,x)" ~count:500
    QCheck.(pair small_int (QCheck.float_range 0.001 100.0))
    (fun (seed, x) ->
      let rng = Prng.create seed in
      let v = Prng.float rng x in
      v >= 0.0 && v < x)

(* ------------------------------------------------------------------ *)
(* Sampling primitives                                                 *)

let test_wor_distinct () =
  let rng = Prng.create 3 in
  let s = Sample.without_replacement rng ~k:100 ~n:1000 in
  checki "size" 100 (List.length s);
  checki "distinct" 100 (List.length (List.sort_uniq Int.compare s));
  checkb "range" true (List.for_all (fun v -> v >= 0 && v < 1000) s)

let test_wor_full_population () =
  let rng = Prng.create 3 in
  let s = Sample.without_replacement rng ~k:50 ~n:50 in
  Alcotest.check
    Alcotest.(list int)
    "whole population"
    (List.init 50 (fun i -> i))
    (List.sort Int.compare s)

let test_wor_errors () =
  let rng = Prng.create 1 in
  Alcotest.check_raises "k > n"
    (Invalid_argument "Sample.without_replacement: k > n") (fun () ->
      ignore (Sample.without_replacement rng ~k:5 ~n:3))

let test_wor_uniform () =
  (* Every element should be selected with probability ~ k/n. *)
  let rng = Prng.create 9 in
  let counts = Array.make 20 0 in
  let trials = 4000 in
  for _ = 1 to trials do
    List.iter
      (fun v -> counts.(v) <- counts.(v) + 1)
      (Sample.without_replacement rng ~k:5 ~n:20)
  done;
  let expected = float_of_int trials *. 0.25 in
  Array.iter
    (fun c ->
      checkb "within 15% of uniform" true
        (Float.abs (float_of_int c -. expected) < 0.15 *. expected))
    counts

let test_from_excluding_sparse_and_dense () =
  let rng = Prng.create 4 in
  let excluded v = v mod 2 = 0 in
  (* sparse branch: k small relative to survivors *)
  let s = Sample.from_excluding rng ~k:10 ~n:1000 ~excluded ~excluded_count:500 in
  checki "sparse size" 10 (List.length s);
  checkb "sparse avoids" true (List.for_all (fun v -> v mod 2 = 1) s);
  (* dense branch: k close to the survivor count *)
  let s = Sample.from_excluding rng ~k:450 ~n:1000 ~excluded ~excluded_count:500 in
  checki "dense size" 450 (List.length s);
  checki "dense distinct" 450 (List.length (List.sort_uniq Int.compare s));
  checkb "dense avoids" true (List.for_all (fun v -> v mod 2 = 1) s)

let test_from_excluding_exhaustion () =
  let rng = Prng.create 4 in
  Alcotest.check_raises "too many requested"
    (Invalid_argument "Sample.from_excluding: not enough values remain")
    (fun () ->
      ignore
        (Sample.from_excluding rng ~k:501 ~n:1000
           ~excluded:(fun v -> v mod 2 = 0)
           ~excluded_count:500))

let test_shuffle_permutation () =
  let rng = Prng.create 5 in
  let a = Array.init 100 (fun i -> i) in
  Sample.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort Int.compare sorted;
  Alcotest.check
    Alcotest.(array int)
    "still a permutation"
    (Array.init 100 (fun i -> i))
    sorted;
  checkb "actually shuffled" true (a <> Array.init 100 (fun i -> i))

let test_reservoir () =
  let rng = Prng.create 6 in
  let s = Sample.reservoir rng ~k:10 (Seq.init 100 (fun i -> i)) in
  checki "size" 10 (List.length s);
  checki "distinct" 10 (List.length (List.sort_uniq Int.compare s));
  let short = Sample.reservoir rng ~k:10 (Seq.init 3 (fun i -> i)) in
  checki "short sequence" 3 (List.length short);
  checki "k=0" 0 (List.length (Sample.reservoir rng ~k:0 (Seq.init 5 (fun i -> i))))

let test_bernoulli_extremes () =
  let rng = Prng.create 7 in
  for _ = 1 to 100 do
    checkb "p=1 always true" true (Sample.bernoulli rng ~p:1.0);
    checkb "p=0 always false" false (Sample.bernoulli rng ~p:0.0)
  done

let test_choose () =
  let rng = Prng.create 8 in
  let a = [| "x"; "y"; "z" |] in
  for _ = 1 to 50 do
    checkb "member" true (Array.mem (Sample.choose rng a) a)
  done;
  Alcotest.check_raises "empty" (Invalid_argument "Sample.choose: empty array")
    (fun () -> ignore (Sample.choose rng [||]))

(* ------------------------------------------------------------------ *)
(* Zipf                                                                *)

(* Golden streams: the draws the generator produced before its state
   moved into a byte buffer, compared bit for bit (floats by their IEEE
   bits), so any change to a stream fails here. *)
let golden_draw name =
  let fresh seed = Prng.create seed in
  let split_child seed = Prng.split (Prng.create seed) in
  let split_parent seed =
    let r = Prng.create seed in
    ignore (Prng.split r);
    r
  in
  let bits f r = Int64.bits_of_float (f r) in
  let int n r = Int64.of_int (Prng.int r n) in
  match name with
  | "bits64" -> (fresh, Prng.bits64)
  | "int 7" -> (fresh, int 7)
  | "int 1000000" -> (fresh, int 1_000_000)
  | "int 2^61+1" -> (fresh, int ((1 lsl 61) + 1))
  | "float 2.5" -> (fresh, bits (fun r -> Prng.float r 2.5))
  | "gaussian mu=3 sigma=2" -> (fresh, bits (Prng.gaussian ~mu:3.0 ~sigma:2.0))
  | "exponential 0.5" -> (fresh, bits (fun r -> Prng.exponential r 0.5))
  | "lognormal_factor 0.06" ->
      (fresh, bits (fun r -> Prng.lognormal_factor r 0.06))
  | "split child" -> (split_child, Prng.bits64)
  | "split parent" -> (split_parent, Prng.bits64)
  | other -> Alcotest.failf "no golden stream named %S" other

let test_golden_streams () =
  checki "streams x seeds" 20 (List.length Prng_golden.streams);
  List.iter
    (fun (name, seed, expected) ->
      let make, draw = golden_draw name in
      let r = make seed in
      Array.iteri
        (fun i want ->
          let got = draw r in
          if got <> want then
            Alcotest.failf "%s seed %d draw %d: got 0x%016Lx, want 0x%016Lx"
              name seed i got want)
        expected)
    Prng_golden.streams

let test_golden_state_round_trip () =
  List.iter
    (fun (seed, want) ->
      let r = Prng.create seed in
      for _ = 1 to 10 do
        ignore (Prng.bits64 r)
      done;
      checkb "state after ten draws" true (Prng.state r = want);
      let other = Prng.create (seed + 1) in
      Prng.set_state other want;
      let _, _, expected =
        List.find
          (fun (n, s, _) -> n = "bits64" && s = seed)
          Prng_golden.streams
      in
      for i = 10 to 63 do
        checkb "set_state resumes the stream" true
          (Prng.bits64 other = expected.(i))
      done)
    [
      (7, Prng_golden.state_after_10_seed_7);
      (1989, Prng_golden.state_after_10_seed_1989);
    ]

(* Minor-heap words allocated per call, averaged over [n] calls. *)
let words_per_call n f =
  let before = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  (Gc.minor_words () -. before) /. float_of_int n

let test_draws_do_not_allocate () =
  let rng = Prng.create 3 in
  let int_words = words_per_call 10_000 (fun () -> ignore (Prng.int rng 1000)) in
  checkb
    (Printf.sprintf "Prng.int allocates nothing (%.3f words/call)" int_words)
    true (int_words = 0.0);
  let sink = ref 0.0 in
  let jitter_words =
    words_per_call 10_000 (fun () -> sink := Prng.lognormal_factor rng 0.06)
  in
  checkb
    (Printf.sprintf "lognormal_factor boxes at most its result (%.3f words/call)"
       jitter_words)
    true (jitter_words <= 2.0)

module Zipf = Taqp_rng.Zipf

let test_zipf_pmf_normalized () =
  let z = Zipf.create ~n:50 ~s:1.3 in
  let total = ref 0.0 in
  for k = 0 to 49 do
    total := !total +. Zipf.pmf z k
  done;
  checkf "sums to 1" 1.0 !total;
  checkb "monotone decreasing" true (Zipf.pmf z 0 > Zipf.pmf z 1);
  checki "n" 50 (Zipf.n z)

let test_zipf_uniform_special_case () =
  let z = Zipf.create ~n:10 ~s:0.0 in
  for k = 0 to 9 do
    checkf "uniform pmf" 0.1 (Zipf.pmf z k)
  done

let test_zipf_draw_distribution () =
  let z = Zipf.create ~n:20 ~s:1.0 in
  let rng = Prng.create 13 in
  let counts = Array.make 20 0 in
  let trials = 20_000 in
  for _ = 1 to trials do
    let k = Zipf.draw z rng in
    counts.(k) <- counts.(k) + 1
  done;
  for k = 0 to 19 do
    let expected = float_of_int trials *. Zipf.pmf z k in
    checkb "within 5 sigma of pmf" true
      (Float.abs (float_of_int counts.(k) -. expected)
      < 5.0 *. sqrt (Float.max expected 1.0) +. 5.0)
  done

let test_zipf_errors () =
  Alcotest.check_raises "n <= 0" (Invalid_argument "Zipf.create: n <= 0")
    (fun () -> ignore (Zipf.create ~n:0 ~s:1.0));
  Alcotest.check_raises "negative s"
    (Invalid_argument "Zipf.create: negative exponent") (fun () ->
      ignore (Zipf.create ~n:5 ~s:(-1.0)));
  let z = Zipf.create ~n:5 ~s:1.0 in
  Alcotest.check_raises "pmf range" (Invalid_argument "Zipf.pmf: rank out of range")
    (fun () -> ignore (Zipf.pmf z 5))

let () =
  Alcotest.run "rng"
    [
      ( "prng",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "copy" `Quick test_copy;
          Alcotest.test_case "split diverges" `Quick test_split_diverges;
          Alcotest.test_case "int errors" `Quick test_int_errors;
          Alcotest.test_case "int_in bounds" `Quick test_int_in_bounds;
          Alcotest.test_case "bool balance" `Quick test_bool_both;
          Alcotest.test_case "gaussian moments" `Quick test_gaussian_moments;
          Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
          Alcotest.test_case "lognormal mean 1" `Quick test_lognormal_mean_one;
          QCheck_alcotest.to_alcotest prop_int_bounds;
          QCheck_alcotest.to_alcotest prop_float_bounds;
          Alcotest.test_case "golden streams" `Quick test_golden_streams;
          Alcotest.test_case "golden state round trip" `Quick
            test_golden_state_round_trip;
          Alcotest.test_case "draws do not allocate" `Quick
            test_draws_do_not_allocate;
        ] );
      ( "sample",
        [
          Alcotest.test_case "without replacement distinct" `Quick test_wor_distinct;
          Alcotest.test_case "full population" `Quick test_wor_full_population;
          Alcotest.test_case "errors" `Quick test_wor_errors;
          Alcotest.test_case "uniformity" `Slow test_wor_uniform;
          Alcotest.test_case "from_excluding branches" `Quick
            test_from_excluding_sparse_and_dense;
          Alcotest.test_case "from_excluding exhaustion" `Quick
            test_from_excluding_exhaustion;
          Alcotest.test_case "shuffle permutation" `Quick test_shuffle_permutation;
          Alcotest.test_case "reservoir" `Quick test_reservoir;
          Alcotest.test_case "bernoulli extremes" `Quick test_bernoulli_extremes;
          Alcotest.test_case "choose" `Quick test_choose;
        ] );
      ( "zipf",
        [
          Alcotest.test_case "pmf normalized" `Quick test_zipf_pmf_normalized;
          Alcotest.test_case "uniform special case" `Quick
            test_zipf_uniform_special_case;
          Alcotest.test_case "draw matches pmf" `Slow test_zipf_draw_distribution;
          Alcotest.test_case "errors" `Quick test_zipf_errors;
        ] );
    ]
