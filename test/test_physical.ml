(* The hash evaluation path: algebraic equivalence to the sort-merge
   operators (property tests against a nested-loop oracle), estimator
   bit-identity across physical paths at fixed stage fractions, and the
   late-stage cost advantage that motivates the path. *)

open Taqp_data
open Taqp_relational
module Config = Taqp_core.Config
module Staged = Taqp_core.Staged
module Paper_setup = Taqp_workload.Paper_setup
module Count_estimator = Taqp_estimators.Count_estimator

(* Check helpers, workload specs and the fixed-stage driver live in
   the shared Fixtures module. *)
let checkb = Fixtures.checkb
let checki = Fixtures.checki
let checkf = Fixtures.checkf

(* ------------------------------------------------------------------ *)
(* Operator-level equivalence                                          *)

let mk2 a b = Tuple.of_list [ Value.Int a; Value.Int b ]

(* Multiset equality: full-tuple sort, then pointwise comparison. *)
let canon tuples = List.sort Tuple.compare tuples

let multiset_equal l1 l2 =
  List.length l1 = List.length l2
  && List.for_all2 (fun a b -> Tuple.compare a b = 0) (canon l1) (canon l2)

(* Small domains force hash-bucket collisions and duplicate keys. *)
let pairs_gen =
  QCheck.(list_of_size Gen.(0 -- 40) (pair (int_bound 4) (int_bound 3)))

let tuples_of pairs = Array.of_list (List.map (fun (a, b) -> mk2 a b) pairs)

let nested_loop_join left right =
  Array.to_list left
  |> List.concat_map (fun l ->
         Array.to_list right
         |> List.filter_map (fun r ->
                if Value.compare (Tuple.get l 0) (Tuple.get r 0) = 0 then
                  Some (Tuple.concat l r)
                else None))

let merge_join left right =
  let key = [| 0 |] in
  let sl = Array.copy left and sr = Array.copy right in
  Array.sort (Ops.compare_with_key key) sl;
  Array.sort (Ops.compare_with_key key) sr;
  Ops.merge_sorted_join ~key_l:key ~key_r:key
    ~residual:(fun _ -> true)
    ~residual_comparisons:0 sl sr

let hash_join left right =
  let index = Ops.Hash_index.create ~key:[| 0 |] in
  Ops.Hash_index.add index right;
  Ops.hash_probe_join ~index ~probe_key:[| 0 |] ~indexed_side:`Right
    ~residual:(fun _ -> true)
    ~residual_comparisons:0 left

let prop_join_paths_agree =
  QCheck.Test.make ~name:"hash join = merge join = nested loop" ~count:200
    QCheck.(pair pairs_gen pairs_gen)
    (fun (lp, rp) ->
      let left = tuples_of lp and right = tuples_of rp in
      let oracle = nested_loop_join left right in
      multiset_equal oracle (merge_join left right)
      && multiset_equal oracle (hash_join left right))

let nested_loop_intersect left right =
  Array.to_list left
  |> List.concat_map (fun l ->
         Array.to_list right
         |> List.filter_map (fun r ->
                if Tuple.compare l r = 0 then Some l else None))

let merge_intersect left right =
  let sl = Array.copy left and sr = Array.copy right in
  Array.sort Tuple.compare sl;
  Array.sort Tuple.compare sr;
  Ops.merge_sorted_intersect sl sr

let hash_intersect left right =
  let index = Ops.Hash_index.create ~key:[| 0; 1 |] in
  Ops.Hash_index.add index right;
  Ops.hash_probe_intersect ~index ~emit_side:`Probe left

let prop_intersect_paths_agree =
  QCheck.Test.make ~name:"hash intersect = merge intersect = nested loop"
    ~count:200
    QCheck.(pair pairs_gen pairs_gen)
    (fun (lp, rp) ->
      let left = tuples_of lp and right = tuples_of rp in
      let oracle = nested_loop_intersect left right in
      multiset_equal oracle (merge_intersect left right)
      && multiset_equal oracle (hash_intersect left right))

(* The other probing direction: index the left side, emit it. *)
let test_hash_intersect_emit_indexed () =
  let left = tuples_of [ (1, 1); (1, 1); (2, 2) ] in
  let right = tuples_of [ (1, 1); (3, 3) ] in
  let index = Ops.Hash_index.create ~key:[| 0; 1 |] in
  Ops.Hash_index.add index left;
  let out = Ops.hash_probe_intersect ~index ~emit_side:`Indexed right in
  checkb "both left duplicates emitted" true
    (multiset_equal out (nested_loop_intersect left right))

let test_cross_type_numeric_keys () =
  (* Int 3 and Float 3.0 compare equal, so the sort-merge path matches
     them; the hash path must bucket them together too. *)
  let l = [| Tuple.of_list [ Value.Int 3; Value.Int 1 ] |] in
  let r = [| Tuple.of_list [ Value.Float 3.0; Value.Int 2 ] |] in
  let merged = merge_join l r in
  let hashed = hash_join l r in
  checki "merge matches across types" 1 (List.length merged);
  checki "hash matches across types" 1 (List.length hashed);
  checkb "same output" true (multiset_equal merged hashed)

let prop_key_comparator_same_order =
  (* The precompiled comparator realizes exactly the compare_with_key
     total order (key positions, then all fields). *)
  let tuple_gen =
    QCheck.Gen.(
      map
        (fun (a, b, c) -> Tuple.of_list [ Value.Int a; Value.Int b; Value.Int c ])
        (triple (int_bound 3) (int_bound 3) (int_bound 3)))
  in
  let key_gen = QCheck.Gen.oneofl [ [| 0 |]; [| 2 |]; [| 1; 0 |]; [| 2; 1 |]; [||] ] in
  QCheck.Test.make ~name:"key_comparator = compare_with_key" ~count:500
    (QCheck.make QCheck.Gen.(triple key_gen tuple_gen tuple_gen))
    (fun (key, t1, t2) ->
      let sign x = compare x 0 in
      sign (Ops.key_comparator ~arity:3 key t1 t2)
      = sign (Ops.compare_with_key key t1 t2))

(* ------------------------------------------------------------------ *)
(* Array kernels                                                       *)

let prop_filter_matches_list_filter =
  QCheck.Test.make ~name:"Ops.filter = List.filter, same order" ~count:500
    QCheck.(triple pairs_gen (int_bound 4) (pair small_nat small_nat))
    (fun (pairs, cut, (a, b)) ->
      let arr = tuples_of pairs in
      let n = Array.length arr in
      let lo = Int.min a n and hi = Int.min (a + b) n in
      let test t = Value.compare (Tuple.get t 0) (Value.Int cut) < 0 in
      let same got want =
        Array.length got = List.length want
        && List.for_all2 ( == ) (Array.to_list got) want
      in
      same (Ops.filter test arr) (List.filter test (Array.to_list arr))
      && same
           (Ops.filter ~lo ~hi test arr)
           (List.filter test (Array.to_list (Array.sub arr lo (hi - lo)))))

(* The stage sort moved from [Array.sort] (heapsort) to a stable merge
   sort; on tuples with duplicate keys and duplicate rows both give the
   same sequence, because the comparator orders on every field. *)
let prop_sort_stage_matches_heapsort =
  QCheck.Test.make ~name:"sort_stage = Array.sort under key_comparator"
    ~count:500
    QCheck.(
      pair pairs_gen
        (make Gen.(oneofl [ [| 0 |]; [| 1 |]; [| 1; 0 |]; [| 0; 1 |]; [||] ])))
    (fun (pairs, key) ->
      let arr = tuples_of pairs in
      let old = Array.copy arr in
      Array.sort (Ops.key_comparator ~arity:2 key) old;
      Ops.sort_stage ~key arr = old)

let test_hash_index_cross_type_group () =
  let index = Ops.Hash_index.create ~key:[| 0 |] in
  let older = Tuple.of_list [ Value.Float 3.0; Value.Int 1 ] in
  let newer = Tuple.of_list [ Value.Float 3.0; Value.Int 2 ] in
  let big = Tuple.of_list [ Value.Float (Float.of_int (1 lsl 53)); Value.Int 3 ] in
  Ops.Hash_index.add index [| older; big |];
  Ops.Hash_index.add index [| newer |];
  checki "length" 3 (Ops.Hash_index.length index);
  let found probe =
    let out = ref [] in
    Ops.Hash_index.probe ~probe_key:[| 0 |] index [| probe |]
      ~emit:(fun ~indexed ~probe:_ -> out := indexed :: !out);
    List.rev !out
  in
  checkb "Int 3 finds the Float 3.0 group, newest first" true
    (found (Tuple.of_list [ Value.Int 3 ]) = [ newer; older ]);
  checkb "Int 2^53+1 finds the Float 2^53 group" true
    (found (Tuple.of_list [ Value.Int ((1 lsl 53) + 1) ]) = [ big ]);
  checkb "Int 4 finds nothing" true (found (Tuple.of_list [ Value.Int 4 ]) = [])

(* ------------------------------------------------------------------ *)
(* Staged bit-identity across physical paths                           *)

let run_fixed_stages ~physical ~stages ~f wl =
  Fixtures.run_fixed_stages ~physical ~stages ~f wl

let check_bit_identical name (wl : Paper_setup.t) =
  let stages = 4 and f = 0.05 in
  let sort_r, _ = run_fixed_stages ~physical:Config.Sort_merge ~stages ~f wl in
  let hash_r, _ = run_fixed_stages ~physical:Config.Hash ~stages ~f wl in
  checki (name ^ ": same stage count (hash)") (List.length sort_r)
    (List.length hash_r);
  List.iter2
    (fun (a : Staged.stage_result) (b : Staged.stage_result) ->
      let ea = a.Staged.estimate and eb = b.Staged.estimate in
      checkf (name ^ ": estimate") ea.Count_estimator.estimate
        eb.Count_estimator.estimate;
      checkf (name ^ ": variance") ea.Count_estimator.variance
        eb.Count_estimator.variance;
      checkf (name ^ ": hits") ea.Count_estimator.hits eb.Count_estimator.hits;
      checkf (name ^ ": points") ea.Count_estimator.points
        eb.Count_estimator.points;
      checkf (name ^ ": total points") ea.Count_estimator.total_points
        eb.Count_estimator.total_points;
      let ca = Count_estimator.confidence ~level:0.95 ea in
      let cb = Count_estimator.confidence ~level:0.95 eb in
      checkf (name ^ ": ci center") ca.Taqp_stats.Confidence.center
        cb.Taqp_stats.Confidence.center;
      checkf (name ^ ": ci half-width") ca.Taqp_stats.Confidence.half_width
        cb.Taqp_stats.Confidence.half_width)
    sort_r hash_r

let bit_identity_workloads () =
  let spec = Fixtures.spec () in
  [
    ("join", Paper_setup.join ~spec ~target_output:2000 ~seed:3 ());
    ("intersection", Paper_setup.intersection ~spec ~overlap:150 ~seed:4 ());
    ("three-way join", Paper_setup.three_way_join ~spec ~group_size:3 ~seed:5 ());
  ]

let test_estimates_bit_identical () =
  List.iter (fun (name, wl) -> check_bit_identical name wl)
    (bit_identity_workloads ())

let test_partial_fulfillment_bit_identical () =
  let wl = Paper_setup.join ~spec:(Fixtures.spec ()) ~target_output:2000 ~seed:3 () in
  let partial_plan =
    { Taqp_sampling.Plan.default with Taqp_sampling.Plan.fulfillment = Taqp_sampling.Plan.Partial }
  in
  let run physical =
    let config = { Config.default with Config.physical; plan = partial_plan } in
    let staged = Fixtures.compile ~config wl in
    let _, device = Fixtures.quiet_device () in
    let rs = ref [] in
    for _ = 1 to 3 do
      match Staged.run_stage staged ~device ~f:0.05 with
      | Some r -> rs := r.Staged.estimate :: !rs
      | None -> ()
    done;
    List.rev !rs
  in
  let s = run Config.Sort_merge and h = run Config.Hash in
  checki "same stage count" (List.length s) (List.length h);
  List.iter2
    (fun (a : Count_estimator.t) (b : Count_estimator.t) ->
      checkf "partial estimate" a.Count_estimator.estimate
        b.Count_estimator.estimate;
      checkf "partial variance" a.Count_estimator.variance
        b.Count_estimator.variance)
    s h

(* ------------------------------------------------------------------ *)
(* The cost advantage                                                  *)

let test_hash_cheaper_at_late_stages () =
  (* The point of the path: at >= 3 full-fulfillment stages of a
     multi-join, the sort path re-merges every old file pair while the
     hash path touches only the deltas — the cumulative operator-time
     ratio must be at least 2x. *)
  let spec = Fixtures.spec ~n_tuples:600 () in
  let wl = Paper_setup.three_way_join ~spec ~group_size:3 ~seed:5 () in
  let stages = 4 and f = 0.05 in
  let nodes_cost results =
    List.fold_left (fun acc r -> acc +. r.Staged.nodes_elapsed) 0.0 results
  in
  let sort_r, _ = run_fixed_stages ~physical:Config.Sort_merge ~stages ~f wl in
  let hash_r, _ = run_fixed_stages ~physical:Config.Hash ~stages ~f wl in
  checki "ran enough stages" stages (List.length sort_r);
  let cs = nodes_cost sort_r and ch = nodes_cost hash_r in
  checkb
    (Printf.sprintf "hash at least 2x cheaper (sort %.4f vs hash %.4f)" cs ch)
    true
    (cs >= 2.0 *. ch)

let () =
  Alcotest.run "physical"
    [
      ( "equivalence",
        [
          QCheck_alcotest.to_alcotest prop_join_paths_agree;
          QCheck_alcotest.to_alcotest prop_intersect_paths_agree;
          Alcotest.test_case "intersect emit indexed" `Quick
            test_hash_intersect_emit_indexed;
          Alcotest.test_case "cross-type numeric keys" `Quick
            test_cross_type_numeric_keys;
          QCheck_alcotest.to_alcotest prop_key_comparator_same_order;
        ] );
      ( "kernels",
        [
          QCheck_alcotest.to_alcotest prop_filter_matches_list_filter;
          QCheck_alcotest.to_alcotest prop_sort_stage_matches_heapsort;
          Alcotest.test_case "hash index cross-type group" `Quick
            test_hash_index_cross_type_group;
        ] );
      ( "estimator-identity",
        [
          Alcotest.test_case "bit-identical estimates" `Quick
            test_estimates_bit_identical;
          Alcotest.test_case "partial fulfillment" `Quick
            test_partial_fulfillment_bit_identical;
        ] );
      ( "cost",
        [
          Alcotest.test_case "hash cheaper at late stages" `Quick
            test_hash_cheaper_at_late_stages;
        ] );
    ]
