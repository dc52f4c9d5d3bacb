open Taqp_data

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool
let checks = check Alcotest.string

(* ------------------------------------------------------------------ *)
(* Value                                                               *)

let test_value_compare_numeric () =
  checki "int order" (-1) (compare (Value.compare (Value.Int 1) (Value.Int 2)) 0);
  checki "cross int/float eq" 0 (Value.compare (Value.Int 2) (Value.Float 2.0));
  checkb "cross int/float lt" true
    (Value.compare (Value.Int 1) (Value.Float 1.5) < 0);
  checkb "float/int gt" true (Value.compare (Value.Float 2.5) (Value.Int 2) > 0)

let test_value_compare_ranks () =
  checkb "null first" true (Value.compare Value.Null (Value.Bool false) < 0);
  checkb "bool before int" true (Value.compare (Value.Bool true) (Value.Int 0) < 0);
  checkb "number before string" true
    (Value.compare (Value.Int 999) (Value.String "") < 0)

let test_value_equal_hash () =
  checkb "equal ints hash equal" true
    (Value.hash (Value.Int 5) = Value.hash (Value.Int 5));
  checkb "int/float equal implies hash equal" true
    (Value.hash (Value.Int 5) = Value.hash (Value.Float 5.0));
  (* Pairs that compare equal without being the same value must still
     hash alike: the signed zeros, two NaNs, and an int beyond 2^53 with
     the float it rounds to. *)
  List.iter
    (fun (name, a, b) ->
      checkb (name ^ " compare equal") true (Value.equal a b);
      checkb (name ^ " hash equal") true (Value.hash a = Value.hash b))
    [
      ("-0.0/0", Value.Float (-0.0), Value.Int 0);
      ("nan/nan", Value.Float Float.nan, Value.Float (-.Float.nan));
      ( "2^53+1/2^53",
        Value.Int ((1 lsl 53) + 1),
        Value.Float (Float.of_int (1 lsl 53)) );
      ("max_int", Value.Int max_int, Value.Float (Float.of_int max_int));
    ];
  checkb "equal" true (Value.equal (Value.String "x") (Value.String "x"));
  checkb "not equal" false (Value.equal (Value.String "x") (Value.String "y"))

let test_value_sizes () =
  checki "int" 8 (Value.byte_size (Value.Int 1));
  checki "float" 8 (Value.byte_size (Value.Float 1.0));
  checki "bool" 1 (Value.byte_size (Value.Bool true));
  checki "null" 1 (Value.byte_size Value.Null);
  checki "string" 5 (Value.byte_size (Value.String "hello"))

let test_value_coercions () =
  check Alcotest.(option int) "to_int" (Some 3) (Value.to_int (Value.Int 3));
  check Alcotest.(option int) "float not int" None (Value.to_int (Value.Float 3.0));
  check
    Alcotest.(option (float 1e-9))
    "int to float" (Some 3.0)
    (Value.to_float (Value.Int 3));
  checkb "null is null" true (Value.is_null Value.Null);
  checkb "int not null" false (Value.is_null (Value.Int 0))

let test_value_pp () =
  checks "int" "3" (Value.to_string (Value.Int 3));
  checks "string quoted" "\"a\"" (Value.to_string (Value.String "a"));
  checks "null" "null" (Value.to_string Value.Null)

let value_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun i -> Value.Int i) small_signed_int;
        map (fun f -> Value.Float f) (float_bound_inclusive 1000.0);
        map (fun s -> Value.String s) small_string;
        map (fun b -> Value.Bool b) bool;
        return Value.Null;
      ])

let value_arb = QCheck.make ~print:Value.to_string value_gen

let prop_compare_antisym =
  QCheck.Test.make ~name:"Value.compare antisymmetric" ~count:300
    (QCheck.pair value_arb value_arb) (fun (a, b) ->
      Value.compare a b = -Value.compare b a)

let prop_compare_trans =
  QCheck.Test.make ~name:"Value.compare transitive" ~count:300
    (QCheck.triple value_arb value_arb value_arb) (fun (a, b, c) ->
      let sorted = List.sort Value.compare [ a; b; c ] in
      match sorted with
      | [ x; y; z ] -> Value.compare x y <= 0 && Value.compare y z <= 0
      | _ -> false)

let prop_equal_hash =
  QCheck.Test.make ~name:"Value equal implies same hash" ~count:300
    (QCheck.pair value_arb value_arb) (fun (a, b) ->
      (not (Value.equal a b)) || Value.hash a = Value.hash b)

(* ------------------------------------------------------------------ *)
(* Schema                                                              *)

let schema_abc =
  Schema.make
    [
      { Schema.name = "a"; ty = Value.Tint };
      { Schema.name = "b"; ty = Value.Tstring };
      { Schema.name = "c"; ty = Value.Tfloat };
    ]

let test_schema_basics () =
  checki "arity" 3 (Schema.arity schema_abc);
  check Alcotest.(list string) "names" [ "a"; "b"; "c" ] (Schema.names schema_abc);
  checki "find" 1 (Schema.find schema_abc "b");
  checkb "mem" true (Schema.mem schema_abc "c");
  checkb "not mem" false (Schema.mem schema_abc "z")

let test_schema_duplicate () =
  Alcotest.check_raises "duplicate attr"
    (Schema.Schema_error "duplicate attribute a") (fun () ->
      ignore
        (Schema.make
           [
             { Schema.name = "a"; ty = Value.Tint };
             { Schema.name = "a"; ty = Value.Tint };
           ]))

let test_schema_qualified_lookup () =
  let q = Schema.qualify "r" schema_abc in
  check Alcotest.(list string) "qualified names" [ "r.a"; "r.b"; "r.c" ]
    (Schema.names q);
  checki "find by base name" 0 (Schema.find q "a");
  checki "find qualified" 2 (Schema.find q "r.c")

let test_schema_ambiguous () =
  let j = Schema.concat (Schema.qualify "r" schema_abc) (Schema.qualify "s" schema_abc) in
  checki "arity" 6 (Schema.arity j);
  checkb "ambiguous raises" true
    (match Schema.find j "a" with
    | _ -> false
    | exception Schema.Schema_error _ -> true);
  checki "qualified ok" 3 (Schema.find j "s.a")

let test_schema_project () =
  let p = Schema.project schema_abc [ "c"; "a" ] in
  check Alcotest.(list string) "projected order" [ "c"; "a" ] (Schema.names p)

let test_schema_union_compatible () =
  let other =
    Schema.make
      [
        { Schema.name = "x"; ty = Value.Tint };
        { Schema.name = "y"; ty = Value.Tstring };
        { Schema.name = "z"; ty = Value.Tfloat };
      ]
  in
  checkb "compatible by type" true (Schema.union_compatible schema_abc other);
  checkb "not equal by name" false (Schema.equal schema_abc other);
  let shorter = Schema.make [ { Schema.name = "x"; ty = Value.Tint } ] in
  checkb "arity mismatch" false (Schema.union_compatible schema_abc shorter)

let test_schema_concat_clash () =
  checkb "clash raises" true
    (match Schema.concat schema_abc schema_abc with
    | _ -> false
    | exception Schema.Schema_error _ -> true)

(* ------------------------------------------------------------------ *)
(* Tuple                                                               *)

let t1 = Tuple.of_list [ Value.Int 1; Value.String "x"; Value.Float 2.5 ]
let t2 = Tuple.of_list [ Value.Int 1; Value.String "y"; Value.Float 0.5 ]

let test_tuple_basics () =
  checki "arity" 3 (Tuple.arity t1);
  checkb "get" true (Value.equal (Tuple.get t1 1) (Value.String "x"));
  checki "byte size" (8 + 1 + 8) (Tuple.byte_size t1)

let test_tuple_pad () =
  let padded = Tuple.make ~pad:100 [| Value.Int 1 |] in
  checki "padded size" 108 (Tuple.byte_size padded);
  checki "pad" 100 (Tuple.pad padded);
  checkb "pad ignored in compare" true
    (Tuple.equal padded (Tuple.make [| Value.Int 1 |]));
  Alcotest.check_raises "negative pad" (Invalid_argument "Tuple.make: negative pad")
    (fun () -> ignore (Tuple.make ~pad:(-1) [| Value.Int 1 |]))

let test_tuple_project_concat () =
  let p = Tuple.project t1 [ 2; 0 ] in
  checki "projected arity" 2 (Tuple.arity p);
  checkb "projected order" true (Value.equal (Tuple.get p 0) (Value.Float 2.5));
  let c = Tuple.concat t1 t2 in
  checki "concat arity" 6 (Tuple.arity c);
  checkb "concat right side" true (Value.equal (Tuple.get c 4) (Value.String "y"))

let test_tuple_compare () =
  checkb "lexicographic" true (Tuple.compare t1 t2 < 0);
  checki "compare_on shared prefix" 0 (Tuple.compare_on [| 0 |] t1 t2);
  checkb "compare_on differing" true (Tuple.compare_on [| 2 |] t1 t2 > 0);
  checkb "key extraction" true
    (Value.equal (Tuple.key t1 [| 1 |]).(0) (Value.String "x"))

let tuple_arb =
  QCheck.make
    ~print:(fun t -> Fmt.str "%a" Tuple.pp t)
    QCheck.Gen.(map Tuple.of_list (list_size (int_range 0 5) value_gen))

let prop_tuple_compare_consistent =
  QCheck.Test.make ~name:"Tuple.compare antisymmetric" ~count:300
    (QCheck.pair tuple_arb tuple_arb) (fun (a, b) ->
      Tuple.compare a b = -Tuple.compare b a)

let prop_tuple_equal_hash =
  QCheck.Test.make ~name:"Tuple equal implies same hash" ~count:300
    (QCheck.pair tuple_arb tuple_arb) (fun (a, b) ->
      (not (Tuple.equal a b)) || Tuple.hash a = Tuple.hash b)

let () =
  Alcotest.run "data"
    [
      ( "value",
        [
          Alcotest.test_case "numeric compare" `Quick test_value_compare_numeric;
          Alcotest.test_case "rank ordering" `Quick test_value_compare_ranks;
          Alcotest.test_case "equality and hash" `Quick test_value_equal_hash;
          Alcotest.test_case "byte sizes" `Quick test_value_sizes;
          Alcotest.test_case "coercions" `Quick test_value_coercions;
          Alcotest.test_case "printing" `Quick test_value_pp;
          QCheck_alcotest.to_alcotest prop_compare_antisym;
          QCheck_alcotest.to_alcotest prop_compare_trans;
          QCheck_alcotest.to_alcotest prop_equal_hash;
        ] );
      ( "schema",
        [
          Alcotest.test_case "basics" `Quick test_schema_basics;
          Alcotest.test_case "duplicates rejected" `Quick test_schema_duplicate;
          Alcotest.test_case "qualified lookup" `Quick test_schema_qualified_lookup;
          Alcotest.test_case "ambiguity" `Quick test_schema_ambiguous;
          Alcotest.test_case "project" `Quick test_schema_project;
          Alcotest.test_case "union compatibility" `Quick test_schema_union_compatible;
          Alcotest.test_case "concat clash" `Quick test_schema_concat_clash;
        ] );
      ( "tuple",
        [
          Alcotest.test_case "basics" `Quick test_tuple_basics;
          Alcotest.test_case "padding" `Quick test_tuple_pad;
          Alcotest.test_case "project/concat" `Quick test_tuple_project_concat;
          Alcotest.test_case "compare" `Quick test_tuple_compare;
          QCheck_alcotest.to_alcotest prop_tuple_compare_consistent;
          QCheck_alcotest.to_alcotest prop_tuple_equal_hash;
        ] );
    ]
