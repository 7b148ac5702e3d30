(* Tests for the runtime substrate: bignums, heap/GC, object model,
   numeric tower, and the booted Lisp world. *)

open S1_runtime
module Sexp = S1_sexp.Sexp
module Reader = S1_sexp.Reader

let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)
let check_bool = Alcotest.(check bool)

(* Bignums -------------------------------------------------------------- *)

let big = Bignum.of_string

let test_bignum_basic () =
  check_str "of/to string" "123456789012345678901234567890"
    (Bignum.to_string (big "123456789012345678901234567890"));
  check_str "negative" "-42" (Bignum.to_string (big "-42"));
  check_str "zero" "0" (Bignum.to_string Bignum.zero);
  check_bool "equal" true (Bignum.equal (big "100") (Bignum.of_int 100));
  check_int "sign" (-1) (Bignum.sign (big "-7"));
  check_bool "even" true (Bignum.is_even (big "123456789012345678901234567890"));
  check_bool "odd" false (Bignum.is_even (big "3"))

let test_bignum_arith () =
  let a = big "99999999999999999999" and b = big "1" in
  check_str "carry chain" "100000000000000000000" (Bignum.to_string (Bignum.add a b));
  check_str "sub to zero" "0" (Bignum.to_string (Bignum.sub a a));
  check_str "mul" "9999999999999999999800000000000000000001"
    (Bignum.to_string (Bignum.mul a a));
  check_str "mixed signs" "-99999999999999999998"
    (Bignum.to_string (Bignum.sub (Bignum.neg a) (Bignum.neg b)))

let test_bignum_divmod () =
  let check_div a b q r =
    let q', r' = Bignum.divmod (big a) (big b) in
    check_str (a ^ "/" ^ b ^ " quotient") q (Bignum.to_string q');
    check_str (a ^ "/" ^ b ^ " remainder") r (Bignum.to_string r')
  in
  check_div "100" "7" "14" "2";
  check_div "-100" "7" "-14" "-2";
  check_div "100" "-7" "-14" "2";
  check_div "123456789012345678901234567890" "987654321" "124999998873437499901"
    "574845669";
  check_div "5" "123456789012345678901234567890" "0" "5";
  (match Bignum.divmod Bignum.one Bignum.zero with
  | exception Division_by_zero -> ()
  | _ -> Alcotest.fail "expected Division_by_zero")

let test_bignum_gcd () =
  check_str "gcd" "6" (Bignum.to_string (Bignum.gcd (Bignum.of_int 48) (Bignum.of_int 18)));
  check_str "gcd big" "9"
    (Bignum.to_string (Bignum.gcd (big "123456789") (big "987654321")));
  check_str "gcd zero" "5" (Bignum.to_string (Bignum.gcd Bignum.zero (Bignum.of_int 5)))

let test_bignum_conversions () =
  check_int "to_int" 123456 (Option.get (Bignum.to_int_opt (big "123456")));
  check_bool "too big" true (Bignum.to_int_opt (big (String.make 30 '9')) = None);
  check_bool "fits fixnum" true (Bignum.fits_fixnum (Bignum.of_int 1000));
  check_bool "fixnum boundary" false (Bignum.fits_fixnum (Bignum.of_int (1 lsl 31)));
  Alcotest.(check (float 1.0)) "to_float" 1e20 (Bignum.to_float (big "100000000000000000000"));
  check_str "of_float" "1234567" (Bignum.to_string (Bignum.of_float 1234567.8))

let prop_bignum_addsub =
  QCheck2.Test.make ~count:500 ~name:"bignum add/sub round trip"
    QCheck2.Gen.(pair (int_range (-1000000000) 1000000000) (int_range (-1000000000) 1000000000))
    (fun (a, b) ->
      let ba = Bignum.of_int a and bb = Bignum.of_int b in
      Bignum.equal (Bignum.sub (Bignum.add ba bb) bb) ba)

let prop_bignum_divmod =
  QCheck2.Test.make ~count:500 ~name:"bignum divmod identity"
    QCheck2.Gen.(pair (int_range (-100000000) 100000000) (int_range 1 1000000))
    (fun (a, b) ->
      let ba = Bignum.of_int a and bb = Bignum.of_int b in
      let q, r = Bignum.divmod ba bb in
      Bignum.equal ba (Bignum.add (Bignum.mul q bb) r)
      && Bignum.compare (Bignum.abs r) bb < 0
      && Bignum.to_string q = string_of_int (a / b))

let prop_bignum_string_roundtrip =
  QCheck2.Test.make ~count:200 ~name:"bignum string round trip"
    QCheck2.Gen.(string_size ~gen:(char_range '0' '9') (int_range 1 40))
    (fun s ->
      let b = Bignum.of_string s in
      (* strip leading zeros for comparison *)
      let canonical =
        let s' = ref 0 in
        while !s' < String.length s - 1 && s.[!s'] = '0' do incr s' done;
        String.sub s !s' (String.length s - !s')
      in
      Bignum.to_string b = canonical)

(* Heap and GC ----------------------------------------------------------- *)

let test_heap_alloc_and_collect () =
  let rt = Rt.create () in
  let o = rt.Rt.obj in
  (* Allocate garbage; everything unreachable should be collected. *)
  for _ = 1 to 1000 do
    ignore (Obj.cons o (Obj.fixnum 1) rt.Rt.nil)
  done;
  Heap.collect rt.Rt.heap;
  let live1 = Heap.live_words rt.Rt.heap in
  (* A protected value survives. *)
  let keep = Obj.cons o (Obj.fixnum 42) rt.Rt.nil in
  Rt.protect rt keep;
  for _ = 1 to 1000 do
    ignore (Obj.cons o (Obj.fixnum 1) rt.Rt.nil)
  done;
  Heap.collect rt.Rt.heap;
  check_int "car survives GC" 42 (Obj.fixnum_value (Obj.car o keep));
  check_bool "garbage collected" true (Heap.live_words rt.Rt.heap < live1 + 100);
  check_bool "collections counted" true ((Heap.stats rt.Rt.heap).Heap.collections >= 2)

let test_heap_reuse () =
  (* A tiny heap must survive many transient allocations by recycling. *)
  let config = { S1_machine.Mem.default_config with heap_words = 4096 } in
  let rt = Rt.create ~config () in
  let o = rt.Rt.obj in
  for i = 1 to 100_000 do
    ignore (Obj.cons o (Obj.fixnum i) rt.Rt.nil)
  done;
  check_bool "many collections" true ((Heap.stats rt.Rt.heap).Heap.collections > 10)

let test_heap_deep_structure () =
  let rt = Rt.create () in
  let o = rt.Rt.obj in
  (* Build a long list, root it, collect, verify intact. *)
  let rec build n acc = if n = 0 then acc else build (n - 1) (Obj.cons o (Obj.fixnum n) acc) in
  let lst = build 10000 rt.Rt.nil in
  Rt.protect rt lst;
  for _ = 1 to 5000 do
    ignore (Obj.single o 3.14)
  done;
  Heap.collect rt.Rt.heap;
  let rec len w acc = if w = rt.Rt.nil then acc else len (Obj.cdr o w) (acc + 1) in
  check_int "list intact after GC" 10000 (len lst 0)

(* Object model ----------------------------------------------------------- *)

let test_obj_strings () =
  let rt = Rt.create () in
  let o = rt.Rt.obj in
  List.iter
    (fun s -> check_str ("string " ^ s) s (Obj.string_value o (Obj.string_ o s)))
    [ ""; "a"; "ab"; "abc"; "abcd"; "abcde"; "hello, world"; String.make 100 'x' ]

let test_obj_numbers () =
  let rt = Rt.create () in
  let o = rt.Rt.obj in
  Alcotest.(check (float 1e-6)) "single" 3.25 (Obj.single_value o (Obj.single o 3.25));
  Alcotest.(check (float 1e-12)) "double" 3.141592653589793
    (Obj.double_value o (Obj.double o 3.141592653589793));
  check_int "fixnum round trip" (-123456) (Obj.fixnum_value (Obj.fixnum (-123456)));
  let b = Bignum.of_string "123456789012345678901234567890" in
  check_str "bignum heap round trip" "123456789012345678901234567890"
    (Bignum.to_string (Obj.bignum_value o (Obj.bignum o b)))

let test_obj_vectors () =
  let rt = Rt.create () in
  let o = rt.Rt.obj in
  let v = Obj.vector o [| Obj.fixnum 1; Obj.fixnum 2; Obj.fixnum 3 |] in
  check_int "length" 3 (Obj.vector_length o v);
  check_int "ref" 2 (Obj.fixnum_value (Obj.vector_ref o v 1));
  Obj.vector_set o v 1 (Obj.fixnum 99);
  check_int "set" 99 (Obj.fixnum_value (Obj.vector_ref o v 1));
  (match Obj.vector_ref o v 5 with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected bounds error")

let test_obj_nil_car_cdr () =
  let rt = Rt.create () in
  let o = rt.Rt.obj in
  check_bool "car of nil is nil" true (Obj.car o rt.Rt.nil = rt.Rt.nil);
  check_bool "cdr of nil is nil" true (Obj.cdr o rt.Rt.nil = rt.Rt.nil);
  check_bool "nil is not a cons" true (not (Obj.is_cons o rt.Rt.nil))

(* Numerics ----------------------------------------------------------------- *)

let test_numerics_tower () =
  let rt = Rt.create () in
  let o = rt.Rt.obj in
  let dec w = Numerics.decode o w in
  let enc n = Numerics.encode o n in
  (* (/ 1 2) is the exact ratio 1/2 *)
  let half = Numerics.div (Numerics.of_int 1) (Numerics.of_int 2) in
  (match half with
  | Numerics.Rat (n, d) ->
      check_str "ratio num" "1" (Bignum.to_string n);
      check_str "ratio den" "2" (Bignum.to_string d)
  | _ -> Alcotest.fail "expected ratio");
  (* ratio + ratio collapsing to integer *)
  (match Numerics.add half half with
  | Numerics.Int b -> check_str "1/2+1/2" "1" (Bignum.to_string b)
  | _ -> Alcotest.fail "expected integer");
  (* float contagion *)
  (match Numerics.add half (Numerics.Single 0.25) with
  | Numerics.Single f -> Alcotest.(check (float 1e-6)) "contagion" 0.75 f
  | _ -> Alcotest.fail "expected single");
  (* fixnum overflow to bignum through encode *)
  let big_sum = Numerics.mul (Numerics.of_int (1 lsl 30)) (Numerics.of_int 4) in
  let w = enc big_sum in
  check_bool "overflow became bignum" true (Obj.tag_of w = S1_machine.Tags.Bignum);
  (match dec w with
  | Numerics.Int b -> check_str "value" "4294967296" (Bignum.to_string b)
  | _ -> Alcotest.fail "expected int")

let test_numerics_complex () =
  (* sqrt(-4) = 2i *)
  match Numerics.sqrt_ (Numerics.of_int (-4)) with
  | Numerics.Cpx (re, im) ->
      Alcotest.(check (float 1e-6)) "re" 0.0 (Numerics.to_float re);
      Alcotest.(check (float 1e-6)) "im" 2.0 (Numerics.to_float im)
  | _ -> Alcotest.fail "expected complex"

let test_numerics_rounding () =
  let q mode v = match fst (mode (Numerics.normalize_ratio (Bignum.of_int v) (Bignum.of_int 2))) with
    | Numerics.Int b -> Bignum.to_string b
    | _ -> "?"
  in
  check_str "floor 7/2" "3" (q Numerics.floor_ 7);
  check_str "floor -7/2" "-4" (q Numerics.floor_ (-7));
  check_str "ceiling 7/2" "4" (q Numerics.ceiling_ 7);
  check_str "truncate -7/2" "-3" (q Numerics.truncate_ (-7));
  check_str "round 7/2 ties even" "4" (q Numerics.round_ 7);
  check_str "round 5/2 ties even" "2" (q Numerics.round_ 5)

let test_numerics_expt () =
  match Numerics.expt (Numerics.of_int 3) (Numerics.of_int 40) with
  | Numerics.Int b -> check_str "3^40" "12157665459056928801" (Bignum.to_string b)
  | _ -> Alcotest.fail "expected int"

let prop_numerics_field =
  (* (a+b)-b = a over exact rationals *)
  QCheck2.Test.make ~count:300 ~name:"exact rational field ops"
    QCheck2.Gen.(
      quad (int_range (-1000) 1000) (int_range 1 100) (int_range (-1000) 1000) (int_range 1 100))
    (fun (an, ad, bn, bd) ->
      let a = Numerics.normalize_ratio (Bignum.of_int an) (Bignum.of_int ad) in
      let b = Numerics.normalize_ratio (Bignum.of_int bn) (Bignum.of_int bd) in
      Numerics.eql (Numerics.sub (Numerics.add a b) b) a)

(* Booted world ----------------------------------------------------------- *)

let test_rt_intern () =
  let rt = Builtins.boot () in
  let a = Rt.intern rt "FOO" and b = Rt.intern rt "FOO" in
  check_bool "interning is idempotent" true (a = b);
  check_str "symbol name" "FOO" (Rt.symbol_name rt a);
  check_bool "nil interned" true (Rt.intern rt "NIL" = rt.Rt.nil);
  check_bool "t value is t" true (Rt.symbol_value_dynamic rt rt.Rt.t_ = rt.Rt.t_)

let test_rt_sexp_roundtrip () =
  let rt = Builtins.boot () in
  let cases =
    [ "42"; "(1 2 3)"; "FOO"; "(A (B C) D)"; "3.5"; "\"hi\""; "(1 . 2)"; "2/3";
      "123456789012345678901234567890"; "(1 (2 (3 (4))))"; "#\\a" ]
  in
  List.iter
    (fun src ->
      let s = Reader.parse_one src in
      let w = Rt.sexp_to_value rt s in
      let s' = Rt.value_to_sexp rt w in
      Alcotest.check (Alcotest.testable Sexp.pp Sexp.equal) src s s')
    cases

let test_rt_print () =
  let rt = Builtins.boot () in
  let p src = Rt.print_value rt (Rt.sexp_to_value rt (Reader.parse_one src)) in
  check_str "list" "(1 2 3)" (p "(1 2 3)");
  check_str "nested" "(A (B) C)" (p "(a (b) c)");
  check_str "quote sugar" "'X" (p "(quote x)");
  check_str "dotted" "(1 . 2)" (p "(1 . 2)");
  check_str "ratio" "2/3" (p "4/6")

let test_rt_natives_via_call () =
  let rt = Builtins.boot () in
  let call name args = Rt.call rt (Rt.function_of rt (Rt.intern rt name)) args in
  let fx = Obj.fixnum in
  check_int "(+ 1 2 3)" 6 (Obj.fixnum_value (call "+" [ fx 1; fx 2; fx 3 ]));
  check_int "(* 2 3 4)" 24 (Obj.fixnum_value (call "*" [ fx 2; fx 3; fx 4 ]));
  check_bool "(< 1 2 3)" true (Rt.truthy rt (call "<" [ fx 1; fx 2; fx 3 ]));
  check_bool "(< 1 3 2)" false (Rt.truthy rt (call "<" [ fx 1; fx 3; fx 2 ]));
  let lst = call "LIST" [ fx 1; fx 2 ] in
  check_int "list length" 2 (Obj.fixnum_value (call "LENGTH" [ lst ]));
  let rev = call "REVERSE" [ lst ] in
  check_int "reverse car" 2 (Obj.fixnum_value (Obj.car rt.Rt.obj rev));
  (* exact rational division through the native *)
  let r = call "/" [ fx 1; fx 3 ] in
  check_str "exact division" "1/3" (Rt.print_value rt r);
  (* funcall through the simulator *)
  let plus = Rt.function_of rt (Rt.intern rt "+") in
  check_int "funcall" 7 (Obj.fixnum_value (call "FUNCALL" [ plus; fx 3; fx 4 ]));
  (* mapcar reenters the simulator per element *)
  let one_plus = Rt.function_of rt (Rt.intern rt "1+") in
  let mapped = call "MAPCAR" [ one_plus; lst ] in
  check_str "mapcar" "(2 3)" (Rt.print_value rt mapped)

let test_rt_arity_errors () =
  let rt = Builtins.boot () in
  let call name args = Rt.call rt (Rt.function_of rt (Rt.intern rt name)) args in
  (match call "CAR" [] with
  | exception Rt.Lisp_error _ -> ()
  | _ -> Alcotest.fail "expected arity error");
  match call "CAR" [ Obj.fixnum 1; Obj.fixnum 2 ] with
  | exception Rt.Lisp_error _ -> ()
  | _ -> Alcotest.fail "expected arity error"

let test_rt_deep_binding () =
  let rt = Builtins.boot () in
  let x = Rt.intern rt "*X*" in
  Rt.proclaim_special rt x;
  (* unbound read fails *)
  (match Rt.symbol_value_dynamic rt x with
  | exception Rt.Lisp_error _ -> ()
  | _ -> Alcotest.fail "expected unbound error");
  Rt.set_symbol_value_dynamic rt x (Obj.fixnum 1);
  check_int "global value" 1 (Obj.fixnum_value (Rt.symbol_value_dynamic rt x));
  Rt.bind_special rt x (Obj.fixnum 2);
  check_int "inner binding" 2 (Obj.fixnum_value (Rt.symbol_value_dynamic rt x));
  Rt.bind_special rt x (Obj.fixnum 3);
  check_int "nested binding" 3 (Obj.fixnum_value (Rt.symbol_value_dynamic rt x));
  (* assignment hits the innermost binding *)
  Rt.set_symbol_value_dynamic rt x (Obj.fixnum 30);
  check_int "assign innermost" 30 (Obj.fixnum_value (Rt.symbol_value_dynamic rt x));
  Rt.unbind_specials rt 1;
  check_int "pop to middle" 2 (Obj.fixnum_value (Rt.symbol_value_dynamic rt x));
  Rt.unbind_specials rt 1;
  check_int "pop to global" 1 (Obj.fixnum_value (Rt.symbol_value_dynamic rt x))

let test_rt_equal () =
  let rt = Builtins.boot () in
  let v src = Rt.sexp_to_value rt (Reader.parse_one src) in
  check_bool "equal lists" true (Rt.equal rt (v "(1 2 (3))") (v "(1 2 (3))"));
  check_bool "unequal lists" false (Rt.equal rt (v "(1 2 3)") (v "(1 2 4)"));
  check_bool "eql numbers" true (Rt.eql rt (v "3.5") (v "3.5"));
  check_bool "eql across types" false (Rt.eql rt (v "3") (v "3.0"));
  check_bool "equal strings" true (Rt.equal rt (v "\"abc\"") (v "\"abc\""));
  check_bool "eq symbols" true (Rt.eq rt (v "FOO") (v "FOO"))

let test_rt_gc_under_pressure_with_simulated_stack () =
  (* Values on the simulated stack must survive GC (conservative scan). *)
  let config = { S1_machine.Mem.default_config with heap_words = 8192 } in
  let rt = Builtins.boot ~config () in
  let o = rt.Rt.obj in
  let keep = Obj.cons o (Obj.fixnum 77) rt.Rt.nil in
  S1_machine.Cpu.push rt.Rt.cpu keep;
  for _ = 1 to 50_000 do
    ignore (Obj.cons o (Obj.fixnum 0) rt.Rt.nil)
  done;
  let popped = S1_machine.Cpu.pop rt.Rt.cpu in
  check_int "stack-held value survived" 77 (Obj.fixnum_value (Obj.car o popped))

(* The generic-arithmetic services compute fixnum-only cases directly.
   Every printed result and heap allocation counter must match the
   general numeric tower, at the fixnum range's edges (where results
   overflow into bignums) and with floats, ratios and bignums mixed in. *)
let test_rt_generic_fixnum_fast_path () =
  let module Cpu = S1_machine.Cpu in
  let rt = Builtins.boot () in
  let cpu = rt.Rt.cpu and obj = rt.Rt.obj in
  let alloc_counters () =
    List.filter
      (fun (k, _) -> String.starts_with ~prefix:"heap.alloc" k)
      (S1_obs.Obs.counters ())
  in
  let measured f =
    let before = alloc_counters () in
    let printed = f () in
    let after = alloc_counters () in
    (printed, List.map (fun (k, n) -> (k, n - Option.value ~default:0 (List.assoc_opt k before))) after)
  in
  let service id args () =
    List.iteri (fun i w -> Cpu.set_reg cpu i w) args;
    cpu.Cpu.service cpu id;
    Rt.print_value rt (Cpu.get_reg cpu 0)
  in
  let tower f args () =
    let nums = List.map (Numerics.decode obj) args in
    match f nums with
    | `Num n -> Rt.print_value rt (Numerics.encode obj n)
    | `Bool b -> Rt.print_value rt (Rt.bool_word rt b)
  in
  let two f = function [ a; b ] -> f a b | _ -> assert false in
  let rel r = two (fun a b -> `Bool (r (Numerics.compare_ a b) 0)) in
  let ops =
    [
      ("add", Svc.generic_add, two (fun a b -> `Num (Numerics.add a b)));
      ("sub", Svc.generic_sub, two (fun a b -> `Num (Numerics.sub a b)));
      ("lss", Svc.generic_lss, rel ( < ));
      ("leq", Svc.generic_leq, rel ( <= ));
      ("gtr", Svc.generic_gtr, rel ( > ));
      ("geq", Svc.generic_geq, rel ( >= ));
      ("num-eq", Svc.generic_num_eq, two (fun a b -> `Bool (Numerics.equal_value a b)));
    ]
  in
  let operands =
    List.map
      (fun src -> (src, Rt.sexp_to_value rt (Reader.parse_one src)))
      [ "1073741823"; "-1073741824"; "1"; "-1"; "0"; "1073741824"; "-1073741825"; "2.5"; "1/3";
        "-7" ]
  in
  List.iter
    (fun (name, id, f) ->
      List.iter
        (fun (sa, a) ->
          List.iter
            (fun (sb, b) ->
              let what = Printf.sprintf "%s %s %s" name sa sb in
              let want = measured (tower f [ a; b ]) in
              Alcotest.(check (pair string (list (pair string int)))) what want
                (measured (service id [ a; b ])))
            operands)
        operands)
    ops;
  List.iter
    (fun (sa, a) ->
      Alcotest.(check (pair string (list (pair string int))))
        ("zerop " ^ sa)
        (measured (tower (function [ n ] -> `Bool (Numerics.zerop n) | _ -> assert false) [ a ]))
        (measured (service Svc.generic_zerop [ a ])))
    operands;
  let fixnum_max = Obj.fixnum S1_machine.Word.fixnum_max
  and fixnum_min = Obj.fixnum S1_machine.Word.fixnum_min in
  let bignums f =
    let _, deltas = measured f in
    Option.value ~default:0 (List.assoc_opt "heap.alloc.bignum" deltas)
  in
  check_str "fixnum_max + 1" "1073741824" (service Svc.generic_add [ fixnum_max; Obj.fixnum 1 ] ());
  check_int "fixnum_max + 1 allocates a bignum" 1
    (bignums (service Svc.generic_add [ fixnum_max; Obj.fixnum 1 ]));
  check_str "fixnum_min - 1" "-1073741825" (service Svc.generic_sub [ fixnum_min; Obj.fixnum 1 ] ());
  check_int "fixnum_min - 1 allocates a bignum" 1
    (bignums (service Svc.generic_sub [ fixnum_min; Obj.fixnum 1 ]));
  check_int "a fixnum sum allocates nothing" 0
    (bignums (service Svc.generic_add [ fixnum_max; Obj.fixnum (-1) ]))

let () =
  Alcotest.run "runtime"
    [
      ( "bignum",
        [
          Alcotest.test_case "basics" `Quick test_bignum_basic;
          Alcotest.test_case "arithmetic" `Quick test_bignum_arith;
          Alcotest.test_case "divmod" `Quick test_bignum_divmod;
          Alcotest.test_case "gcd" `Quick test_bignum_gcd;
          Alcotest.test_case "conversions" `Quick test_bignum_conversions;
          QCheck_alcotest.to_alcotest prop_bignum_addsub;
          QCheck_alcotest.to_alcotest prop_bignum_divmod;
          QCheck_alcotest.to_alcotest prop_bignum_string_roundtrip;
        ] );
      ( "heap",
        [
          Alcotest.test_case "alloc and collect" `Quick test_heap_alloc_and_collect;
          Alcotest.test_case "reuse small heap" `Quick test_heap_reuse;
          Alcotest.test_case "deep structure" `Quick test_heap_deep_structure;
        ] );
      ( "obj",
        [
          Alcotest.test_case "strings" `Quick test_obj_strings;
          Alcotest.test_case "numbers" `Quick test_obj_numbers;
          Alcotest.test_case "vectors" `Quick test_obj_vectors;
          Alcotest.test_case "nil car/cdr" `Quick test_obj_nil_car_cdr;
        ] );
      ( "numerics",
        [
          Alcotest.test_case "tower" `Quick test_numerics_tower;
          Alcotest.test_case "complex" `Quick test_numerics_complex;
          Alcotest.test_case "rounding" `Quick test_numerics_rounding;
          Alcotest.test_case "expt" `Quick test_numerics_expt;
          QCheck_alcotest.to_alcotest prop_numerics_field;
        ] );
      ( "rt",
        [
          Alcotest.test_case "intern" `Quick test_rt_intern;
          Alcotest.test_case "sexp round trip" `Quick test_rt_sexp_roundtrip;
          Alcotest.test_case "printing" `Quick test_rt_print;
          Alcotest.test_case "natives via simulated call" `Quick test_rt_natives_via_call;
          Alcotest.test_case "arity errors" `Quick test_rt_arity_errors;
          Alcotest.test_case "deep binding" `Quick test_rt_deep_binding;
          Alcotest.test_case "equality" `Quick test_rt_equal;
          Alcotest.test_case "generic arithmetic fixnum fast path" `Quick
            test_rt_generic_fixnum_fast_path;
          Alcotest.test_case "gc with simulated stack roots" `Quick
            test_rt_gc_under_pressure_with_simulated_stack;
        ] );
    ]
