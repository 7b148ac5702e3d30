(* Tests for the source-level optimizer (paper §5): the three lambda
   rules, conditional distribution, canonicalizations, and the worked
   examples of §5 and §7. *)

module Sexp = S1_sexp.Sexp
module Reader = S1_sexp.Reader
open S1_ir
open S1_frontend
open S1_transform
module I = S1_interp.Interp
module Rt = S1_runtime.Rt

let parse = Reader.parse_one

let optimize ?config src =
  let n = Convert.expression (parse src) in
  let ts = Transcript.create () in
  ignore (Simplify.run ?config ~transcript:ts n);
  (n, ts)

let optimized_text ?config src =
  let n, _ = optimize ?config src in
  Backtrans.to_string n

let check_opt ?config msg expected src =
  Alcotest.(check string) msg expected (optimized_text ?config src)

let test_beta_basic () =
  check_opt "constant propagation + folding" "3" "((lambda (x) (+ x 1)) 2)";
  check_opt "let collapses" "7" "(let ((a 3) (b 4)) (+ a b))";
  check_opt "nested lets" "10" "(let* ((a 1) (b (+ a 2)) (c (+ a b 6))) c)";
  (* a free (dynamic) variable must NOT be substituted past a call... *)
  check_opt "free variable not aliased" "((LAMBDA (X) (F X)) Y)" "((lambda (x) (f x)) y)";
  (* ...but a lexical one is *)
  check_opt "lexical alias" "((LAMBDA (Y) (F Y)) (G))"
    "((lambda (y) ((lambda (x) (f x)) y)) (g))";
  check_opt "unused pure arg dropped" "'OK" "((lambda (x) 'ok) (+ 1 2))";
  (* unused but effectful argument is retained *)
  check_opt "unused effectful arg kept" "((LAMBDA (X) 'OK) (PRINT 1))"
    "((lambda (x) 'ok) (print 1))"

let test_beta_safety () =
  (* no substitution of an assigned parameter *)
  let out = optimized_text "((lambda (x) (progn (setq x 2) x)) (f))" in
  Alcotest.(check bool) "setq param not substituted" true
    (String.length out > 0
    &&
    (* must still bind x *)
    try
      ignore (Str.search_forward (Str.regexp_string "LAMBDA") out 0);
      true
    with Not_found -> false);
  (* allocation is not duplicated: (cons 1 2) referenced twice stays bound *)
  let out2 = optimized_text "((lambda (x) (list x x)) (cons 1 2))" in
  (try
     ignore (Str.search_forward (Str.regexp_string "LAMBDA") out2 0)
   with Not_found -> Alcotest.failf "allocation was duplicated: %s" out2);
  (* a mutable-memory read is not moved past effects: (car c) stays bound *)
  let out3 = optimized_text "((lambda (x) (progn (rplaca c 9) x)) (car c))" in
  try ignore (Str.search_forward (Str.regexp_string "LAMBDA") out3 0)
  with Not_found -> Alcotest.failf "mutable read was moved: %s" out3

let test_fold () =
  check_opt "arith" "42" "(* 6 7)";
  check_opt "exact ratio" "1/3" "(/ 1 3)";
  check_opt "comparison" "'YES" "(if (< 1 2) 'yes 'no)";
  check_opt "nested" "10" "(+ (* 2 3) (- 5 1))";
  check_opt "car of constant" "'A" "(car '(a b))";
  check_opt "no fold with variables" "(+ 1 X)" "(+ 1 x)"

let test_identity_and_reverse () =
  check_opt "additive identity" "X" "(+ x 0)";
  check_opt "multiplicative identity" "X" "(* 1 x)";
  check_opt "float identity" "X" "(+$f x 0.0)";
  check_opt "constants first" "(* 5 X)" "(* x 5)";
  (* non-commutative op unchanged *)
  check_opt "no reverse for -" "(- X 5)" "(- x 5)"

let test_assoc () =
  (* the paper's §7 shape: (+$f a b c) => (+$f (+$f c b) a) *)
  check_opt "paper's assoc nesting" "(+$F (+$F C B) A)" "(+$f a b c)";
  check_opt "mult too" "(*$F (*$F C B) A)" "(*$f a b c)";
  check_opt "four args" "(+$F (+$F (+$F D C) B) A)" "(+$f a b c d)";
  (* generic + with constants collapses them *)
  check_opt "partial constant folding" "(+ (+ 5 B) A)" "(+ a b 2 3)"

let test_if_rules () =
  check_opt "constant predicate true" "'A" "(if t 'a 'b)";
  check_opt "constant predicate false" "'B" "(if () 'a 'b)";
  check_opt "not inversion" "(IF P 'B 'A)" "(if (not p) 'a 'b)";
  check_opt "redundant inner test" "(IF P 'A 'C)" "(if p (if p 'a 'b) 'c)";
  check_opt "hoist progn predicate" "(PROGN (F) (IF P 'A 'B))" "(if (progn (f) p) 'a 'b)"

let test_boolean_short_circuit () =
  (* The §5 example: (if (and a (or b c)) e1 e2) with cheap arms reduces
     to pure nested conditionals with no value materialization. *)
  let out = optimized_text "(if (and a (or b c)) 'e1 'e2)" in
  Alcotest.(check string) "fully short-circuited" "(IF A (IF B 'E1 (IF C 'E1 'E2)) 'E2)" out

let test_boolean_short_circuit_with_thunks () =
  (* With expensive arms the f/g thunks appear and then integrate away
     into jump lambdas; the result must still contain each arm once. *)
  let out =
    optimized_text "(if (and a (or b c)) (expensive-1 x y z w q r) (expensive-2 x y z w q r))"
  in
  let count sub =
    let re = Str.regexp_string sub in
    let rec go i acc =
      match Str.search_forward re out i with
      | j -> go (j + 1) (acc + 1)
      | exception Not_found -> acc
    in
    go 0 0
  in
  Alcotest.(check int) "arm 1 appears exactly once" 1 (count "EXPENSIVE-1");
  Alcotest.(check int) "arm 2 appears exactly once" 1 (count "EXPENSIVE-2")

let test_sinc () =
  let out = optimized_text "(sin$f e)" in
  Alcotest.(check bool) "sinc appears" true
    (try ignore (Str.search_forward (Str.regexp_string "SINC$F") out 0); true
     with Not_found -> false);
  Alcotest.(check bool) "constant is first argument" true
    (try ignore (Str.search_forward (Str.regexp "(\\*\\$F 0\\.159") out 0); true
     with Not_found -> false)

let test_paper_testfn_transcript () =
  (* §7: the compiler's own worked example.  We reproduce the optimizer
     steps and check the rules fire in the documented order. *)
  let src =
    "((lambda (a b c)\n\
    \   ((lambda (d e)\n\
    \      ((lambda (q) (progn (frotz d e (max$f d e)) q))\n\
    \       (sin$f (*$f e 0.159154943))))\n\
    \    (+$f a b c) (*$f a b c)))\n\
    \  p1 p2 p3)"
  in
  (* NOTE: we drive the body shape directly; the &optional machinery is
     exercised by the codegen tests. *)
  let _, ts = optimize src in
  let rules = List.map (fun e -> e.Transcript.ev_rule) (Transcript.events ts) in
  let has r = List.mem r rules in
  Alcotest.(check bool) "assoc-commut fired" true (has "META-EVALUATE-ASSOC-COMMUT-CALL");
  Alcotest.(check bool) "reversing fired" true (has "CONSIDER-REVERSING-ARGUMENTS");
  Alcotest.(check bool) "substitution fired" true (has "META-SUBSTITUTE")

let test_transcript_format () =
  let _, ts = optimize "(+$f a b c)" in
  let text = Transcript.to_string ts in
  Alcotest.(check bool) "paper's transcript format" true
    (try
       ignore (Str.search_forward (Str.regexp_string ";**** Optimizing this form: (+$F A B C)") text 0);
       ignore (Str.search_forward (Str.regexp_string "courtesy of META-EVALUATE-ASSOC-COMMUT-CALL") text 0);
       true
     with Not_found -> false)

let test_caseq_constant () =
  check_opt "constant caseq" "'TWO" "(caseq 2 ((1) 'one) ((2) 'two) (t 'other))";
  check_opt "default" "'OTHER" "(caseq 9 ((1) 'one) (t 'other))"

let test_type_specialize () =
  let out =
    optimized_text
      "((lambda (x y) (declare (single-float x y)) (+ x y)) a b)"
  in
  Alcotest.(check bool) "+ became +$F" true
    (try ignore (Str.search_forward (Str.regexp_string "+$F") out 0); true
     with Not_found -> false)

let test_ablation_toggles () =
  let no_opt = Rules.nothing in
  Alcotest.(check string) "disabled optimizer leaves tree alone"
    "(+ 1 2)"
    (optimized_text ~config:no_opt "(+ 1 2)");
  let only_fold = { Rules.nothing with Rules.fold = true } in
  Alcotest.(check string) "folding alone works" "3" (optimized_text ~config:only_fold "(+ 1 2)")

(* Semantic preservation: optimizer output evaluates identically. -------- *)

let gen_program =
  (* closed programs over let-bound integer variables *)
  let open QCheck2.Gen in
  let var_names = [ "V1"; "V2"; "V3" ] in
  let rec expr n =
    if n = 0 then
      oneof
        [ map (fun i -> Sexp.Int i) (int_range (-20) 20);
          map (fun v -> Sexp.Sym v) (oneofl var_names) ]
    else
      oneof
        [
          map (fun i -> Sexp.Int i) (int_range (-20) 20);
          map (fun v -> Sexp.Sym v) (oneofl var_names);
          map2
            (fun op (a, b) -> Sexp.List [ Sexp.Sym op; a; b ])
            (oneofl [ "+"; "-"; "*"; "MAX"; "MIN" ])
            (pair (expr (n / 2)) (expr (n / 2)));
          map3
            (fun p a b -> Sexp.List [ Sexp.Sym "IF"; Sexp.List [ Sexp.Sym "<"; p; Sexp.Int 0 ]; a; b ])
            (expr (n / 3)) (expr (n / 2)) (expr (n / 2));
          map2
            (fun inits body ->
              Sexp.List
                [ Sexp.Sym "LET";
                  Sexp.List
                    (List.map2
                       (fun v e -> Sexp.List [ Sexp.Sym v; e ])
                       var_names inits);
                  body ])
            (flatten_l [ expr (n / 3); expr (n / 3); expr (n / 3) ])
            (expr (n / 2));
        ]
  in
  sized (fun n ->
      let open QCheck2.Gen in
      map2
        (fun inits body ->
          Sexp.List
            [ Sexp.Sym "LET";
              Sexp.List
                (List.map2 (fun v e -> Sexp.List [ Sexp.Sym v; e ]) var_names inits);
              body ])
        (flatten_l
           [ map (fun i -> Sexp.Int i) (int_range (-20) 20);
             map (fun i -> Sexp.Int i) (int_range (-20) 20);
             map (fun i -> Sexp.Int i) (int_range (-20) 20) ])
        (expr (min n 12)))

let prop_optimizer_preserves_semantics =
  QCheck2.Test.make ~count:200 ~name:"optimizer preserves interpreter semantics"
    gen_program (fun prog ->
      let it = I.boot () in
      let reference = I.eval_sexp it prog in
      let n = Convert.expression prog in
      ignore (Simplify.run n);
      let optimized = I.eval_node it n in
      Rt.equal it.I.rt reference optimized)

let () =
  Alcotest.run "transform"
    [
      ( "rules",
        [
          Alcotest.test_case "beta basics" `Quick test_beta_basic;
          Alcotest.test_case "beta safety" `Quick test_beta_safety;
          Alcotest.test_case "constant folding" `Quick test_fold;
          Alcotest.test_case "identity and reversing" `Quick test_identity_and_reverse;
          Alcotest.test_case "assoc canonicalization" `Quick test_assoc;
          Alcotest.test_case "if rules" `Quick test_if_rules;
          Alcotest.test_case "boolean short-circuit (paper §5)" `Quick
            test_boolean_short_circuit;
          Alcotest.test_case "short-circuit with thunks" `Quick
            test_boolean_short_circuit_with_thunks;
          Alcotest.test_case "sin to sinc" `Quick test_sinc;
          Alcotest.test_case "paper §7 transcript rules" `Quick test_paper_testfn_transcript;
          Alcotest.test_case "transcript format" `Quick test_transcript_format;
          Alcotest.test_case "caseq constant" `Quick test_caseq_constant;
          Alcotest.test_case "type specialization" `Quick test_type_specialize;
          Alcotest.test_case "ablation toggles" `Quick test_ablation_toggles;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_optimizer_preserves_semantics ]);
    ]
