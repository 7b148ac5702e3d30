(* Tests for macro expansion, conversion to the internal tree, and
   back-translation. *)

module Sexp = S1_sexp.Sexp
module Reader = S1_sexp.Reader
open S1_frontend
open S1_ir

let parse = Reader.parse_one
let sexp_t = Alcotest.testable Sexp.pp Sexp.equal
let check_sexp = Alcotest.check sexp_t

let expand_str s = Macroexp.expand (parse s)

let test_expand_let () =
  check_sexp "let is a lambda call"
    (parse "((lambda (x y) (+ x y)) 1 2)")
    (expand_str "(let ((x 1) (y 2)) (+ x y))");
  check_sexp "empty-init binding"
    (parse "((lambda (x) x) ())")
    (expand_str "(let ((x)) x)");
  check_sexp "let* nests"
    (parse "((lambda (x) ((lambda (y) y) x)) 1)")
    (expand_str "(let* ((x 1) (y x)) y)")

let test_expand_cond () =
  check_sexp "cond to nested ifs"
    (parse "(if a 1 (if b 2 3))")
    (expand_str "(cond (a 1) (b 2) (t 3))");
  check_sexp "cond without default"
    (parse "(if a 1 ())")
    (expand_str "(cond (a 1))");
  check_sexp "multi-form body gets progn"
    (parse "(if a (progn 1 2) ())")
    (expand_str "(cond (a 1 2))")

let test_expand_and_or () =
  check_sexp "and" (parse "(if a (if b c ()) ())") (expand_str "(and a b c)");
  check_sexp "empty and" (parse "t") (expand_str "(and)");
  check_sexp "empty or" (parse "()") (expand_str "(or)");
  (* pure operands use the simple IF form *)
  check_sexp "or of variables" (parse "(if a a b)") (expand_str "(or a b)");
  (* effectful operands get the paper's lambda trick *)
  (match expand_str "(or (f) (g))" with
  | Sexp.List [ Sexp.List [ Sexp.Sym "LAMBDA"; Sexp.List [ Sexp.Sym v; Sexp.Sym fn ]; body ]; _; _ ]
    ->
      check_sexp "if inside"
        (Sexp.List [ Sexp.Sym "IF"; Sexp.Sym v; Sexp.Sym v; Sexp.List [ Sexp.Sym fn ] ])
        body
  | other -> Alcotest.failf "unexpected or-expansion %a" Sexp.pp other)

let test_expand_when_unless_setq () =
  check_sexp "when" (parse "(if p x ())") (expand_str "(when p x)");
  check_sexp "unless" (parse "(if p () x)") (expand_str "(unless p x)");
  check_sexp "multi setq"
    (parse "(progn (setq a 1) (setq b 2))")
    (expand_str "(setq a 1 b 2)")

let test_expand_quasiquote () =
  check_sexp "plain template" (parse "(cons 'a (cons 'b '()))") (expand_str "`(a b)");
  check_sexp "unquote" (parse "(cons 'a (cons x '()))") (expand_str "`(a ,x)");
  check_sexp "splice" (parse "(cons 'a (append xs '()))") (expand_str "`(a ,@xs)")

let test_expand_push_incf () =
  check_sexp "push" (parse "(setq s (cons e s))") (expand_str "(push e s)");
  check_sexp "incf" (parse "(setq i (1+ i))") (expand_str "(incf i)")

(* Conversion ------------------------------------------------------------ *)

let conv s = Convert.expression (parse s)

let test_convert_roundtrip () =
  (* back-translation must reproduce the core-form program *)
  let cases =
    [
      ("(if a 1 2)", "(IF A 1 2)");
      ("(quote (a b))", "'(A B)");
      ("42", "42");
      ("((lambda (x) x) 3)", "((LAMBDA (X) X) 3)");
      ("(+ 1 2)", "(+ 1 2)");
      ("(progn 1 2)", "(PROGN 1 2)");
    ]
  in
  List.iter
    (fun (src, expect) ->
      Alcotest.(check string) src expect (Backtrans.to_string (conv src)))
    cases

let test_convert_scoping () =
  (* Two distinct X variables must be distinct records. *)
  let n = conv "((lambda (x) ((lambda (x) x) x)) 1)" in
  let vars = ref [] in
  Node.iter
    (fun nd -> match nd.Node.kind with Node.Var v -> vars := v :: !vars | _ -> ())
    n;
  (match !vars with
  | [ a; b ] -> Alcotest.(check bool) "distinct vars" false (a.Node.v_id = b.Node.v_id)
  | _ -> Alcotest.failf "expected two variable references, got %d" (List.length !vars));
  (* Free variables become special (dynamic) references. *)
  let n2 = conv "free-var" in
  match n2.Node.kind with
  | Node.Var v -> Alcotest.(check bool) "free var is special" true v.Node.v_special
  | _ -> Alcotest.fail "expected var node"

let test_convert_shared_globals () =
  (* Two references to the same free name share the var record. *)
  let n = conv "(+ *g* *g*)" in
  let vars = ref [] in
  Node.iter
    (fun nd -> match nd.Node.kind with Node.Var v -> vars := v :: !vars | _ -> ())
    n;
  match !vars with
  | [ a; b ] -> Alcotest.(check bool) "same record" true (a == b)
  | _ -> Alcotest.fail "expected two refs"

let test_convert_optionals () =
  let _, lam = Convert.defun (parse "(defun testfn (a &optional (b 3.0) (c a)) c)") in
  match lam.Node.kind with
  | Node.Lambda l ->
      (match l.Node.l_params with
      | [ pa; pb; pc ] ->
          Alcotest.(check bool) "a required" true (pa.Node.p_kind = Node.Required);
          Alcotest.(check bool) "b optional" true (pb.Node.p_kind = Node.Optional);
          Alcotest.(check bool) "c optional" true (pc.Node.p_kind = Node.Optional);
          (* c's default references parameter a *)
          (match pc.Node.p_default with
          | Some { Node.kind = Node.Var v; _ } ->
              Alcotest.(check bool) "default refs a" true (v == pa.Node.p_var)
          | _ -> Alcotest.fail "expected default referencing A")
      | _ -> Alcotest.fail "expected three params");
      Alcotest.(check bool) "toplevel strategy" true (l.Node.l_strategy = Node.Toplevel)
  | _ -> Alcotest.fail "expected lambda"

let test_convert_rest () =
  let _, lam = Convert.defun (parse "(defun f (a &rest more) more)") in
  match lam.Node.kind with
  | Node.Lambda l ->
      Alcotest.(check int) "two params" 2 (List.length l.Node.l_params);
      Alcotest.(check bool) "rest kind" true
        ((List.nth l.Node.l_params 1).Node.p_kind = Node.Rest)
  | _ -> Alcotest.fail "expected lambda"

let test_convert_declare_special () =
  let n = conv "((lambda (x) (declare (special x)) x) 1)" in
  let found = ref false in
  Node.iter
    (fun nd ->
      match nd.Node.kind with
      | Node.Lambda l ->
          List.iter (fun p -> if p.Node.p_var.Node.v_special then found := true) l.Node.l_params
      | _ -> ())
    n;
  Alcotest.(check bool) "declared special" true !found

let test_convert_declare_type () =
  let n = conv "((lambda (x) (declare (single-float x)) x) 1.0)" in
  let found = ref None in
  Node.iter
    (fun nd ->
      match nd.Node.kind with
      | Node.Lambda l -> found := (List.hd l.Node.l_params).Node.p_var.Node.v_decl
      | _ -> ())
    n;
  Alcotest.(check bool) "declared SWFLO" true (!found = Some Node.SWFLO)

let test_convert_progbody () =
  let n = conv "(prog (x) loop (setq x 1) (go loop))" in
  (* prog => call of lambda whose body is a progbody *)
  let has_pb = ref false and has_go = ref false in
  Node.iter
    (fun nd ->
      match nd.Node.kind with
      | Node.Progbody pb ->
          has_pb := true;
          Alcotest.(check bool) "has tag" true
            (List.exists (function Node.Ptag "LOOP" -> true | _ -> false) pb.Node.pb_items)
      | Node.Go "LOOP" -> has_go := true
      | _ -> ())
    n;
  Alcotest.(check bool) "progbody present" true !has_pb;
  Alcotest.(check bool) "go present" true !has_go

let test_freshen () =
  let n = conv "((lambda (x) (+ x x)) 5)" in
  let n' = Freshen.copy n in
  (* Copy must use fresh variable ids. *)
  let ids tree =
    let acc = ref [] in
    Node.iter
      (fun nd -> match nd.Node.kind with Node.Var v -> acc := v.Node.v_id :: !acc | _ -> ())
      tree;
    List.sort_uniq compare !acc
  in
  let i1 = ids n and i2 = ids n' in
  Alcotest.(check bool) "disjoint var ids" true
    (List.for_all (fun i -> not (List.mem i i2)) i1);
  (* but identical back-translations modulo renaming *)
  Alcotest.(check string) "same shape" (Backtrans.to_string n) (Backtrans.to_string n')

(* Prims ------------------------------------------------------------------- *)

let test_prims_fold () =
  let fold name args =
    match Prims.find name with
    | Some { Prims.fold = Some f; _ } -> f args
    | _ -> None
  in
  check_sexp "fold +" (Sexp.Int 6) (Option.get (fold "+" [ Sexp.Int 1; Sexp.Int 2; Sexp.Int 3 ]));
  check_sexp "fold exact /" (Sexp.Ratio (1, 3)) (Option.get (fold "/" [ Sexp.Int 1; Sexp.Int 3 ]));
  check_sexp "fold float +"
    (Sexp.Float (3.5, Sexp.Single))
    (Option.get (fold "+" [ Sexp.Float (1.5, Sexp.Single); Sexp.Int 2 ]));
  check_sexp "fold <" (Sexp.Sym "T") (Option.get (fold "<" [ Sexp.Int 1; Sexp.Int 2 ]));
  check_sexp "fold car" (Sexp.Sym "A") (Option.get (fold "CAR" [ parse "(a b)" ]));
  check_sexp "fold expt big"
    (Sexp.Big "1267650600228229401496703205376")
    (Option.get (fold "EXPT" [ Sexp.Int 2; Sexp.Int 100 ]));
  Alcotest.(check bool) "no fold on variables" true (fold "+" [ Sexp.Sym "X" ] = None);
  Alcotest.(check bool) "division by zero doesn't fold" true
    (fold "/" [ Sexp.Int 1; Sexp.Int 0 ] = None)

let test_prims_metadata () =
  let p name = Option.get (Prims.find name) in
  Alcotest.(check bool) "+ commutative" true (p "+").Prims.commutative;
  Alcotest.(check bool) "+$F associative" true (p "+$F").Prims.associative;
  Alcotest.(check bool) "rplaca impure" false (p "RPLACA").Prims.pure;
  Alcotest.(check bool) "car pure" true (p "CAR").Prims.pure;
  check_sexp "identity of *" (Sexp.Int 1) (Option.get (p "*").Prims.identity);
  Alcotest.(check bool) "+$F wants SWFLO" true ((p "+$F").Prims.arg_rep = Some Node.SWFLO);
  Alcotest.(check bool) "sin$f pure on SWFLO" true
    ((p "SIN$F").Prims.pure && (p "SIN$F").Prims.arg_rep = Some Node.SWFLO)

let () =
  Alcotest.run "frontend"
    [
      ( "macroexp",
        [
          Alcotest.test_case "let" `Quick test_expand_let;
          Alcotest.test_case "cond" `Quick test_expand_cond;
          Alcotest.test_case "and/or" `Quick test_expand_and_or;
          Alcotest.test_case "when/unless/setq" `Quick test_expand_when_unless_setq;
          Alcotest.test_case "quasiquote" `Quick test_expand_quasiquote;
          Alcotest.test_case "push/incf" `Quick test_expand_push_incf;
        ] );
      ( "convert",
        [
          Alcotest.test_case "round trip" `Quick test_convert_roundtrip;
          Alcotest.test_case "scoping" `Quick test_convert_scoping;
          Alcotest.test_case "shared globals" `Quick test_convert_shared_globals;
          Alcotest.test_case "optionals" `Quick test_convert_optionals;
          Alcotest.test_case "rest" `Quick test_convert_rest;
          Alcotest.test_case "declare special" `Quick test_convert_declare_special;
          Alcotest.test_case "declare type" `Quick test_convert_declare_type;
          Alcotest.test_case "progbody" `Quick test_convert_progbody;
          Alcotest.test_case "freshen" `Quick test_freshen;
        ] );
      ( "prims",
        [
          Alcotest.test_case "folding" `Quick test_prims_fold;
          Alcotest.test_case "metadata" `Quick test_prims_metadata;
        ] );
    ]
