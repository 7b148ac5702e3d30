(* End-to-end tests for the full compiler pipeline: source through the
   optimizer, representation analysis, TNBIND and code generation, run on
   the simulated S-1.  Includes the differential property test against
   the reference interpreter. *)

module Sexp = S1_sexp.Sexp
module Reader = S1_sexp.Reader
module C = S1_core.Compiler
module Rt = S1_runtime.Rt
module Obj = S1_runtime.Obj
module Cpu = S1_machine.Cpu
module I = S1_interp.Interp
module Prims = S1_frontend.Prims
module Gen = S1_codegen.Gen

let run ?options ?rules srcs =
  let c = C.create ?options ?rules () in
  let w = C.eval_string c srcs in
  (c, w)

let check ?options ?rules msg expected srcs =
  let c, w = run ?options ?rules srcs in
  Alcotest.(check string) msg expected (C.print_value c w)

let test_basics () =
  check "constant" "42" "42";
  check "arith" "3" "(+ 1 2)";
  check "quote" "(A B C)" "'(a b c)";
  check "if" "YES" "(if (< 1 2) 'yes 'no)";
  check "let" "12" "(let ((x 3) (y 4)) (* x y))";
  check "cons" "(1 . 2)" "(cons 1 2)";
  check "exact ratio" "1/3" "(/ 1 3)";
  check "string" "\"hi\"" "\"hi\"";
  check "progn" "3" "(progn 1 2 3)";
  check "setq" "(5 . 6)" "(let ((x 1)) (setq x 5) (cons x 6))"

let test_functions () =
  check "defun and call" "49" "(defun sq (x) (* x x)) (sq 7)";
  check "recursion" "3628800" "(defun fact (n) (if (zerop n) 1 (* n (fact (1- n))))) (fact 10)";
  check "bignum recursion" "15511210043330985984000000"
    "(defun fact (n) (if (zerop n) 1 (* n (fact (1- n))))) (fact 25)";
  check "mutual recursion"
    "T"
    "(defun even? (n) (if (zerop n) t (odd? (1- n))))\n\
     (defun odd? (n) (if (zerop n) () (even? (1- n))))\n\
     (even? 100)";
  check "multiple args" "9" "(defun f (a b c) (+ a (* b c))) (f 1 2 4)"

let test_optionals_and_rest () =
  let defs =
    "(defun testfn (a &optional (b 3.0) (c a)) (list a b c))\n"
  in
  check "three args" "(1.0 2.0 4.0)" (defs ^ "(testfn 1.0 2.0 4.0)");
  check "two args" "(1.0 2.0 1.0)" (defs ^ "(testfn 1.0 2.0)");
  check "one arg" "(1.0 3.0 1.0)" (defs ^ "(testfn 1.0)");
  check "rest" "(1 (2 3 4))" "(defun g (a &rest r) (list a r)) (g 1 2 3 4)";
  check "rest empty" "(1 ())" "(defun g (a &rest r) (list a r)) (g 1)";
  check "optional+rest" "(1 2 (3 4))"
    "(defun h (a &optional (b 9) &rest r) (list a b r)) (h 1 2 3 4)";
  check "optional+rest default" "(1 9 ())"
    "(defun h (a &optional (b 9) &rest r) (list a b r)) (h 1)";
  (* wrong arity errors *)
  let c = C.create () in
  ignore (C.eval_string c "(defun f2 (a b) a)");
  (match C.eval_string c "(f2 1)" with
  | exception Rt.Lisp_error _ -> ()
  | _ -> Alcotest.fail "expected arity error");
  match C.eval_string c "(f2 1 2 3)" with
  | exception Rt.Lisp_error _ -> ()
  | _ -> Alcotest.fail "expected arity error"

let test_paper_exptl () =
  let defs =
    "(defun exptl (x n a)\n\
    \  (cond ((zerop n) a)\n\
    \        ((oddp n) (exptl (* x x) (floor n 2) (* a x)))\n\
    \        (t (exptl (* x x) (floor n 2) a))))\n"
  in
  check "exptl small" "1024" (defs ^ "(exptl 2 10 1)");
  check "exptl bignum" "1267650600228229401496703205376" (defs ^ "(exptl 2 100 1)");
  (* X1: "it cannot produce stack overflow no matter how large n is" —
     tail-recursive calls compile as parameter-passing gotos.  exptl only
     recurses log2(n) times, so drive the point home with a linear loop
     as well. *)
  let c, _ =
    run
      (defs
      ^ "(defun loop-sum (n acc) (if (zerop n) acc (loop-sum (1- n) (+ acc n)))) (exptl 1 1 1)"
      )
  in
  Cpu.reset_stats c.C.rt.Rt.cpu;
  Alcotest.(check string) "loop-sum result" "200010000"
    (C.print_value c (C.eval_string c "(loop-sum 20000 0)"));
  let stats = c.C.rt.Rt.cpu.Cpu.stats in
  Alcotest.(check bool) "tail calls used" true (stats.Cpu.tcalls >= 20000);
  Alcotest.(check bool) "constant stack" true (stats.Cpu.stack_high < 200);
  Cpu.reset_stats c.C.rt.Rt.cpu;
  ignore (C.eval_string c "(exptl 2 65536 1)");
  Alcotest.(check bool) "exptl stack constant" true
    (c.C.rt.Rt.cpu.Cpu.stats.Cpu.stack_high < 400)

let test_paper_quadratic () =
  let defs =
    "(defun quadratic (a b c)\n\
    \  (let ((d (- (* b b) (* 4.0 a c))))\n\
    \    (cond ((< d 0) '())\n\
    \          ((= d 0) (list (/ (- b) (* 2.0 a))))\n\
    \          (t (let ((two-a (* 2.0 a)) (sd (sqrt d)))\n\
    \               (list (/ (+ (- b) sd) two-a)\n\
    \                     (/ (- (- b) sd) two-a)))))))\n"
  in
  check "two roots" "(2.0 1.0)" (defs ^ "(quadratic 1.0 -3.0 2.0)");
  check "one root" "(-1.0)" (defs ^ "(quadratic 1.0 2.0 1.0)");
  check "no roots" "()" (defs ^ "(quadratic 1.0 0.0 1.0)")

let test_floats_and_pdl () =
  (* type-specific float pipeline *)
  check "float add" "7.5" "(+$f 3.0 4.5)";
  check "nested float" "19.5" "(+$f (*$f 3.0 4.5) 6.0)";
  check "sinc" "1.0" "(sinc$f 0.25)";
  check "declared floats"
    "28.274334"
    "(defun circle-area (r) (declare (single-float r)) (* 3.14159265 (* r r)))\n\
     (circle-area 3.0)";
  (* X4: pdl numbers avoid heap boxes for intermediate floats *)
  let defs =
    "(defun fsum (n acc)\n\
    \  (declare (single-float acc))\n\
    \  (if (zerop n) acc (fsum (1- n) (+$f acc 1.5))))"
  in
  let heap_words options =
    let c = C.create ~options () in
    ignore (C.eval_string c defs);
    ignore (C.eval_string c "(fsum 10 0.0)");
    let before = (S1_runtime.Heap.stats c.C.rt.Rt.heap).S1_runtime.Heap.words_allocated in
    ignore (C.eval_string c "(fsum 2000 0.0)");
    (S1_runtime.Heap.stats c.C.rt.Rt.heap).S1_runtime.Heap.words_allocated - before
  in
  let with_pdl = heap_words S1_codegen.Gen.default_options in
  let without_pdl =
    heap_words { S1_codegen.Gen.default_options with S1_codegen.Gen.pdl_numbers = false }
  in
  Alcotest.(check bool)
    (Printf.sprintf "pdl numbers reduce heap allocation (%d vs %d)" with_pdl without_pdl)
    true
    (with_pdl <= without_pdl)

let test_closures () =
  check "make-adder" "15"
    "(defun make-adder (n) (lambda (x) (+ x n))) (funcall (make-adder 5) 10)";
  check "two environments" "3"
    "(defun make-adder (n) (lambda (x) (+ x n)))\n\
     (+ (funcall (make-adder 1) 0) (funcall (make-adder 2) 0))";
  check "shared mutable state" "3"
    "(defun make-counter () (let ((n 0)) (lambda () (setq n (1+ n)) n)))\n\
     (let ((c (make-counter))) (funcall c) (funcall c) (funcall c))";
  check "closure over loop" "(3 2 1)"
    "(let ((acc ()))\n\
    \  (dolist (x '(1 2 3)) (push x acc))\n\
    \  acc)";
  check "compiled closure through mapcar" "(1 4 9)"
    "(mapcar (lambda (x) (* x x)) '(1 2 3))";
  check "nested capture" "111"
    "(defun f (a) (lambda (b) (lambda (c) (+ a (+ b c)))))\n\
     (funcall (funcall (f 100) 10) 1)"

let test_specials () =
  check "defvar and read" "10" "(defvar *x* 10) (defun getx () *x*) (getx)";
  check "dynamic rebinding" "(10 99 10)"
    "(defvar *x* 10)\n\
     (defun getx () *x*)\n\
     (list (getx) (let ((*x* 99)) (declare (special *x*)) (getx)) (getx))";
  check "special param" "5"
    "(defvar *y* 1)\n\
     (defun usey () *y*)\n\
     (defun withy (*y*) (declare (special *y*)) (usey))\n\
     (withy 5)";
  check "setq special" "77" "(defvar *z* 1) (setq *z* 77) *z*";
  (* regression: a special read after the same function rebinds it must
     see the new binding, not a stale entry-cached cell *)
  check "rebind within same function" "5"
    "(defvar *x* 1)\n\
     (defun f () (let ((*x* 5)) (declare (special *x*)) *x*))\n\
     (f)";
  check "setq through fresh binding stays local" "(7 1)"
    "(defvar *x* 1)\n\
     (defun h () (let ((*x* 9)) (declare (special *x*)) (setq *x* 7) *x*))\n\
     (list (h) *x*)";
  check "throw pops bindings before cached reads" "(5 10)"
    "(defvar *v* 10)\n\
     (defun peek () *v*)\n\
     (defun probe ()\n\
    \  (list (catch 'x (let ((*v* 5)) (declare (special *v*)) (throw 'x *v*))) *v*))\n\
     (probe)";
  (* regression: LET of specials is a parallel binding — a later
     initializer reading an earlier-bound special must see the OLD
     binding (this is what the Gabriel STAK benchmark leans on) *)
  check "parallel special binding" "(1 0)"
    "(defvar *p* 0) (defvar *q* 0)\n\
     (defun peek2 () (list *p* *q*))\n\
     (let ((*p* 1) (*q* *p*)) (declare (special *p* *q*)) (peek2))";
  (* caching ablation gives same semantics *)
  let options =
    { S1_codegen.Gen.default_options with S1_codegen.Gen.cache_specials = false }
  in
  check ~options "no-cache semantics" "(10 99 10)"
    "(defvar *x* 10)\n\
     (defun getx () *x*)\n\
     (list (getx) (let ((*x* 99)) (declare (special *x*)) (getx)) (getx))"

let test_catch_throw () =
  check "catch value" "42" "(catch 'done (+ 1 (throw 'done 42)))";
  check "catch normal" "3" "(catch 'done 1 2 3)";
  check "throw across frames" "FROM-INNER"
    "(defun inner () (throw 'out 'from-inner))\n\
     (catch 'out (inner) 'unreached)";
  check "nested tags" "1" "(catch 'a (catch 'b (throw 'a 1)))";
  check "throw unwinds specials" "(5 10)"
    "(defvar *v* 10)\n\
     (defun peek () *v*)\n\
     (list (catch 'x (let ((*v* 5)) (declare (special *v*)) (throw 'x (peek)))) (peek))"

let test_prog_and_loops () =
  check "prog loop" "55"
    "(prog (i acc) (setq i 0) (setq acc 0)\n\
    \  loop (if (> i 10) (return acc))\n\
    \  (setq acc (+ acc i)) (setq i (1+ i)) (go loop))";
  check "do loop" "10" "(do ((i 0 (1+ i)) (acc 0 (+ acc i))) ((= i 5) acc))";
  check "dotimes" "10" "(let ((n 0)) (dotimes (i 5) (setq n (+ n i))) n)";
  check "fall-through nil" "()" "(prog () 1 2)"

let test_caseq () =
  check "fixnum keys" "TWO" "(caseq 2 ((1) 'one) ((2 3) 'two) (t 'other))";
  check "symbol keys" "B" "(caseq 'y ((x) 'a) ((y z) 'b))";
  check "no match" "()" "(caseq 'q ((x) 'a))";
  check "computed key" "BIG"
    "(defun size (n) (caseq (if (> n 10) 'big 'small) ((big) 'big) ((small) 'small)))\n\
     (size 100)"

let test_local_functions_regression () =
  (* Regression: a call inside a FAST local thunk must not be treated as
     function-tail — it once compiled as a JUMP lambda whose body %RET
     from the whole function, short-circuiting the accumulation. *)
  check "thunk call is not function-tail" "1200"
    "(defun classify (a b c n acc)\n\
    \  (if (zerop n) acc\n\
    \      (classify a b c (1- n)\n\
    \        (+ acc (let ((big (and a (or b c))))\n\
    \                 (if big (+ 1 2 3) (* 2 (+ 0 1))))))))\n\
     (classify t () t 200 0)";
  check "else path too" "400"
    "(defun classify (a b c n acc)\n\
    \  (if (zerop n) acc\n\
    \      (classify a b c (1- n)\n\
    \        (+ acc (let ((big (and a (or b c))))\n\
    \                 (if big (+ 1 2 3) (* 2 (+ 0 1))))))))\n\
     (classify () () t 200 0)"

let test_local_functions () =
  (* the §5 thunks compile as jump/fast lambdas *)
  check "or with effects" "5"
    "(defun f () 5)\n\
     (or (f) (error \"no\"))";
  check "short circuit" "E2"
    "(defun choose (a b c) (if (and a (or b c)) 'e1 'e2))\n\
     (choose t () ())";
  check "short circuit 2" "E1"
    "(defun choose (a b c) (if (and a (or b c)) 'e1 'e2))\n\
     (choose t () 3)"

let test_interop_with_interpreter () =
  (* compiled code calling interpreted code and vice versa *)
  let c = C.create () in
  ignore (I.eval_string c.C.it "(defun interp-double (x) (* x 2))");
  ignore (C.eval_string c "(defun comp-quad (x) (interp-double (interp-double x)))");
  Alcotest.(check string) "compiled calls interpreted" "20"
    (C.print_value c (C.eval_string c "(comp-quad 5)"));
  ignore (I.eval_string c.C.it "(defun interp-call-comp (x) (comp-quad x))");
  Alcotest.(check string) "interpreted calls compiled" "40"
    (C.print_value c (I.eval_string c.C.it "(interp-call-comp 10)"))

let test_gc_during_compiled_run () =
  let config = { S1_machine.Mem.default_config with S1_machine.Mem.heap_words = 16384 } in
  let c = C.create ~config () in
  ignore
    (C.eval_string c
       "(defun churn (n acc)\n\
       \  (if (zerop n) (length acc)\n\
       \      (churn (1- n) (cons (list 1 2 3) (cdr acc)))))");
  Alcotest.(check string) "survives collection" "1"
    (C.print_value c (C.eval_string c "(churn 20000 '(seed))"));
  Alcotest.(check bool) "collected during run" true
    ((S1_runtime.Heap.stats c.C.rt.Rt.heap).S1_runtime.Heap.collections > 0)

let test_ablation_options_preserve_semantics () =
  let probe = "(defun f (n acc) (if (zerop n) acc (f (1- n) (+ acc n)))) (f 100 0)" in
  List.iter
    (fun options -> check ~options "ablated compiler still correct" "5050" probe)
    [
      { S1_codegen.Gen.default_options with S1_codegen.Gen.use_tnbind = false };
      { S1_codegen.Gen.default_options with S1_codegen.Gen.pdl_numbers = false };
      { S1_codegen.Gen.default_options with S1_codegen.Gen.inline_prims = false };
      { S1_codegen.Gen.default_options with S1_codegen.Gen.cache_specials = false };
      { S1_codegen.Gen.default_options with S1_codegen.Gen.checked = false };
    ];
  check ~rules:S1_transform.Rules.nothing "optimizer off still correct" "5050" probe

let test_metacircular_soak () =
  (* a compiled Lisp interpreting Lisp: deep recursion, caseq dispatch,
     assoc environments, heavy consing — the full system under load *)
  let evaluator =
    "(defun env-lookup (name env)\n\
    \  (let ((hit (assq name env))) (if hit (cdr hit) (error \"unbound\"))))\n\
     (defun mbind (params args env)\n\
    \  (if (null params) env\n\
    \      (cons (cons (car params) (car args)) (mbind (cdr params) (cdr args) env))))\n\
     (defun mevlis (xs env) (if (null xs) () (cons (meval (car xs) env) (mevlis (cdr xs) env))))\n\
     (defun mapply (f args)\n\
    \  (if (and (consp f) (eq (car f) 'closure))\n\
    \      (meval (caddr f) (mbind (cadr f) args (cadr (cddr f))))\n\
    \      (error \"bad function\")))\n\
     (defun meval (e env)\n\
    \  (cond ((numberp e) e)\n\
    \        ((null e) ())\n\
    \        ((symbolp e) (env-lookup e env))\n\
    \        (t (caseq (car e)\n\
    \             ((quote) (cadr e))\n\
    \             ((if) (if (meval (cadr e) env) (meval (caddr e) env) (meval (cadr (cddr e)) env)))\n\
    \             ((lambda) (list 'closure (cadr e) (caddr e) env))\n\
    \             ((+) (+ (meval (cadr e) env) (meval (caddr e) env)))\n\
    \             ((-) (- (meval (cadr e) env) (meval (caddr e) env)))\n\
    \             ((*) (* (meval (cadr e) env) (meval (caddr e) env)))\n\
    \             ((<) (< (meval (cadr e) env) (meval (caddr e) env)))\n\
    \             (t (mapply (meval (car e) env) (mevlis (cdr e) env)))))))"
  in
  let c = C.create () in
  ignore (C.eval_string c evaluator);
  Alcotest.(check string) "meta factorial" "3628800"
    (C.print_value c
       (C.eval_string c
          "(meval '((lambda (fact n) (fact fact n))\n\
          \          (lambda (self k) (if (< k 1) 1 (* k (self self (- k 1)))))\n\
          \          10) ())"));
  Alcotest.(check string) "meta bignum factorial" "815915283247897734345611269596115894272000000000"
    (C.print_value c
       (C.eval_string c
          "(meval '((lambda (fact n) (fact fact n))\n\
          \          (lambda (self k) (if (< k 1) 1 (* k (self self (- k 1)))))\n\
          \          40) ())"))

(* Differential testing: compiled vs interpreted. ------------------------- *)

let gen_program =
  let open QCheck2.Gen in
  let var_names = [ "V1"; "V2"; "V3" ] in
  let rec expr n =
    if n = 0 then
      oneof
        [ map (fun i -> Sexp.Int i) (int_range (-50) 50);
          map (fun v -> Sexp.Sym v) (oneofl var_names) ]
    else
      frequency
        [
          (1, map (fun i -> Sexp.Int i) (int_range (-50) 50));
          (2, map (fun v -> Sexp.Sym v) (oneofl var_names));
          (3,
           map2
             (fun op (a, b) -> Sexp.List [ Sexp.Sym op; a; b ])
             (oneofl [ "+"; "-"; "*"; "MAX"; "MIN"; "CONS" ])
             (pair (expr (n / 2)) (expr (n / 2))));
          (2,
           map3
             (fun p a b ->
               Sexp.List
                 [ Sexp.Sym "IF"; Sexp.List [ Sexp.Sym "<"; p; Sexp.Int 0 ]; a; b ])
             (expr (n / 3)) (expr (n / 2)) (expr (n / 2)));
          (1,
           map2
             (fun e body ->
               Sexp.List
                 [ Sexp.Sym "LET"; Sexp.List [ Sexp.List [ Sexp.Sym "V2"; e ] ]; body ])
             (expr (n / 2)) (expr (n / 2)));
          (1,
           map2
             (fun e body ->
               Sexp.List
                 [ Sexp.Sym "PROGN"; Sexp.List [ Sexp.Sym "SETQ"; Sexp.Sym "V1"; e ]; body ])
             (expr (n / 2)) (expr (n / 2)));
          (1,
           map (fun e -> Sexp.List [ Sexp.Sym "CAR"; Sexp.List [ Sexp.Sym "CONS"; e; Sexp.nil ] ])
             (expr (n - 1)));
          (1,
           (* float literals: contagion and f36 rounding must agree *)
           map2
             (fun op (f, b) ->
               Sexp.List
                 [ Sexp.Sym op; Sexp.Float (float_of_int f /. 4.0, Sexp.Single); b ])
             (oneofl [ "+"; "-"; "*"; "MAX" ])
             (pair (int_range (-40) 40) (expr (n / 2))));
          (1,
           (* boolean thunk machinery: AND/OR of effectful tests *)
           map3
             (fun p q r ->
               Sexp.List
                 [ Sexp.Sym "IF";
                   Sexp.List
                     [ Sexp.Sym "AND";
                       Sexp.List [ Sexp.Sym "<"; p; Sexp.Int 0 ];
                       Sexp.List
                         [ Sexp.Sym "OR";
                           Sexp.List [ Sexp.Sym "<"; q; Sexp.Int 10 ];
                           Sexp.List [ Sexp.Sym "<"; Sexp.Int (-10) ; r ] ] ];
                   p; q ])
             (expr (n / 3)) (expr (n / 3)) (expr (n / 3)));
        ]
  in
  sized (fun n ->
      map2
        (fun inits body ->
          Sexp.List
            [ Sexp.Sym "LET";
              Sexp.List (List.map2 (fun v e -> Sexp.List [ Sexp.Sym v; e ]) var_names inits);
              body ])
        (flatten_l
           [ map (fun i -> Sexp.Int i) (int_range (-50) 50);
             map (fun i -> Sexp.Int i) (int_range (-50) 50);
             map (fun i -> Sexp.Int i) (int_range (-50) 50) ])
        (expr (min n 14)))

(* A generated program may be ill-typed (comparing a cons, say).  Type
   errors in this dialect are "is an error" situations, not guaranteed
   signals; the optimizer may legitimately delete an unused pure-but-
   failing computation.  Agreement therefore means: when the interpreter
   yields a value, the compiled code must yield an equal value; when the
   interpreter signals, the compiled code may signal or may have
   optimized the fault away — but a compiled signal on an interpreter
   success is a compiler bug. *)
let agree c compiled interpreted =
  let r1 = try Ok (compiled ()) with Rt.Lisp_error m -> Error m in
  let r2 = try Ok (interpreted ()) with Rt.Lisp_error m -> Error m in
  match (r1, r2) with
  | Ok v1, Ok v2 -> Rt.equal c.C.rt v1 v2
  | _, Error _ -> true
  | Error _, Ok _ -> false

let prop_compiled_matches_interpreted =
  QCheck2.Test.make ~count:150 ~name:"compiled code agrees with the interpreter"
    gen_program (fun prog ->
      let c = C.create () in
      agree c (fun () -> C.eval c prog) (fun () -> I.eval_sexp c.C.it prog))

let prop_optimizer_off_matches =
  QCheck2.Test.make ~count:75 ~name:"unoptimized compiled code agrees too"
    gen_program (fun prog ->
      let c = C.create ~rules:S1_transform.Rules.nothing () in
      agree c (fun () -> C.eval c prog) (fun () -> I.eval_sexp c.C.it prog))

(* Host-cost budgets.  Each row bounds the minor words one layer
   allocates per unit of its work, read from an Obs span after a warm-up
   round: the layer, the span read, what the words are divided by, and
   the bound. *)

(* (words, entries) of every span in a registry, by path. *)
let span_table ?t () =
  List.map
    (fun sp -> (sp.S1_obs.Obs.sp_path, (sp.S1_obs.Obs.sp_alloc, sp.S1_obs.Obs.sp_count)))
    (S1_obs.Obs.spans ?t ())

(* Words allocated in [span] while [f] runs it in a private registry. *)
let words_in span f =
  let t = S1_obs.Obs.create () in
  S1_obs.Obs.with_span ~t span f;
  fst (List.assoc span (span_table ~t ()))

let corpus_dir = if Sys.file_exists "corpus" then "corpus" else "test/corpus"

let corpus_files () =
  Sys.readdir corpus_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".lisp")
  |> List.sort compare

(* A warm boot clones the per-configuration boot image. *)
let boot_words span =
  ignore (C.create ());
  let words =
    words_in span (fun () ->
        for _ = 1 to 100 do
          ignore (Sys.opaque_identity (C.create ()))
        done)
  in
  (words, 100)

(* The pass guard costs what its pass changed, not the size of the
   tree: with an empty body it takes a census, opens a trail and verifies
   in one walk, allocating per guarded call rather than per node.  Words
   per tree node over every corpus unit. *)
let guard_words span =
  let units = ref [] in
  List.iter
    (fun f ->
      let c = C.create () in
      let specials = I.specials_pred c.C.rt and macros = I.macros_pred c.C.rt in
      In_channel.with_open_text (Filename.concat corpus_dir f) In_channel.input_all
      |> Reader.parse_string
      |> List.iter (fun form ->
             (match S1_frontend.Convert.toplevel form with
             | S1_frontend.Convert.Defun form ->
                 units := (c, snd (S1_frontend.Convert.defun ~specials ~macros form)) :: !units
             | Defmacro _ | Defvar _ | Proclaim _ -> ()
             | Toplevel form ->
                 let e = S1_frontend.Convert.expression ~specials ~macros form in
                 units := (c, S1_ir.Node.lambda [] e) :: !units);
             ignore (C.eval c form)))
    (corpus_files ());
  let guard_all () =
    List.iter
      (fun (c, root) -> C.guarded c ~pass:"simplify" ~stage:S1_ir.Verify.After_pdlnum root ignore)
      !units
  in
  guard_all ();
  (words_in span guard_all, List.fold_left (fun acc (_, root) -> acc + S1_ir.Node.size root) 0 !units)

(* Every corpus program compiled in a fresh world, twice: the global
   registry's span deltas over the second round, per span entry. *)
let corpus_round =
  lazy
    (let srcs =
       List.map
         (fun f -> In_channel.with_open_text (Filename.concat corpus_dir f) In_channel.input_all)
         (corpus_files ())
     in
     let round () = List.iter (fun src -> ignore (C.eval_string (C.create ()) src)) srcs in
     round ();
     let before = span_table () in
     round ();
     (before, span_table ()))

let corpus_words span =
  let before, after = Lazy.force corpus_round in
  let get spans = Option.value ~default:(0, 0) (List.assoc_opt span spans) in
  let (w0, n0), (w1, n1) = (get before, get after) in
  (w1 - w0, n1 - n0)

(* Simulated instructions allocate nothing on the host: the float codec
   keeps floats unboxed, calls resolve without options, heap counters are
   interned and the free list is arrays; with both profilers on, a call
   walks the calling-context tree by int keys.  Words per simulated
   instruction over three calls after one. *)
let words_per_instruction c call span =
  let rt = c.C.rt in
  let f = Rt.function_of rt (Rt.intern rt call) in
  ignore (Rt.call rt f []);
  let stats = rt.Rt.cpu.Cpu.stats in
  let i0 = stats.Cpu.instructions in
  let words =
    words_in span (fun () ->
        for _ = 1 to 3 do
          ignore (Sys.opaque_identity (Rt.call rt f []))
        done)
  in
  (words, stats.Cpu.instructions - i0)

let tak_words ~profiled span =
  let c = C.create () in
  if profiled then begin
    Cpu.enable_profile c.C.rt.Rt.cpu;
    Cpu.enable_callgraph c.C.rt.Rt.cpu
  end;
  ignore
    (C.eval_string c
       "(defun tak (x y z)\n\
       \  (if (not (< y x)) z (tak (tak (1- x) y z) (tak (1- y) z x) (tak (1- z) x y))))\n\
        (defun run-tak () (tak 13 4 1))");
  words_per_instruction c "RUN-TAK" span

(* fsum's flonums fill the free blocks of a fragmented heap.  The bound
   is loose because the dev profile does not inline the codec across
   modules. *)
let fsum_words span =
  let c = C.create ~config:{ S1_machine.Mem.default_config with heap_words = 1 lsl 15 } () in
  ignore
    (C.eval_string c
       "(defun fsum (n acc) (declare (single-float acc))\n\
       \  (if (zerop n) acc (fsum (1- n) (+$f 0.25 (*$f 0.5 (+$f 0.125 (*$f acc 0.99)))))))\n\
        (defun run-fsum () (fsum 6718 0.0))");
  (* a kept cons between every two dead ones: the collection leaves a
     free block per dead pair, and fsum's flonums fill them first fit *)
  let rt = c.C.rt in
  let keep = ref rt.Rt.nil in
  for i = 1 to 3000 do
    ignore (Obj.cons rt.Rt.obj (Obj.fixnum i) (Obj.cons rt.Rt.obj (Obj.fixnum i) rt.Rt.nil));
    keep := Obj.cons rt.Rt.obj (Obj.fixnum i) !keep
  done;
  Rt.protect rt !keep;
  S1_runtime.Heap.collect rt.Rt.heap;
  words_per_instruction c "RUN-FSUM" span

(* A warm hit: every corpus file at the default point served from a disk
   cache a cold round filled, through a fresh cache instance so each find
   reads and verifies the blob.  Words in the three spans of a hit (find,
   decode, replay) over the second warm round, per hit. *)
let warm_hit_words prefix =
  let module Serve = S1_serve.Serve in
  let dir = Filename.temp_dir "s1-warm-hit" "" in
  let srcs =
    List.map
      (fun f -> (f, In_channel.with_open_text (Filename.concat corpus_dir f) In_channel.input_all))
      (corpus_files ())
  in
  let round () =
    let cache = S1_serve.Cache.create ~dir () in
    List.iter
      (fun (file, src) -> ignore (Serve.compile_file ~cache Serve.default_cfg ~file src))
      srcs
  in
  round ();
  round ();
  let served () =
    let spans = span_table () in
    let get step = Option.value ~default:(0, 0) (List.assoc_opt (prefix ^ step) spans) in
    (fst (get "find") + fst (get "decode") + fst (get "execute"), snd (get "decode"))
  in
  let w0, n0 = served () in
  round ();
  let w1, n1 = served () in
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir;
  (w1 - w0, n1 - n0)

type budget = {
  b_test : string;
  b_layer : string;
  b_span : string;
  b_per : string;
  b_bound : float;
  b_words : string -> int * int;  (** words allocated in the named span, units of work *)
}

(* Each bound is the larger of its row's dev and release figures when it
   was set, plus about 5%.  Code generation and loading allocating only
   what they emit took compile, codegen, load and the warm hit to 2 955,
   1 033, 284 and 4 859 words (from 4 932, 2 573, 522 and 5 416);
   re-analysis allocating only what it re-derives took simplify and
   convert to 604 and 827 (from 2 795 and 854).  The warm boot bound was
   set at 1 193. *)
let budgets =
  [
    { b_test = "warm boot allocation"; b_layer = "boot"; b_span = "boot"; b_per = "warm boot";
      b_bound = 1253.; b_words = boot_words };
    { b_test = "simulator host allocation"; b_layer = "machine"; b_span = "run";
      b_per = "simulated instruction (tak)"; b_bound = 0.02; b_words = tak_words ~profiled:false };
    { b_test = "fragmented heap host allocation"; b_layer = "machine"; b_span = "run";
      b_per = "simulated instruction (fsum)"; b_bound = 1.5; b_words = fsum_words };
    { b_test = "profiled instruction allocation"; b_layer = "machine"; b_span = "run";
      b_per = "simulated instruction (tak, both profilers)"; b_bound = 0.1;
      b_words = tak_words ~profiled:true };
    { b_test = "pass guard allocation"; b_layer = "guard"; b_span = "guard"; b_per = "tree node";
      b_bound = 20.; b_words = guard_words };
    { b_test = "compile allocation"; b_layer = "compile"; b_span = "compile";
      b_per = "compiled unit"; b_bound = 3105.; b_words = corpus_words };
    { b_test = "codegen allocation"; b_layer = "codegen"; b_span = "compile/codegen";
      b_per = "compiled unit"; b_bound = 1085.; b_words = corpus_words };
    { b_test = "simplify allocation"; b_layer = "simplify"; b_span = "compile/phases/simplify";
      b_per = "compiled unit"; b_bound = 635.; b_words = corpus_words };
    { b_test = "convert allocation"; b_layer = "frontend"; b_span = "convert";
      b_per = "converted form"; b_bound = 868.; b_words = corpus_words };
    { b_test = "load allocation"; b_layer = "load"; b_span = "compile/load";
      b_per = "loaded unit"; b_bound = 298.; b_words = corpus_words };
    { b_test = "warm hit allocation"; b_layer = "serve"; b_span = "serve.";
      b_per = "warm hit"; b_bound = 5100.; b_words = warm_hit_words };
  ]

let test_budget b () =
  let words, units = b.b_words b.b_span in
  let per = float_of_int words /. float_of_int (max 1 units) in
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.3f minor words per %s, at most %g" b.b_layer per b.b_per b.b_bound)
    true
    (units > 0 && per <= b.b_bound)

(* The prim table's open-coded arities are the ones the generator emits
   inline: a call at any other arity goes through the callee's function
   cell, and a call at an open-coded arity asks for no cell.  Rules are
   off, so every call reaches the generator as written.  Representation
   analysis reads the same range; a pair on which the two disagreed was
   a miscompile (3-ary -, unary MAX$F). *)
let test_open_coded_arities () =
  let c = C.create ~rules:S1_transform.Rules.nothing () in
  let wrong =
    List.concat_map
      (fun (p : Prims.t) ->
        List.filter_map
          (fun nargs ->
            let params = List.init nargs (fun i -> Sexp.Sym (Printf.sprintf "A%d" i)) in
            let form =
              Sexp.List
                [ Sexp.Sym "DEFUN"; Sexp.Sym "F"; Sexp.List params;
                  Sexp.List (Sexp.Sym p.Prims.name :: params) ]
            in
            let unit_, _ = C.compile_defun c form in
            let native = List.mem (Gen.Rfun_cell p.Prims.name) unit_.Gen.c_refs in
            if native = Prims.open_codes p nargs then
              Some (Printf.sprintf "%s/%d %s" p.Prims.name nargs
                      (if native then "calls its native" else "has no native call"))
            else None)
          [ 0; 1; 2; 3 ])
      Prims.table
  in
  Alcotest.(check (list string)) "open-coded exactly where the table says" [] wrong

let () =
  Alcotest.run "compiler"
    [
      ( "compiled",
        [
          Alcotest.test_case "basics" `Quick test_basics;
          Alcotest.test_case "functions" `Quick test_functions;
          Alcotest.test_case "optionals and rest" `Quick test_optionals_and_rest;
          Alcotest.test_case "paper exptl (X1)" `Quick test_paper_exptl;
          Alcotest.test_case "paper quadratic (X2)" `Quick test_paper_quadratic;
          Alcotest.test_case "floats and pdl numbers" `Quick test_floats_and_pdl;
          Alcotest.test_case "closures (X9)" `Quick test_closures;
          Alcotest.test_case "special variables" `Quick test_specials;
          Alcotest.test_case "catch/throw" `Quick test_catch_throw;
          Alcotest.test_case "prog and loops" `Quick test_prog_and_loops;
          Alcotest.test_case "caseq" `Quick test_caseq;
          Alcotest.test_case "local functions" `Quick test_local_functions;
          Alcotest.test_case "local function tail regression" `Quick
            test_local_functions_regression;
          Alcotest.test_case "interpreter interop" `Quick test_interop_with_interpreter;
          Alcotest.test_case "gc during compiled run" `Quick test_gc_during_compiled_run;
          Alcotest.test_case "ablations preserve semantics" `Quick
            test_ablation_options_preserve_semantics;
          Alcotest.test_case "metacircular soak" `Quick test_metacircular_soak;
          Alcotest.test_case "open-coded arities match the generator" `Quick
            test_open_coded_arities;
        ]
        @ List.map (fun b -> Alcotest.test_case b.b_test `Quick (test_budget b)) budgets );
      ( "differential",
        [
          QCheck_alcotest.to_alcotest prop_compiled_matches_interpreted;
          QCheck_alcotest.to_alcotest prop_optimizer_off_matches;
        ] );
    ]
