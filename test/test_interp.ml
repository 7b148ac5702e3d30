(* Tests for the reference interpreter: the dialect's semantics. *)

open S1_runtime
module I = S1_interp.Interp

let run_str ?(defs = "") expr =
  let it = I.boot () in
  if defs <> "" then ignore (I.eval_string it defs);
  let w = I.eval_string it expr in
  (it, w)

let check_result ?(defs = "") expr expected =
  let it, w = run_str ~defs expr in
  Alcotest.(check string) expr expected (Rt.print_value it.I.rt w)

let test_basics () =
  check_result "42" "42";
  check_result "(+ 1 2)" "3";
  check_result "(if (< 1 2) 'yes 'no)" "YES";
  check_result "(if () 'yes 'no)" "NO";
  check_result "'(a b c)" "(A B C)";
  check_result "(car '(1 2 3))" "1";
  check_result "(cons 1 2)" "(1 . 2)";
  check_result "(progn 1 2 3)" "3";
  check_result "\"hello\"" "\"hello\"";
  check_result "(/ 1 3)" "1/3";
  check_result "(+ 1/3 2/3)" "1";
  check_result "(* 1000000000 1000000000 1000000000)" "1000000000000000000000000000"

let test_let_and_lambda () =
  check_result "(let ((x 2) (y 3)) (* x y))" "6";
  check_result "(let* ((x 2) (y (* x x))) y)" "4";
  check_result "((lambda (x) (* x x)) 7)" "49";
  check_result "(funcall (lambda (x y) (- x y)) 10 4)" "6";
  check_result "(funcall (function cons) 1 2)" "(1 . 2)"

let test_closures () =
  check_result
    ~defs:"(defun make-adder (n) (lambda (x) (+ x n)))"
    "(funcall (make-adder 5) 10)" "15";
  (* closures share mutable state *)
  check_result
    ~defs:
      "(defun make-counter () (let ((n 0)) (lambda () (setq n (1+ n)) n)))\n\
       (defun poke (c) (funcall c))"
    "(let ((c (make-counter))) (poke c) (poke c) (poke c))"
    "3";
  (* two closures over distinct environments *)
  check_result
    ~defs:"(defun make-adder (n) (lambda (x) (+ x n)))"
    "(+ (funcall (make-adder 1) 0) (funcall (make-adder 2) 0))" "3"

let test_exptl () =
  (* The paper's tail-recursive exponentiation (§2). *)
  let defs =
    "(defun exptl (x n a)\n\
    \  (cond ((zerop n) a)\n\
    \        ((oddp n) (exptl (* x x) (floor n 2) (* a x)))\n\
    \        (t (exptl (* x x) (floor n 2) a))))"
  in
  check_result ~defs "(exptl 2 10 1)" "1024";
  check_result ~defs "(exptl 3 5 1)" "243";
  check_result ~defs "(exptl 2 100 1)" "1267650600228229401496703205376"

let test_quadratic () =
  (* The paper's quadratic example (§4.1), with exact rationals. *)
  let defs =
    "(defun quadratic (a b c)\n\
    \  (let ((d (- (* b b) (* 4.0 a c))))\n\
    \    (cond ((< d 0) '())\n\
    \          ((= d 0) (list (/ (- b) (* 2.0 a))))\n\
    \          (t (let ((two-a (* 2.0 a)) (sd (sqrt d)))\n\
    \               (list (/ (+ (- b) sd) two-a)\n\
    \                     (/ (- (- b) sd) two-a)))))))"
  in
  check_result ~defs "(quadratic 1.0 -3.0 2.0)" "(2.0 1.0)";
  check_result ~defs "(quadratic 1.0 2.0 1.0)" "(-1.0)";
  check_result ~defs "(quadratic 1.0 0.0 1.0)" "()"

let test_testfn_optionals () =
  (* The paper's §7 example: optional arguments with dependent defaults. *)
  let defs =
    "(defun frotz (d e m) (list d e m))\n\
     (defun testfn (a &optional (b 3.0) (c a))\n\
    \  (let ((d (+$f a b c)) (e (*$f a b c)))\n\
    \    (let ((q (sin$f e)))\n\
    \      (frotz d e (max$f d e))\n\
    \      q)))"
  in
  let it = I.boot () in
  ignore (I.eval_string it defs);
  let r3 = I.eval_string it "(testfn 1.0 2.0 4.0)" in
  Alcotest.(check string) "three args" "0.989358"
    (Printf.sprintf "%.6f"
       (Obj.single_value it.I.rt.Rt.obj r3));
  (* sine of 1*2*4 = sine of 8 *)
  let r1 = I.eval_string it "(testfn 2.0)" in
  (* b defaults to 3.0, c defaults to a=2.0: e = 2*3*2 = 12; sin 12 *)
  Alcotest.(check (float 1e-5)) "one arg" (sin 12.0) (Obj.single_value it.I.rt.Rt.obj r1);
  let r2 = I.eval_string it "(testfn 2.0 1.0)" in
  (* c defaults to a: e = 2*1*2 = 4 *)
  Alcotest.(check (float 1e-5)) "two args" (sin 4.0) (Obj.single_value it.I.rt.Rt.obj r2)

let test_specials () =
  check_result
    ~defs:
      "(defvar *depth* 0)\n\
       (defun probe () *depth*)\n\
       (defun descend (f) (let ((*depth* (1+ *depth*))) (declare (special *depth*)) (funcall f)))"
    "(list (probe) (descend (function probe)) (probe))"
    "(0 1 0)";
  (* defvar proclaims special: LET rebinding is dynamic even without a
     local declare once proclaimed... here we test explicit declares. *)
  check_result
    ~defs:"(defvar *x* 10)\n(defun get-x () *x*)"
    "(list (get-x) (let ((*x* 99)) (declare (special *x*)) (get-x)) (get-x))"
    "(10 99 10)"

let test_caseq () =
  check_result "(caseq 2 ((1) 'one) ((2 3) 'two-or-three) (t 'other))" "TWO-OR-THREE";
  check_result "(caseq 9 ((1) 'one) (t 'other))" "OTHER";
  check_result "(caseq 'b ((a) 1) ((b) 2))" "2";
  check_result "(caseq 'z ((a) 1))" "()"

let test_catch_throw () =
  check_result "(catch 'done (+ 1 (throw 'done 42)))" "42";
  check_result "(catch 'done 1 2 3)" "3";
  check_result
    ~defs:"(defun inner () (throw 'out 'from-inner))"
    "(catch 'out (inner) 'not-reached)" "FROM-INNER";
  (* nested catches with distinct tags *)
  check_result "(catch 'a (catch 'b (throw 'a 1)))" "1";
  check_result "(catch 'a (catch 'b (throw 'b 2)))" "2";
  (* throw with no catch errors *)
  let it = I.boot () in
  match I.eval_string it "(throw 'nowhere 1)" with
  | exception Rt.Lisp_error _ -> ()
  | _ -> Alcotest.fail "expected no-catch error"

let test_prog_go_return () =
  check_result
    "(prog (i acc)\n\
    \  (setq i 0) (setq acc 0)\n\
    \  loop\n\
    \  (if (> i 10) (return acc))\n\
    \  (setq acc (+ acc i))\n\
    \  (setq i (1+ i))\n\
    \  (go loop))"
    "55";
  (* fall-through returns nil *)
  check_result "(prog () 1 2)" "()";
  check_result "(do ((i 0 (1+ i)) (acc 0 (+ acc i))) ((= i 5) acc))" "10";
  check_result "(let ((acc ())) (dolist (x '(1 2 3)) (push x acc)) acc)" "(3 2 1)";
  check_result "(let ((n 0)) (dotimes (i 5) (setq n (+ n i))) n)" "10"

let test_do_parallel_stepping () =
  (* DO steps in parallel: b sees a's previous value. *)
  check_result "(do ((a 0 (1+ a)) (b 0 a)) ((= a 3) b))" "2"

let test_rest_args () =
  check_result ~defs:"(defun f (a &rest r) (cons a r))" "(f 1 2 3)" "(1 2 3)";
  check_result ~defs:"(defun f (a &rest r) (cons a r))" "(f 1)" "(1)";
  check_result ~defs:"(defun g (&rest r) (length r))" "(g 1 2 3 4 5)" "5"

let test_mapcar_and_apply () =
  check_result "(mapcar (lambda (x) (* x x)) '(1 2 3 4))" "(1 4 9 16)";
  check_result "(apply (function +) 1 2 '(3 4))" "10";
  check_result "(reduce (function +) '(1 2 3 4) 0)" "10"

let test_tail_recursion_interp () =
  (* Interpreted deep recursion relies on OCaml's stack; moderate depth. *)
  check_result
    ~defs:"(defun count-down (n) (if (zerop n) 'done (count-down (1- n))))"
    "(count-down 10000)" "DONE"

let test_setq_through_closure () =
  check_result
    "(let ((x 1))\n\
    \  (let ((setter (lambda (v) (setq x v))))\n\
    \    (funcall setter 42)\n\
    \    x))"
    "42"

let test_numeric_parity_with_spec () =
  (* floor/mod semantics on negatives *)
  check_result "(floor -7 2)" "-4";
  check_result "(truncate -7 2)" "-3";
  check_result "(mod -7 2)" "1";
  check_result "(rem -7 2)" "-1";
  check_result "(expt 2 10)" "1024";
  check_result "(max 1 5 3)" "5";
  check_result "(abs -2/3)" "2/3"

let test_output () =
  let it, _ = run_str "(progn (princ 'hello) (terpri) (princ 42))" in
  Alcotest.(check string) "output" "HELLO\n42" (Rt.output it.I.rt)

(* Boot images ------------------------------------------------------------------ *)

module Mem = S1_machine.Mem
module Cpu = S1_machine.Cpu

(* Everything a boot leaves in a world, field by field: every memory word,
   the static allocation pointer, the code store with its symbol ranges
   and line maps, the obarray's bindings in iteration order, NIL and T,
   heap statistics, the gensym counter, registers and the trampoline. *)
type fingerprint = {
  fp_words : int array;
  fp_static_next : int;
  fp_code : S1_machine.Isa.instr array;
  fp_symbols : (int * int * string) list;
  fp_segments : (int * int) list;
  fp_obarray : (string * int) list;
  fp_nil_t : int * int;
  fp_heap : int * int * int * int;
  fp_gensym : int;
  fp_regs : int array;
  fp_trampoline : int;
}

let fingerprint (it : I.t) =
  let rt = it.I.rt in
  let cpu = rt.Rt.cpu and mem = rt.Rt.mem in
  let h = Heap.stats rt.Rt.heap in
  {
    fp_words = Array.init (Mem.size mem) (Mem.read mem);
    fp_static_next = Mem.static_used mem;
    fp_code = Array.sub cpu.Cpu.code 0 cpu.Cpu.code_len;
    fp_symbols = cpu.Cpu.symbols;
    fp_segments = List.map (fun (lo, hi, _) -> (lo, hi)) cpu.Cpu.mark_segments;
    fp_obarray = Hashtbl.fold (fun k v acc -> (k, v) :: acc) rt.Rt.obarray [];
    fp_nil_t = (rt.Rt.nil, rt.Rt.t_);
    fp_heap = Heap.(h.allocations, h.words_allocated, h.collections, h.live_after_last_gc);
    fp_gensym = rt.Rt.gensym_counter;
    fp_regs = Array.copy cpu.Cpu.regs;
    fp_trampoline = it.I.trampoline;
  }

let scratch_boot config =
  let rt = Builtins.boot ~config () in
  I.create rt

let tiny_heap = { Mem.default_config with Mem.heap_words = 4096 }

let test_clone_equals_scratch () =
  List.iter
    (fun (name, config) ->
      let clone = fingerprint (I.boot ~config ()) in
      let scratch = fingerprint (scratch_boot config) in
      let check what f = Alcotest.(check bool) (name ^ ": " ^ what) true (f clone = f scratch) in
      check "memory words" (fun f -> f.fp_words);
      check "static_next" (fun f -> f.fp_static_next);
      check "code prefix" (fun f -> f.fp_code);
      check "symbol ranges" (fun f -> f.fp_symbols);
      check "line maps" (fun f -> f.fp_segments);
      check "obarray bindings and order" (fun f -> f.fp_obarray);
      check "NIL and T" (fun f -> f.fp_nil_t);
      check "heap stats" (fun f -> f.fp_heap);
      check "gensym counter" (fun f -> f.fp_gensym);
      check "registers" (fun f -> f.fp_regs);
      check "trampoline" (fun f -> f.fp_trampoline);
      Alcotest.(check bool) (name ^ ": non-vacuous") true (List.length clone.fp_obarray > 100))
    [ ("default", Mem.default_config); ("tiny heap", tiny_heap) ]

let test_clones_isolated () =
  let im = I.boot_image Mem.default_config in
  let frozen (f : Rt.frozen) =
    ( Array.copy f.Rt.f_static,
      Array.copy f.Rt.f_code,
      f.Rt.f_symbols,
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) f.Rt.f_obarray [] )
  in
  let image_before = frozen im.I.im_world in
  let a = I.boot () and b = I.boot () in
  let b_before = fingerprint b in
  ignore (Rt.intern a.I.rt "ONLY-IN-A");
  ignore (I.eval_string a "(defun only-in-a (x) (cons x x))");
  ignore
    (Cpu.load a.I.rt.Rt.cpu S1_machine.Asm.[ Instr S1_machine.Isa.Nop; Instr S1_machine.Isa.Ret ]);
  Rt.set_function a.I.rt (Rt.intern a.I.rt "CAR") a.I.rt.Rt.nil;
  Alcotest.(check bool) "the writes landed in a" true (fingerprint a <> b_before);
  Alcotest.(check bool) "second clone unchanged" true (fingerprint b = b_before);
  Alcotest.(check bool) "image unchanged" true (frozen im.I.im_world = image_before);
  Alcotest.(check bool) "a third clone sees none of it" true
    (fingerprint (I.boot ()) = b_before)

let test_concurrent_cold_boot () =
  (* a configuration no other test boots, so its image memo starts cold *)
  let config = { Mem.default_config with Mem.stack_words = 1 lsl 14 } in
  let ready = Atomic.make 0 in
  let worker () =
    Atomic.incr ready;
    while Atomic.get ready < 4 do
      Domain.cpu_relax ()
    done;
    let it = I.boot ~config () in
    (fingerprint it, I.boot_image config)
  in
  let results = List.map Domain.join (List.init 4 (fun _ -> Domain.spawn worker)) in
  let fp0, im0 = List.hd results in
  List.iter
    (fun (fp, im) ->
      Alcotest.(check bool) "equal worlds" true (fp = fp0);
      Alcotest.(check bool) "one image" true (im == im0))
    results;
  Alcotest.(check int) "built once" 1
    (List.length (List.filter (fun (c, _) -> c = config) (Atomic.get I.images)));
  Alcotest.(check bool) "equal to a scratch boot" true (fp0 = fingerprint (scratch_boot config))

(* Differential property: random arithmetic expressions evaluate equal to
   an OCaml-side evaluator over exact rationals. *)
let gen_arith_expr =
  let open QCheck2.Gen in
  sized
  @@ fix (fun self n ->
         if n = 0 then map (fun i -> S1_sexp.Sexp.Int i) (int_range (-100) 100)
         else
           oneof
             [
               map (fun i -> S1_sexp.Sexp.Int i) (int_range (-100) 100);
               map2
                 (fun op (a, b) -> S1_sexp.Sexp.List [ S1_sexp.Sexp.Sym op; a; b ])
                 (oneofl [ "+"; "-"; "*" ])
                 (pair (self (n / 2)) (self (n / 2)));
             ])

let prop_interp_matches_fold =
  QCheck2.Test.make ~count:100 ~name:"interpreter agrees with constant folder"
    gen_arith_expr (fun e ->
      let it = I.boot () in
      let w = I.eval_sexp it e in
      let folded =
        let rec f (s : S1_sexp.Sexp.t) : S1_sexp.Sexp.t =
          match s with
          | S1_sexp.Sexp.List (S1_sexp.Sexp.Sym op :: args) -> (
              let args = List.map f args in
              match S1_frontend.Prims.find op with
              | Some { S1_frontend.Prims.fold = Some fo; _ } -> Option.get (fo args)
              | _ -> assert false)
          | atom -> atom
        in
        f e
      in
      S1_sexp.Sexp.equal (Rt.value_to_sexp it.I.rt w) folded)

let () =
  Alcotest.run "interp"
    [
      ( "core",
        [
          Alcotest.test_case "basics" `Quick test_basics;
          Alcotest.test_case "let and lambda" `Quick test_let_and_lambda;
          Alcotest.test_case "closures" `Quick test_closures;
          Alcotest.test_case "exptl" `Quick test_exptl;
          Alcotest.test_case "quadratic" `Quick test_quadratic;
          Alcotest.test_case "testfn optionals" `Quick test_testfn_optionals;
          Alcotest.test_case "special variables" `Quick test_specials;
          Alcotest.test_case "caseq" `Quick test_caseq;
          Alcotest.test_case "catch/throw" `Quick test_catch_throw;
          Alcotest.test_case "prog/go/return" `Quick test_prog_go_return;
          Alcotest.test_case "do parallel stepping" `Quick test_do_parallel_stepping;
          Alcotest.test_case "rest args" `Quick test_rest_args;
          Alcotest.test_case "mapcar/apply/reduce" `Quick test_mapcar_and_apply;
          Alcotest.test_case "deep recursion" `Quick test_tail_recursion_interp;
          Alcotest.test_case "setq through closure" `Quick test_setq_through_closure;
          Alcotest.test_case "numeric parity" `Quick test_numeric_parity_with_spec;
          Alcotest.test_case "output" `Quick test_output;
        ] );
      ( "boot image",
        [
          Alcotest.test_case "clone = scratch boot" `Quick test_clone_equals_scratch;
          Alcotest.test_case "clones isolated" `Quick test_clones_isolated;
          Alcotest.test_case "concurrent cold boot" `Quick test_concurrent_cold_boot;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_interp_matches_fold ]);
    ]
