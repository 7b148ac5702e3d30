(* Tests for the two extension phases the paper deferred: the peephole
   optimizer (§4.5: branch tensioning) and common-subexpression
   elimination (§4.3), plus the Gabriel-style benchmark programs used by
   the bench harness (Richard Gabriel being an author, his benchmark
   suite is the natural workload). *)

module Sexp = S1_sexp.Sexp
module Reader = S1_sexp.Reader
module C = S1_core.Compiler
module Rt = S1_runtime.Rt
module Isa = S1_machine.Isa
module Asm = S1_machine.Asm
module Cpu = S1_machine.Cpu
module Peephole = S1_codegen.Peephole
module Cse = S1_transform.Cse
open S1_ir

(* Peephole ----------------------------------------------------------------- *)

let instr_count prog =
  List.length (List.filter (function Asm.Instr _ -> true | _ -> false) prog)

let test_peephole_tension () =
  let open Isa in
  (* a conditional jump to an unconditional jump chain *)
  let prog =
    Asm.
      [
        Label "START";
        Instr (Jmpz (EQ, Reg 0, L "HOP1"));
        Instr (Mov (Reg 1, Imm 1));
        Instr Halt;
        Label "HOP1";
        Instr (Jmpa (L "HOP2"));
        Label "HOP2";
        Instr (Jmpa (L "FINAL"));
        Label "FINAL";
        Instr (Mov (Reg 1, Imm 2));
        Instr Halt;
      ]
  in
  let prog', stats = Peephole.run prog in
  Alcotest.(check bool) "tensioned some jumps" true (stats.Peephole.tensioned > 0);
  (* the conditional now goes straight to FINAL *)
  let tensioned =
    List.exists
      (function Asm.Instr (Jmpz (EQ, Reg 0, L "FINAL")) -> true | _ -> false)
      prog'
  in
  Alcotest.(check bool) "retargeted to the final destination" true tensioned;
  (* semantics preserved on the machine *)
  let run p r0 =
    let cpu = Cpu.create () in
    let image = Cpu.load cpu p in
    Cpu.set_reg cpu 0 r0;
    Cpu.run cpu ~at:(Cpu.label_addr image "START");
    Cpu.get_reg cpu 1
  in
  Alcotest.(check int) "taken path agrees" (run prog 0) (run prog' 0);
  Alcotest.(check int) "untaken path agrees" (run prog 1) (run prog' 1)

let test_peephole_jump_to_next () =
  let open Isa in
  let prog =
    Asm.[ Label "START"; Instr (Jmpa (L "NEXT")); Label "NEXT"; Instr Halt ]
  in
  let prog', stats = Peephole.run prog in
  Alcotest.(check int) "jump removed" 1 stats.Peephole.jumps_removed;
  Alcotest.(check int) "one instruction left" 1 (instr_count prog')

let test_peephole_unreachable () =
  let open Isa in
  let prog =
    Asm.
      [
        Label "START";
        Instr (Jmpa (L "OUT"));
        Instr (Mov (Reg 0, Imm 9)) (* dead *);
        Instr (Mov (Reg 0, Imm 10)) (* dead *);
        Label "OUT";
        Instr Halt;
      ]
  in
  let prog', stats = Peephole.run prog in
  Alcotest.(check int) "two dead instructions dropped" 2 stats.Peephole.unreachable_removed;
  (* a second round then removes the now-redundant jump itself *)
  Alcotest.(check int) "jump also removed" 1 stats.Peephole.jumps_removed;
  Alcotest.(check int) "only the halt remains" 1 (instr_count prog')

let test_peephole_preserves_semantics () =
  (* compile a real function both ways and compare results + size *)
  let src =
    "(defun grade (n)\n\
    \  (cond ((< n 10) 'low) ((< n 100) (if (< n 50) 'mid-low 'mid-high)) (t 'high)))"
  in
  let run options input =
    let c = C.create ~options () in
    ignore (C.eval_string c src);
    C.print_value c (C.eval_string c (Printf.sprintf "(grade %d)" input))
  in
  let base = S1_codegen.Gen.default_options in
  let peep = { base with S1_codegen.Gen.peephole = true } in
  List.iter
    (fun n ->
      Alcotest.(check string)
        (Printf.sprintf "grade %d agrees" n)
        (run base n) (run peep n))
    [ 5; 10; 49; 50; 99; 100; 1000 ];
  (* and the peepholed version is no larger *)
  let size options =
    let c = C.create ~options () in
    let l, _ = C.listing_of c (Reader.parse_one src) in
    List.length (String.split_on_char '\n' l)
  in
  Alcotest.(check bool) "not larger" true (size peep <= size base)

(* CSE -------------------------------------------------------------------------- *)

let test_cse_basic () =
  let n =
    S1_frontend.Convert.expression
      (Reader.parse_one "((lambda (a b) (+ (* a b) (* a b))) 3 4)")
  in
  let eliminated = Cse.run n in
  Alcotest.(check int) "one elimination" 1 eliminated;
  let text = Backtrans.to_string n in
  Alcotest.(check bool) "binds a CSE variable" true
    (try ignore (Str.search_forward (Str.regexp "CSE-[0-9]+") text 0); true
     with Not_found -> false)

let test_cse_respects_effects () =
  (* (f) is not timeless: must not be eliminated *)
  let n =
    S1_frontend.Convert.expression (Reader.parse_one "(+ (f) (f))")
  in
  Alcotest.(check int) "no elimination of effectful calls" 0 (Cse.run n);
  (* reads of an assigned variable must not be merged across the setq *)
  let n2 =
    S1_frontend.Convert.expression
      (Reader.parse_one
         "((lambda (x) (+ (* x 7) (progn (setq x 2) (* x 7)))) 1)")
  in
  Alcotest.(check int) "no elimination across setq" 0 (Cse.run n2)

let test_cse_end_to_end () =
  let src =
    "(defun norm2 (a b) (+ (* a a) (* b b) (* a a) (* b b)))"
  in
  let run cse =
    let c = C.create ~cse () in
    ignore (C.eval_string c src);
    let m = C.eval_string c "(norm2 3 4)" in
    (C.print_value c m, c)
  in
  let r1, _ = run false in
  let r2, c2 = run true in
  Alcotest.(check string) "same value" r1 r2;
  Alcotest.(check string) "norm2 value" "50" r2;
  (* with CSE the multiplications are shared: fewer generic-mul services *)
  let services cse =
    let c = C.create ~cse () in
    ignore (C.eval_string c src);
    ignore (C.eval_string c "(norm2 3 4)");
    Cpu.reset_stats c.C.rt.Rt.cpu;
    ignore (C.eval_string c "(norm2 3 4)");
    c.C.rt.Rt.cpu.Cpu.stats.Cpu.svcs
  in
  ignore c2;
  Alcotest.(check bool) "fewer arithmetic services with CSE" true
    (services true < services false)

let test_cse_no_thrash_with_optimizer () =
  (* run the full pipeline with CSE enabled: the optimizer must not
     substitute the CSE binding away again (the paper's §4.3 worry) *)
  let c = C.create ~cse:true () in
  let listing, ts =
    C.listing_of c (Reader.parse_one "(defun f (a b) (list (* a b) (* a b)))")
  in
  ignore listing;
  let rules = List.map (fun e -> e.S1_transform.Transcript.ev_rule) (S1_transform.Transcript.events ts) in
  Alcotest.(check bool) "cse fired" true
    (List.mem "COMMON-SUBEXPRESSION-ELIMINATION" rules);
  Alcotest.(check string) "still correct" "(12 12)"
    (C.print_value c (C.eval_string c "(f 3 4)"))

(* DEFMACRO ----------------------------------------------------------------- *)

let test_defmacro_basic () =
  let c = C.create () in
  ignore (C.eval_string c "(defmacro square (x) (list '* x x))");
  Alcotest.(check string) "simple macro" "49"
    (C.print_value c (C.eval_string c "(square 7)"));
  (* the macro receives forms, not values: (square (+ 1 2)) duplicates *)
  Alcotest.(check string) "form duplication semantics" "9"
    (C.print_value c (C.eval_string c "(square (+ 1 2))"))

let test_defmacro_backquote () =
  let c = C.create () in
  ignore
    (C.eval_string c
       "(defmacro my-unless (test &rest body) `(if ,test () (progn ,@body)))");
  Alcotest.(check string) "backquoted macro" "OK"
    (C.print_value c (C.eval_string c "(my-unless (< 2 1) 'ok)"));
  Alcotest.(check string) "other branch" "()"
    (C.print_value c (C.eval_string c "(my-unless (< 1 2) 'ok)"))

let test_defmacro_while_loop () =
  let c = C.create () in
  ignore
    (C.eval_string c
       "(defmacro while (test &rest body)
       \  `(prog () loop (if (not ,test) (return ())) (progn ,@body) (go loop)))");
  Alcotest.(check string) "macro-built loop" "10"
    (C.print_value c
       (C.eval_string c
          "(let ((i 0) (acc 0)) (while (< i 5) (setq acc (+ acc i)) (setq i (1+ i))) acc)"))

let test_defmacro_uses_functions () =
  (* the expander is ordinary compiled Lisp and may call helper functions *)
  let c = C.create () in
  ignore (C.eval_string c "(defun wrap-progn (forms) (cons 'progn forms))");
  ignore (C.eval_string c "(defmacro do-all (&rest forms) (wrap-progn forms))");
  Alcotest.(check string) "helper-driven expander" "3"
    (C.print_value c (C.eval_string c "(do-all 1 2 3)"))

let test_defmacro_inside_defun () =
  let c = C.create () in
  ignore (C.eval_string c "(defmacro twice (e) `(+ ,e ,e))");
  ignore (C.eval_string c "(defun f (n) (twice (* n 10)))");
  Alcotest.(check string) "macro inside defun" "60"
    (C.print_value c (C.eval_string c "(f 3)"))

(* Differential: CSE + peephole preserve semantics on random programs. ------- *)

let gen_program =
  let open QCheck2.Gen in
  let var_names = [ "V1"; "V2" ] in
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
            (oneofl [ "+"; "-"; "*"; "MAX" ])
            (pair (expr (n / 2)) (expr (n / 2)));
          map3
            (fun p a b ->
              Sexp.List
                [ Sexp.Sym "IF"; Sexp.List [ Sexp.Sym "<"; p; Sexp.Int 0 ]; a; b ])
            (expr (n / 3)) (expr (n / 2)) (expr (n / 2));
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
           [ map (fun i -> Sexp.Int i) (int_range (-20) 20);
             map (fun i -> Sexp.Int i) (int_range (-20) 20) ])
        (expr (min n 12)))

let prop_extensions_preserve_semantics =
  QCheck2.Test.make ~count:100 ~name:"CSE + peephole preserve semantics" gen_program
    (fun prog ->
      let c1 = C.create () in
      let v1 = C.eval c1 prog in
      let options = { S1_codegen.Gen.default_options with S1_codegen.Gen.peephole = true } in
      let c2 = C.create ~options ~cse:true () in
      let v2 = C.eval c2 prog in
      Rt.value_to_sexp c1.C.rt v1 = Rt.value_to_sexp c2.C.rt v2)

(* Gabriel-style benchmark programs -------------------------------------------- *)

let tak = "(defun tak (x y z)\n\
          \  (if (not (< y x)) z\n\
          \      (tak (tak (1- x) y z) (tak (1- y) z x) (tak (1- z) x y))))"

let ctak =
  "(defun ctak (x y z) (catch 'ctak (ctak-aux x y z)))\n\
   (defun ctak-aux (x y z)\n\
  \  (if (not (< y x)) (throw 'ctak z)\n\
  \      (ctak-aux (catch 'ctak (ctak-aux (1- x) y z))\n\
  \                (catch 'ctak (ctak-aux (1- y) z x))\n\
  \                (catch 'ctak (ctak-aux (1- z) x y)))))"

let stak =
  "(defvar *x* 0) (defvar *y* 0) (defvar *z* 0)\n\
   (defun stak (x y z)\n\
  \  (let ((*x* x) (*y* y) (*z* z))\n\
  \    (declare (special *x* *y* *z*))\n\
  \    (stak-aux)))\n\
   (defun stak-aux ()\n\
  \  (if (not (< *y* *x*)) *z*\n\
  \      (let ((x (let ((*x* (1- *x*)) (*y* *y*) (*z* *z*))\n\
  \                 (declare (special *x* *y* *z*)) (stak-aux)))\n\
  \            (y (let ((*x* (1- *y*)) (*y* *z*) (*z* *x*))\n\
  \                 (declare (special *x* *y* *z*)) (stak-aux)))\n\
  \            (z (let ((*x* (1- *z*)) (*y* *x*) (*z* *y*))\n\
  \                 (declare (special *x* *y* *z*)) (stak-aux))))\n\
  \        (let ((*x* x) (*y* y) (*z* z))\n\
  \          (declare (special *x* *y* *z*)) (stak-aux)))))"

let test_gabriel_tak () =
  let c = C.create () in
  ignore (C.eval_string c tak);
  Alcotest.(check string) "(tak 18 12 6)" "7"
    (C.print_value c (C.eval_string c "(tak 18 12 6)"));
  (* agrees with the interpreter *)
  let c2 = C.create () in
  ignore (S1_interp.Interp.eval_string c2.C.it tak);
  Alcotest.(check string) "interpreted agrees" "7"
    (C.print_value c2 (S1_interp.Interp.eval_string c2.C.it "(tak 18 12 6)"))

let test_gabriel_ctak () =
  let c = C.create () in
  ignore (C.eval_string c ctak);
  Alcotest.(check string) "(ctak 12 8 4)" "5"
    (C.print_value c (C.eval_string c "(ctak 12 8 4)"))

let test_gabriel_stak () =
  let c = C.create () in
  ignore (C.eval_string c stak);
  Alcotest.(check string) "(stak 12 8 4)" "5"
    (C.print_value c (C.eval_string c "(stak 12 8 4)"))

let () =
  Alcotest.run "extensions"
    [
      ( "peephole",
        [
          Alcotest.test_case "branch tensioning" `Quick test_peephole_tension;
          Alcotest.test_case "jump to next" `Quick test_peephole_jump_to_next;
          Alcotest.test_case "unreachable code" `Quick test_peephole_unreachable;
          Alcotest.test_case "semantics preserved" `Quick test_peephole_preserves_semantics;
        ] );
      ( "cse",
        [
          Alcotest.test_case "basic elimination" `Quick test_cse_basic;
          Alcotest.test_case "respects effects" `Quick test_cse_respects_effects;
          Alcotest.test_case "end to end" `Quick test_cse_end_to_end;
          Alcotest.test_case "no thrash with optimizer" `Quick test_cse_no_thrash_with_optimizer;
        ] );
      ( "defmacro",
        [
          Alcotest.test_case "basic" `Quick test_defmacro_basic;
          Alcotest.test_case "backquote" `Quick test_defmacro_backquote;
          Alcotest.test_case "while loop" `Quick test_defmacro_while_loop;
          Alcotest.test_case "expander calls functions" `Quick test_defmacro_uses_functions;
          Alcotest.test_case "macro inside defun" `Quick test_defmacro_inside_defun;
        ] );
      ( "gabriel",
        [
          Alcotest.test_case "TAK" `Quick test_gabriel_tak;
          Alcotest.test_case "CTAK" `Quick test_gabriel_ctak;
          Alcotest.test_case "STAK" `Quick test_gabriel_stak;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_extensions_preserve_semantics ]);
    ]
