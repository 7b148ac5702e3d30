(* The benchmark harness: regenerates every table and worked example of
   the paper's evaluation, plus the quantitative ablation studies the
   paper's claims imply (see DESIGN.md's experiment index and
   EXPERIMENTS.md for the recorded results).

   Run with:  dune exec bench/main.exe
   Add "wall" as an argument to also run the Bechamel wall-clock
   comparison of compiled vs interpreted execution. *)

module Sexp = S1_sexp.Sexp
module Reader = S1_sexp.Reader
module C = S1_core.Compiler
module Rt = S1_runtime.Rt
module Heap = S1_runtime.Heap
module Cpu = S1_machine.Cpu
module Mem = S1_machine.Mem
module Isa = S1_machine.Isa
module Asm = S1_machine.Asm
module F36 = S1_machine.Float36
module Gen = S1_codegen.Gen
module Rules = S1_transform.Rules

module Json = S1_obs.Obs.Json

let current_section = ref ""

let section title =
  current_section := title;
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let subsection title = Printf.printf "\n--- %s ---\n" title

(* Measure cycles (and other stats) of evaluating [call] after loading
   [defs], under compiler [options]/[rules]. *)
type measurement = {
  m_cycles : int;
  m_instructions : int;
  m_movs : int;
  m_mem_traffic : int;
  m_calls : int;
  m_tcalls : int;
  m_svcs : int;
  m_stack_high : int;
  m_heap_words : int;
  m_result : string;
}

(* Every measurement row, in run order: the JSON perf trajectory written
   to BENCH_RESULTS.json at exit for future sessions to regress against. *)
let records : Json.t list ref = ref []

let record ~label (m : measurement) =
  records :=
    Json.Obj
      [
        ("experiment", Json.Str !current_section);
        ("name", Json.Str label);
        ("cycles", Json.Int m.m_cycles);
        ("instructions", Json.Int m.m_instructions);
        ("movs", Json.Int m.m_movs);
        ("mem_traffic", Json.Int m.m_mem_traffic);
        ("calls", Json.Int m.m_calls);
        ("tcalls", Json.Int m.m_tcalls);
        ("svcs", Json.Int m.m_svcs);
        ("stack_high", Json.Int m.m_stack_high);
        ("heap_words", Json.Int m.m_heap_words);
        ("result", Json.Str m.m_result);
      ]
    :: !records

let write_results file =
  let doc =
    Json.Obj [ ("schema", Json.Str "s1lisp.bench/1"); ("rows", Json.Arr (List.rev !records)) ]
  in
  let oc = open_out file in
  output_string oc (Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "\nWrote %d measurement rows to %s\n" (List.length !records) file

(* folded=DIR argv option: export each measurement row's call-path
   profile as a flamegraph folded-stack file under DIR, one file per
   row, named after the experiment and label. *)
let folded_dir : string option ref = ref None

let sanitize_label s =
  String.map
    (fun ch ->
      match ch with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '.' | '-' -> ch | _ -> '_')
    s

let write_folded ~label cpu =
  match !folded_dir with
  | None -> ()
  | Some dir ->
      if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
      let file =
        Filename.concat dir (sanitize_label (!current_section ^ "." ^ label) ^ ".folded")
      in
      let oc = open_out file in
      output_string oc (Cpu.render_folded cpu);
      close_out oc

let measure ?(options = Gen.default_options) ?(rules = Rules.default_config) ?(cse = false)
    ?label ~defs call =
  let c = C.create ~options ~rules ~cse () in
  if defs <> "" then ignore (C.eval_string c defs);
  ignore (C.eval_string c call) (* warm: constants interned, caches built *);
  Cpu.reset_stats c.C.rt.Rt.cpu;
  if !folded_dir <> None then Cpu.enable_callgraph c.C.rt.Rt.cpu;
  let before_heap = (Heap.stats c.C.rt.Rt.heap).Heap.words_allocated in
  let r = C.eval_string c call in
  let s = c.C.rt.Rt.cpu.Cpu.stats in
  let m =
    {
      m_cycles = s.Cpu.cycles;
      m_instructions = s.Cpu.instructions;
      m_movs = s.Cpu.movs;
      m_mem_traffic = s.Cpu.mem_traffic;
      m_calls = s.Cpu.calls;
      m_tcalls = s.Cpu.tcalls;
      m_svcs = s.Cpu.svcs;
      m_stack_high = s.Cpu.stack_high;
      m_heap_words = (Heap.stats c.C.rt.Rt.heap).Heap.words_allocated - before_heap;
      m_result = C.print_value c r;
    }
  in
  let lbl = match label with Some l -> l | None -> call in
  record ~label:lbl m;
  write_folded ~label:lbl c.C.rt.Rt.cpu;
  m

let row name m extra =
  Printf.printf "  %-34s %10d cycles %8d instrs %6d movs%s\n" name m.m_cycles
    m.m_instructions m.m_movs extra

(* ------------------------------------------------------------------ *)
(* T1-T3: structural tables                                            *)
(* ------------------------------------------------------------------ *)

let t1 () =
  section "T1: Phase structure (paper Table 1)";
  List.iter (fun p -> Printf.printf "  %s\n" p) C.phases

let t2_t3 () =
  section "T2: Internal constructs (paper Table 2)";
  List.iter (fun k -> Printf.printf "  %s\n" k)
    [ "term"; "variable"; "caseq"; "catcher"; "go"; "if"; "lambda"; "progbody"; "progn";
      "return"; "setq"; "call" ];
  section "T3: Internal representations (paper Table 3)";
  List.iter (fun r -> Printf.printf "  %s\n" (S1_ir.Node.rep_name r)) S1_ir.Node.all_reps

(* ------------------------------------------------------------------ *)
(* T4 + E7: testfn code and optimizer transcript (paper §7, Table 4)   *)
(* ------------------------------------------------------------------ *)

let testfn_src =
  "(defun testfn (a &optional (b 3.0) (c a))\n\
  \  (let ((d (+$f a b c)) (e (*$f a b c)))\n\
  \    (let ((q (sin$f e)))\n\
  \      (frotz d e (max$f d e))\n\
  \      q)))"

let t4_e7 () =
  section "E7: Optimizer transcript for TESTFN (paper §7)";
  let c = C.create () in
  ignore (C.eval_string c "(defun frotz (x y z) (list x y z))");
  let listing, ts = C.listing_of c (Reader.parse_one testfn_src) in
  print_string (S1_transform.Transcript.to_string ts);
  section "T4: Generated code for TESTFN (paper Table 4)";
  print_endline listing;
  let v = C.eval_string c "(testfn 1.0 2.0 4.0)" in
  Printf.printf "\n  (testfn 1.0 2.0 4.0) => %s   [sin(8 rad) = %.9f]\n"
    (C.print_value c v) (sin 8.0)

(* ------------------------------------------------------------------ *)
(* E5: boolean short-circuiting (paper §5)                              *)
(* ------------------------------------------------------------------ *)

let e5 () =
  section "E5: Boolean short-circuiting (paper §5)";
  let c = C.create () in
  let listing, ts =
    C.listing_of c
      (Reader.parse_one "(defun choose (a b c e1 e2) (if (and a (or b c)) e1 e2))")
  in
  print_string (S1_transform.Transcript.to_string ts);
  print_endline listing

(* ------------------------------------------------------------------ *)
(* E6: the RT-register dance (paper §6.1)                               *)
(* ------------------------------------------------------------------ *)

let e6 () =
  section "E6: Z[I,K] := A[I,J]*B[J,K] + C[I,K] + D (paper §6.1)";
  let cpu = Cpu.create () in
  let mem = cpu.Cpu.mem in
  let dim = 8 in
  let alloc () = Mem.alloc_static mem (dim * dim) in
  let arr_a = alloc () and arr_b = alloc () and arr_c = alloc () and arr_z = alloc () in
  for i = 0 to (dim * dim) - 1 do
    Mem.write mem (arr_a + i) (F36.encode_single (float_of_int i));
    Mem.write mem (arr_b + i) (F36.encode_single (float_of_int (i * 2)));
    Mem.write mem (arr_c + i) (F36.encode_single 0.25);
    Mem.write mem (arr_z + i) 0
  done;
  let open Isa in
  let prog =
    Asm.
      [
        Label "GO";
        Instr (Bin (MULT, S, Reg rta, Reg 10, Reg 13));
        Instr (Bin (ADD, S, Reg rta, Reg rta, Reg 11));
        Instr (Bin (MULT, S, Reg rtb, Reg 11, Reg 13));
        Instr (Bin (ADD, S, Reg rtb, Reg rtb, Reg 12));
        Instr
          (Bin
             ( FMULT, S, Reg rta,
               Idx { base = 16; disp = 0; index = rta; shift = 0 },
               Idx { base = 17; disp = 0; index = rtb; shift = 0 } ));
        Instr (Bin (MULT, S, Reg rtb, Reg 10, Reg 13));
        Instr (Bin (ADD, S, Reg rtb, Reg rtb, Reg 12));
        Instr
          (Bin (FADD, S, Reg rta, Reg rta, Idx { base = 18; disp = 0; index = rtb; shift = 0 }));
        Instr (Bin (MULT, S, Reg rtb, Reg 10, Reg 13));
        Instr (Bin (ADD, S, Reg rtb, Reg rtb, Reg 12));
        Instr
          (Bin
             ( FADD, S,
               Idx { base = 19; disp = 0; index = rtb; shift = 0 },
               Reg rta, Reg 20 ));
        Instr Halt;
      ]
  in
  let image = Cpu.load cpu prog in
  Cpu.set_reg cpu 10 3;
  Cpu.set_reg cpu 11 2;
  Cpu.set_reg cpu 12 5;
  Cpu.set_reg cpu 13 dim;
  Cpu.set_reg cpu 16 arr_a;
  Cpu.set_reg cpu 17 arr_b;
  Cpu.set_reg cpu 18 arr_c;
  Cpu.set_reg cpu 19 arr_z;
  Cpu.set_reg cpu 20 (F36.encode_single 1.5);
  Cpu.run cpu ~at:(Cpu.label_addr image "GO");
  Printf.printf
    "  paper's 11-instruction sequence: %d instructions executed, %d MOVs, %d cycles\n"
    cpu.Cpu.stats.Cpu.instructions cpu.Cpu.stats.Cpu.movs cpu.Cpu.stats.Cpu.cycles;
  Printf.printf "  Z[3,5] = %g (expected %g)\n"
    (F36.decode_single (Mem.read mem (arr_z + (3 * dim) + 5)))
    ((float_of_int ((3 * dim) + 2) *. float_of_int (((2 * dim) + 5) * 2)) +. 0.25 +. 1.5);
  Printf.printf "  -> the 2.5-address RT registers suffice with zero data-movement MOVs\n"

(* ------------------------------------------------------------------ *)
(* X1: tail recursion has constant stack (paper §2)                     *)
(* ------------------------------------------------------------------ *)

let x1 () =
  section "X1: Tail recursion runs in constant stack (paper §2)";
  let defs = "(defun loop-sum (n acc) (if (zerop n) acc (loop-sum (1- n) (+ acc 1))))" in
  Printf.printf "  %-12s %14s %12s %12s\n" "n" "cycles" "tail calls" "stack words";
  List.iter
    (fun n ->
      let m = measure ~defs (Printf.sprintf "(loop-sum %d 0)" n) in
      Printf.printf "  %-12d %14d %12d %12d\n" n m.m_cycles m.m_tcalls m.m_stack_high)
    [ 10; 100; 1000; 10000; 100000 ];
  print_endline "  -> stack use is flat while work grows linearly"

(* ------------------------------------------------------------------ *)
(* X3: the Fateman experiment — compiled Lisp vs ideal assembly         *)
(* ------------------------------------------------------------------ *)

let declared_horner =
  "(defun horner (x a b c d e)\n\
  \  (declare (single-float x a b c d e))\n\
  \  (+$f (*$f (+$f (*$f (+$f (*$f (+$f (*$f a x) b) x) c) x) d) x) e))"

let generic_horner =
  "(defun horner (x a b c d e)\n\
  \  (+ (* (+ (* (+ (* (+ (* a x) b) x) c) x) d) x) e))"

let ideal_kernel_cycles () =
  let cpu = Cpu.create () in
  let open Isa in
  let f v = Imm (F36.encode_single v) in
  let image =
    Cpu.load cpu
      Asm.
        [
          Label "SETUP";
          Instr (Mov (Reg 10, f 2.0));
          Instr (Mov (Reg 11, f 1.0));
          Instr (Mov (Reg 12, f (-3.0)));
          Instr (Mov (Reg 13, f 0.5));
          Instr (Mov (Reg 14, f 4.0));
          Instr (Mov (Reg 15, f (-1.0)));
          Label "KERNEL";
          Instr (Bin (FMULT, S, Reg rta, Reg 11, Reg 10));
          Instr (Bin (FADD, S, Reg rta, Reg rta, Reg 12));
          Instr (Bin (FMULT, S, Reg rta, Reg rta, Reg 10));
          Instr (Bin (FADD, S, Reg rta, Reg rta, Reg 13));
          Instr (Bin (FMULT, S, Reg rta, Reg rta, Reg 10));
          Instr (Bin (FADD, S, Reg rta, Reg rta, Reg 14));
          Instr (Bin (FMULT, S, Reg rta, Reg rta, Reg 10));
          Instr (Bin (FADD, S, Reg rta, Reg rta, Reg 15));
          Instr Halt;
        ]
  in
  Cpu.run cpu ~at:(Cpu.label_addr image "SETUP");
  Cpu.reset_stats cpu;
  Cpu.run cpu ~at:(Cpu.label_addr image "KERNEL");
  cpu.Cpu.stats.Cpu.cycles

let x3 () =
  section "X3: Numerical code quality (the Fateman comparison)";
  subsection "Horner polynomial, degree 4, one evaluation";
  let call = "(horner 2.0 1.0 -3.0 0.5 4.0 -1.0)" in
  let ideal = ideal_kernel_cycles () in
  Printf.printf "  %-34s %10d cycles\n" "ideal hand assembly (= FORTRAN)" ideal;
  let m1 = measure ~label:"compiled, declared" ~defs:declared_horner call in
  row "compiled, declared" m1
    (Printf.sprintf "  (%.1fx ideal, incl. call+frame+boxing)"
       (float_of_int m1.m_cycles /. float_of_int ideal));
  let m2 = measure ~label:"compiled, generic (no decls)" ~defs:generic_horner call in
  row "compiled, generic (no decls)" m2
    (Printf.sprintf "  (%.1fx declared)" (float_of_int m2.m_cycles /. float_of_int m1.m_cycles));
  let m3 =
    measure ~label:"compiled, no inline prims"
      ~options:{ Gen.default_options with Gen.inline_prims = false }
      ~defs:declared_horner call
  in
  row "compiled, no inline prims" m3
    (Printf.sprintf "  (%.1fx declared)" (float_of_int m3.m_cycles /. float_of_int m1.m_cycles));
  subsection "iterative float work, 1000 iterations x 4 float ops";
  let fsum =
    "(defun fsum (n acc) (declare (single-float acc))\n\
    \  (if (zerop n) acc (fsum (1- n) (+$f 0.25 (*$f 0.5 (+$f 0.125 (*$f acc 0.99)))))))"
  in
  let gsum =
    "(defun fsum (n acc)\n\
    \  (if (zerop n) acc (fsum (1- n) (+ 0.25 (* 0.5 (+ 0.125 (* acc 0.99)))))))"
  in
  let md = measure ~label:"declared float loop" ~defs:fsum "(fsum 1000 0.0)" in
  let mg = measure ~label:"generic float loop" ~defs:gsum "(fsum 1000 0.0)" in
  row "declared float loop" md "";
  row "generic float loop" mg
    (Printf.sprintf "  (%.1fx declared)" (float_of_int mg.m_cycles /. float_of_int md.m_cycles));
  Printf.printf "  heap words: declared %d vs generic %d\n" md.m_heap_words mg.m_heap_words

(* ------------------------------------------------------------------ *)
(* X4: pdl numbers (paper §6.3)                                         *)
(* ------------------------------------------------------------------ *)

let x4 () =
  section "X4: Pdl numbers — stack vs heap allocation of float boxes (paper §6.3)";
  (* fstep passes a freshly computed float box to another procedure in a
     non-tail position — the paper's §6.3 situation: "to provide a
     uniform procedure interface, all arguments to user functions must be
     in pointer format; however ... such pointers may point into the
     stack". *)
  let defs =
    "(defun touch (b) (if b 1 0))\n\
     (defun fstep (x)\n\
    \  (declare (single-float x))\n\
    \  (1+ (touch (+$f x 0.5))))\n\
     (defun floop (n acc)\n\
    \  (if (zerop n) acc (floop (1- n) (+ acc (fstep 1.5)))))"
  in
  Printf.printf "  %-28s %14s %12s %10s\n" "configuration" "heap words" "cycles" "services";
  List.iter
    (fun (name, options) ->
      let m = measure ~label:name ~options ~defs "(floop 500 0)" in
      Printf.printf "  %-28s %14d %12d %10d\n" name m.m_heap_words m.m_cycles m.m_svcs)
    [
      ("pdl numbers on", Gen.default_options);
      ("pdl numbers off", { Gen.default_options with Gen.pdl_numbers = false });
    ];
  print_endline "  -> intermediate float boxes move from the heap to the stack"

(* ------------------------------------------------------------------ *)
(* X5: representation analysis / declarations (paper §6.2)              *)
(* ------------------------------------------------------------------ *)

let x5 () =
  section "X5: Representation analysis with declarations (paper §6.2)";
  (* generic source; a declaration lets the compiler's type analysis
     specialize every operation to raw single-float form *)
  let probe decl =
    Printf.sprintf
      "(defun dist (x1 y1 x2 y2)\n\
      \  %s\n\
      \  (sqrt (+ (* (- x2 x1) (- x2 x1)) (* (- y2 y1) (- y2 y1)))))"
      decl
  in
  let m1 =
    measure ~label:"declared: ops specialize to $F"
      ~defs:(probe "(declare (single-float x1 y1 x2 y2))") "(dist 0.0 0.0 3.0 4.0)"
  in
  let m2 =
    measure ~label:"undeclared: generic arithmetic" ~defs:(probe "(progn)")
      "(dist 0.0 0.0 3.0 4.0)"
  in
  row "declared: ops specialize to $F" m1 (Printf.sprintf "  => %s" m1.m_result);
  row "undeclared: generic arithmetic" m2
    (Printf.sprintf "  (%.1fx declared)" (float_of_int m2.m_cycles /. float_of_int m1.m_cycles));
  Printf.printf "  services: declared %d vs undeclared %d (generic ops trap to the runtime)\n"
    m1.m_svcs m2.m_svcs

(* ------------------------------------------------------------------ *)
(* X6: TNBIND register allocation (paper §6.1)                          *)
(* ------------------------------------------------------------------ *)

let x6 () =
  section "X6: TNBIND register allocation vs all-frame allocation (paper §6.1)";
  let defs = declared_horner in
  let call = "(horner 2.0 1.0 -3.0 0.5 4.0 -1.0)" in
  Printf.printf "  %-28s %10s %10s %8s %12s\n" "configuration" "cycles" "instrs" "movs"
    "mem traffic";
  List.iter
    (fun (name, options) ->
      let m = measure ~label:name ~options ~defs call in
      Printf.printf "  %-28s %10d %10d %8d %12d\n" name m.m_cycles m.m_instructions
        m.m_movs m.m_mem_traffic)
    [
      ("TNBIND packing", Gen.default_options);
      ("naive (all frame slots)", { Gen.default_options with Gen.use_tnbind = false });
    ]

(* ------------------------------------------------------------------ *)
(* X7: special-variable lookup caching (paper §4.4)                     *)
(* ------------------------------------------------------------------ *)

let x7 () =
  section "X7: Deep-binding lookup caching (paper §4.4)";
  (* six reads of three specials per call: entry caching does three
     lookups and six cheap indirections instead of six full searches *)
  let defs =
    "(defvar *a* 1) (defvar *b* 2) (defvar *c* 3)\n\
     (defun spin (n acc)\n\
    \  (if (zerop n) acc\n\
    \      (spin (1- n)\n\
    \            (+ acc (+ *a* (+ *b* (+ *c* (+ *a* (+ *b* *c*)))))))))"
  in
  Printf.printf "  %-28s %12s %10s\n" "configuration" "cycles" "services";
  List.iter
    (fun (name, options) ->
      let m = measure ~label:name ~options ~defs "(spin 300 0)" in
      Printf.printf "  %-28s %12d %10d\n" name m.m_cycles m.m_svcs)
    [
      ("entry caching", Gen.default_options);
      ("lookup every access", { Gen.default_options with Gen.cache_specials = false });
    ];
  print_endline "  -> one lookup per function entry instead of one per reference"

(* ------------------------------------------------------------------ *)
(* X8: the source-level optimizer (paper §5)                            *)
(* ------------------------------------------------------------------ *)

let x8 () =
  section "X8: Source-level transformations on vs off (paper §5)";
  (* constant propagation, folding, dead-let elimination, and the
     conditional machinery all get a chance here *)
  let defs =
    "(defun shape (r n acc)\n\
    \  (if (zerop n) acc\n\
    \      (shape r (1- n)\n\
    \        (+ acc (let* ((k (+ 2 3)) (unused (* k k)))\n\
    \                 (if (and (< k 10) (or (< r 100) (< 100 r)))\n\
    \                     (* k (+ r 1))\n\
    \                     0))))))"
  in
  Printf.printf "  %-28s %12s %10s\n" "configuration" "cycles" "instrs";
  List.iter
    (fun (name, rules) ->
      let m = measure ~label:name ~rules ~defs "(shape 7 200 0)" in
      Printf.printf "  %-28s %12d %10d\n" name m.m_cycles m.m_instructions)
    [ ("optimizer on", Rules.default_config); ("optimizer off", Rules.nothing) ]

(* ------------------------------------------------------------------ *)
(* X9: closures and heap environments (paper §4.4)                      *)
(* ------------------------------------------------------------------ *)

let x9 () =
  section "X9: Closure creation and heap environments (paper §4.4)";
  let defs =
    "(defun make-adder (n) (lambda (x) (+ x n)))\n\
     (defun churn (k acc) (if (zerop k) acc (churn (1- k) (+ acc (funcall (make-adder k) k)))))\n\
     (defun plain (k acc) (if (zerop k) acc (plain (1- k) (+ acc (+ k k)))))"
  in
  let m1 = measure ~label:"closure per iteration" ~defs "(churn 200 0)" in
  let m2 = measure ~label:"open-coded equivalent" ~defs "(plain 200 0)" in
  Printf.printf "  %-34s %10d cycles %8d heap words  => %s\n" "closure per iteration" m1.m_cycles
    m1.m_heap_words m1.m_result;
  Printf.printf "  %-34s %10d cycles %8d heap words  => %s\n" "open-coded equivalent" m2.m_cycles
    m2.m_heap_words m2.m_result;
  print_endline "  -> closures cost a code+environment allocation each; stack variables are free"

(* ------------------------------------------------------------------ *)
(* X10: the peephole extension (paper §4.5, deferred there)             *)
(* ------------------------------------------------------------------ *)

let x10 () =
  section "X10: Peephole extension — branch tensioning (paper §4.5, not in the shipped compiler)";
  let defs =
    "(defun grade (n acc k)\n\
    \  (if (zerop k) acc\n\
    \      (grade n\n\
    \             (+ acc (cond ((< n 10) 1) ((< n 100) (if (< n 50) 2 3)) (t 4)))\n\
    \             (1- k))))"
  in
  Printf.printf "  %-28s %12s %10s\n" "configuration" "cycles" "instrs";
  List.iter
    (fun (name, options) ->
      let m = measure ~label:name ~options ~defs "(grade 42 0 300)" in
      Printf.printf "  %-28s %12d %10d\n" name m.m_cycles m.m_instructions)
    [
      ("no peephole (as shipped)", Gen.default_options);
      ("with peephole", { Gen.default_options with Gen.peephole = true });
    ];
  print_endline "  -> one jump-to-jump per loop iteration tensioned away"

(* ------------------------------------------------------------------ *)
(* X11: common-subexpression elimination (paper §4.3, deferred there)   *)
(* ------------------------------------------------------------------ *)

let x11 () =
  section "X11: CSE extension (paper §4.3, not in the shipped compiler)";
  let defs =
    "(defun q (a b n acc)\n\
    \  (if (zerop n) acc\n\
    \      (q a b (1- n) (+ acc (* (+ a b) (+ a b)) (* (+ a b) (+ a b))))))"
  in
  Printf.printf "  %-28s %12s %10s\n" "configuration" "cycles" "services";
  List.iter
    (fun (name, cse) ->
      let m = measure ~label:name ~cse ~defs "(q 3 4 100 0)" in
      Printf.printf "  %-28s %12d %10d\n" name m.m_cycles m.m_svcs)
    [ ("no CSE (as shipped)", false); ("with CSE", true) ];
  print_endline "  -> repeated arithmetic binds once, via a manifest lambda"

(* ------------------------------------------------------------------ *)
(* X12: Gabriel-style benchmarks (Gabriel being an author)              *)
(* ------------------------------------------------------------------ *)

let x12 () =
  section "X12: Gabriel benchmarks (TAK family) on the simulated S-1";
  let tak =
    "(defun tak (x y z)\n\
    \  (if (not (< y x)) z\n\
    \      (tak (tak (1- x) y z) (tak (1- y) z x) (tak (1- z) x y))))"
  in
  let ctak =
    "(defun ctak (x y z) (catch 'ctak (ctak-aux x y z)))\n\
     (defun ctak-aux (x y z)\n\
    \  (if (not (< y x)) (throw 'ctak z)\n\
    \      (ctak-aux (catch 'ctak (ctak-aux (1- x) y z))\n\
    \                (catch 'ctak (ctak-aux (1- y) z x))\n\
    \                (catch 'ctak (ctak-aux (1- z) x y)))))"
  in
  Printf.printf "  %-22s %14s %10s %10s %10s  %s\n" "benchmark" "cycles" "calls"
    "tail calls" "stack" "result";
  List.iter
    (fun (name, defs, call) ->
      let m = measure ~label:name ~defs call in
      Printf.printf "  %-22s %14d %10d %10d %10d  %s\n" name m.m_cycles m.m_calls
        m.m_tcalls m.m_stack_high m.m_result)
    [
      ("(tak 18 12 6)", tak, "(tak 18 12 6)");
      ("(ctak 12 8 4)", ctak, "(ctak 12 8 4)");
    ]

(* ------------------------------------------------------------------ *)
(* Wall-clock: compiled vs interpreted (Bechamel)                       *)
(* ------------------------------------------------------------------ *)

let wall_clock () =
  section "Wall-clock: compiled vs interpreted (Bechamel, host time)";
  let open Bechamel in
  let open Toolkit in
  let fib = "(defun fib (n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))" in
  let cc = C.create () in
  ignore (C.eval_string cc fib);
  let ci = C.create () in
  ignore (S1_interp.Interp.eval_string ci.C.it fib);
  let t1 =
    Test.make ~name:"compiled (fib 12)"
      (Staged.stage (fun () -> ignore (C.eval_string cc "(fib 12)")))
  in
  let t2 =
    Test.make ~name:"interpreted (fib 12)"
      (Staged.stage (fun () -> ignore (S1_interp.Interp.eval_string ci.C.it "(fib 12)")))
  in
  let tests = Test.make_grouped ~name:"fib" [ t1; t2 ] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 10) () in
  let raw = Benchmark.all cfg instances tests in
  let results =
    Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
      (Instance.monotonic_clock :> Measure.witness)
      raw
  in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ est ] -> Printf.printf "  %-28s %12.0f ns/run\n" name est
      | _ -> ())
    results;
  print_endline "  (the simulator itself is OCaml; both run on the same simulated machine)"

(* ------------------------------------------------------------------ *)
(* cache=DIR: the compile service, cold vs warm                         *)
(* ------------------------------------------------------------------ *)

(* Batch-compile the corpus twice through an on-disk image cache rooted
   at DIR: once cold (compile + serialize + store) and once warm
   (verified load + replay).  The warm pass must reproduce every image
   byte-for-byte and every execution cycle-for-cycle — a mismatch exits
   non-zero.  Wall times are host-clock and the corpus is not a paper
   experiment, so these rows stay out of [records]. *)
let serve_cache_bench dir =
  section "SV: Compile service — cold vs warm batch over the corpus";
  let module Serve = S1_serve.Serve in
  let module Cache = S1_serve.Cache in
  let rec rm_rf path =
    if Sys.file_exists path then
      if Sys.is_directory path then begin
        Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
        Sys.rmdir path
      end
      else Sys.remove path
  in
  rm_rf dir;
  let corpus = if Sys.file_exists "corpus" then "corpus" else "test/corpus" in
  let files =
    Sys.readdir corpus |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".lisp")
    |> List.sort compare
    |> List.map (Filename.concat corpus)
  in
  let run () =
    let cache = Cache.create ~dir () in
    let t0 = Unix.gettimeofday () in
    let report = S1_serve.Supervise.batch ~cache Serve.default_cfg files in
    let rs = List.map (fun s -> s.S1_serve.Supervise.s_result) report.S1_serve.Supervise.b_results in
    (rs, Unix.gettimeofday () -. t0)
  in
  let cold, cold_wall = run () in
  let warm, warm_wall = run () in
  let failures = ref 0 in
  List.iter2
    (fun (c : Serve.result) (w : Serve.result) ->
      let fail fmt =
        incr failures;
        Printf.printf fmt c.Serve.r_file
      in
      if not w.Serve.r_hit then fail "  MISMATCH %s: warm run missed the cache\n";
      if c.Serve.r_image <> w.Serve.r_image then
        fail "  MISMATCH %s: warm image differs from cold image\n";
      (* a DEFMACRO source legitimately runs cheaper warm: the replay
         skips the compile-time expander calls, so the warm cycle count
         must only never exceed the cold one *)
      let uses_macro =
        let src = In_channel.with_open_text c.Serve.r_file In_channel.input_all in
        let pat = "DEFMACRO" in
        let n = String.length src and m = String.length pat in
        let rec go i = i + m <= n && (String.sub src i m = pat || go (i + 1)) in
        go 0
      in
      match (c.Serve.r_exec, w.Serve.r_exec) with
      | Some ce, Some we ->
          if
            (if uses_macro then we.Serve.e_cycles > ce.Serve.e_cycles
             else ce.Serve.e_cycles <> we.Serve.e_cycles)
          then fail "  MISMATCH %s: warm cycle count differs\n";
          if ce.Serve.e_value <> we.Serve.e_value || ce.Serve.e_output <> we.Serve.e_output
          then fail "  MISMATCH %s: warm result differs\n"
      | None, None -> ()
      | _ -> fail "  MISMATCH %s: cold and warm completion differ\n")
    cold warm;
  let hits = List.length (List.filter (fun r -> r.Serve.r_hit) warm) in
  Printf.printf "  %-34s %10.1f ms  (%d programs compiled + stored)\n" "cold batch"
    (cold_wall *. 1e3) (List.length files);
  Printf.printf "  %-34s %10.1f ms  (%d/%d cache hits, %.1fx cold)\n" "warm batch"
    (warm_wall *. 1e3) hits (List.length files)
    (cold_wall /. Float.max 1e-9 warm_wall);
  if !failures = 0 then
    print_endline
      "  -> warm images byte-identical, warm executions cycle-identical"
  else begin
    Printf.printf "  -> %d mismatches\n" !failures;
    exit 1
  end

let smoke_experiments () =
  t1 ();
  x3 ();
  x4 ();
  x5 ();
  x6 ()

let () =
  let want_wall = Array.exists (fun a -> a = "wall") Sys.argv in
  let smoke = Array.exists (fun a -> a = "smoke") Sys.argv in
  let serve_cache = ref None in
  Array.iter
    (fun a ->
      if String.length a > 7 && String.sub a 0 7 = "folded=" then
        folded_dir := Some (String.sub a 7 (String.length a - 7));
      if String.length a > 6 && String.sub a 0 6 = "cache=" then
        serve_cache := Some (String.sub a 6 (String.length a - 6)))
    Sys.argv;
  (match !serve_cache with
  | Some dir ->
      serve_cache_bench dir;
      exit 0
  | None -> ());
  if smoke then begin
    (* quick CI subset: one structural table plus the cheap quantitative
       experiments, still emitting a full BENCH_RESULTS.json *)
    smoke_experiments ()
  end
  else begin
    t1 ();
    t2_t3 ();
    t4_e7 ();
    e5 ();
    e6 ();
    x1 ();
    x3 ();
    x4 ();
    x5 ();
    x6 ();
    x7 ();
    x8 ();
    x9 ();
    x10 ();
    x11 ();
    x12 ();
    if want_wall then wall_clock ()
  end;
  let out =
    Array.fold_left
      (fun acc a ->
        if String.length a > 4 && String.sub a 0 4 = "out=" then
          String.sub a 4 (String.length a - 4)
        else acc)
      "BENCH_RESULTS.json" Sys.argv
  in
  write_results out;
  print_endline "\nAll experiments complete.  See EXPERIMENTS.md for the recorded results."
