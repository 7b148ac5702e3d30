(* Reproductions of the paper's structural artifacts: Table 1 (phases),
   Table 2 (constructs), Table 3 (representations), Table 4 (generated
   code for testfn), the §5 short-circuit code shape (E5), the §6.1
   RT-register code (E6), and the §7 optimizer transcript (E7). *)

module Sexp = S1_sexp.Sexp
module Reader = S1_sexp.Reader
module C = S1_core.Compiler
module Rt = S1_runtime.Rt
module Isa = S1_machine.Isa
module Asm = S1_machine.Asm
module Cpu = S1_machine.Cpu
module Mem = S1_machine.Mem
module F36 = S1_machine.Float36
open S1_ir

let contains hay needle =
  let re = Str.regexp_string needle in
  try
    ignore (Str.search_forward re hay 0);
    true
  with Not_found -> false

let count_sub hay needle =
  let re = Str.regexp_string needle in
  let rec go i acc =
    match Str.search_forward re hay i with
    | j -> go (j + 1) (acc + 1)
    | exception Not_found -> acc
  in
  go 0 0

(* T1: Table 1 phase structure ------------------------------------------- *)

let test_t1_phases () =
  let p = C.phases in
  Alcotest.(check int) "twelve phases" 12 (List.length p);
  let order_ok a b =
    let rec idx i = function
      | [] -> -1
      | x :: rest -> if contains x a then i else idx (i + 1) rest
    in
    let ia = idx 0 p in
    let rec idx2 i = function
      | [] -> -1
      | x :: rest -> if contains x b then i else idx2 (i + 1) rest
    in
    ia >= 0 && idx2 0 p > ia
  in
  Alcotest.(check bool) "preliminary before analysis" true
    (order_ok "Preliminary" "environment analysis");
  Alcotest.(check bool) "analysis before optimization" true
    (order_ok "environment analysis" "Source-level optimization");
  Alcotest.(check bool) "optimization before binding annotation" true
    (order_ok "Source-level optimization" "binding annotation");
  Alcotest.(check bool) "representation before pdl numbers" true
    (order_ok "representation annotation" "pdl number");
  Alcotest.(check bool) "target annotation before code generation" true
    (order_ok "target annotation" "Code generation")

(* T2: Table 2 internal constructs ----------------------------------------- *)

let test_t2_constructs () =
  (* one source program per construct; each must convert and round-trip *)
  let probes =
    [
      ("term", "'(a b)");
      ("variable", "((lambda (x) x) 1)");
      ("caseq", "(caseq x ((1) 'a) (t 'b))");
      ("catcher", "(catch 'tag 1)");
      ("go", "(prog () loop (go loop))");
      ("if", "(if a 1 2)");
      ("lambda", "(lambda (x) x)");
      ("progbody", "(prog () 1)");
      ("progn", "(progn 1 2)");
      ("return", "(prog () (return 3))");
      ("setq", "((lambda (v) (setq v 1)) 0)");
      ("call", "(f 1 2)");
    ]
  in
  List.iter
    (fun (name, src) ->
      let n = S1_frontend.Convert.expression (Reader.parse_one src) in
      let text = Backtrans.to_string n in
      Alcotest.(check bool) (name ^ " converts and back-translates") true
        (String.length text > 0))
    probes;
  (* the construct inventory is exactly Table 2's twelve *)
  let kinds =
    [ "Term"; "Var"; "Caseq"; "Catcher"; "Go"; "If"; "Lambda"; "Progbody"; "Progn";
      "Return"; "Setq"; "Call" ]
  in
  Alcotest.(check int) "twelve constructs" 12 (List.length kinds)

(* T3: Table 3 internal representations ------------------------------------- *)

let test_t3_representations () =
  let names = List.map Node.rep_name Node.all_reps in
  Alcotest.(check int) "fourteen representations" 14 (List.length names);
  List.iter
    (fun expected ->
      Alcotest.(check bool) (expected ^ " present") true (List.mem expected names))
    [ "SWFIX"; "DWFIX"; "HWFLO"; "SWFLO"; "DWFLO"; "TWFLO"; "HWCPLX"; "SWCPLX"; "DWCPLX";
      "TWCPLX"; "POINTER"; "BIT"; "JUMP"; "NONE" ]

(* T4: Table 4 — the generated code for testfn ------------------------------- *)

let testfn_src =
  "(defun testfn (a &optional (b 3.0) (c a))\n\
  \  (let ((d (+$f a b c)) (e (*$f a b c)))\n\
  \    (let ((q (sin$f e)))\n\
  \      (frotz d e (max$f d e))\n\
  \      q)))"

let test_t4_testfn_code () =
  let c = C.create () in
  ignore (C.eval_string c "(defun frotz (x y z) (list x y z))");
  let listing, _ = C.listing_of c (Reader.parse_one testfn_src) in
  (* argument-count dispatch through a data table *)
  Alcotest.(check bool) "dispatch table" true (contains listing "DISPATCH");
  Alcotest.(check bool) "per-count cases" true
    (contains listing "Come here if 1 arguments were supplied."
    && contains listing "Come here if 2 arguments were supplied."
    && contains listing "Come here if 3 arguments were supplied.");
  Alcotest.(check bool) "default for b" true
    (contains listing "Calculate default value for parameter 2 [B]");
  Alcotest.(check bool) "default for c" true
    (contains listing "Calculate default value for parameter 3 [C]");
  (* frame setup: pointer memory and DTP-GC-stamped scratch memory *)
  Alcotest.(check bool) "pointer slots allocated" true
    (contains listing "words of pointer memory");
  Alcotest.(check bool) "scratch slots allocated" true (contains listing "scratch memory");
  (* the float pipeline: FADD/FMULT for the lets, FMAX for the argument,
     FSIN (argument in cycles) for q *)
  Alcotest.(check bool) "FADD" true (contains listing "FADD");
  Alcotest.(check bool) "FMULT" true (contains listing "FMULT");
  Alcotest.(check bool) "FMAX" true (contains listing "FMAX");
  Alcotest.(check bool) "FSIN" true (contains listing "FSIN");
  (* pdl numbers: raw results installed in stack slots and MOVP'd *)
  Alcotest.(check bool) "pdl install" true
    (contains listing "Install value for PDL-allocated number.");
  Alcotest.(check bool) "MOVP single-flonum" true
    (contains listing "MOVP *:DTP-SINGLE-FLONUM");
  (* the call to frotz *)
  Alcotest.(check bool) "call frotz" true (contains listing "%CALL");
  (* the sin->sinc constant from the optimizer, as a raw SWFLO immediate *)
  let half_pi_recip =
    string_of_int (F36.encode_single (F36.single_of_float (1.0 /. (2.0 *. Float.pi))))
  in
  Alcotest.(check bool) "1/2pi constant" true (contains listing half_pi_recip)
  ;
  (* and it runs: results match the interpreter *)
  let c2 = C.create () in
  ignore (C.eval_string c2 "(defun frotz (x y z) (list x y z))");
  ignore (C.eval_string c2 testfn_src);
  let compiled = C.eval_string c2 "(testfn 1.0 2.0 4.0)" in
  ignore (S1_interp.Interp.eval_string c2.C.it "(defun itf (a b c) (sin (* a b c)))");
  let expected = S1_interp.Interp.eval_string c2.C.it "(itf 1.0 2.0 4.0)" in
  Alcotest.(check bool) "value agrees with radian sine" true
    (abs_float
       (S1_runtime.Obj.single_value c2.C.rt.Rt.obj compiled
       -. S1_runtime.Obj.single_value c2.C.rt.Rt.obj expected)
    < 1e-6)

(* E5: §5 boolean short-circuiting compiles to pure jumps -------------------- *)

let test_e5_short_circuit_code () =
  let c = C.create () in
  let listing, _ =
    C.listing_of c
      (Reader.parse_one "(defun choose (a b c e1 e2) (if (and a (or b c)) e1 e2))")
  in
  (* no function calls, no value materialization of the boolean: only
     conditional jumps *)
  Alcotest.(check int) "no calls" 0 (count_sub listing "%CALL");
  Alcotest.(check int) "no services" 0 (count_sub listing "SVC");
  Alcotest.(check bool) "conditional jumps present" true (contains listing "JMP");
  (* each arm's value is loaded at most twice (then/else merge), no
     duplication explosion *)
  Alcotest.(check bool) "compact" true (count_sub listing "(FP" < 30)

(* E6: §6.1 — the RT-register dance ------------------------------------------- *)

(* E6a: the paper's Z[I,K] := A[I,J]*B[J,K] + C[I,K] + D sequence, written
   exactly as the paper's listing and executed on real arrays: it must
   compute correctly and contain zero MOV instructions. *)
let test_e6a_paper_sequence () =
  let cpu = Cpu.create () in
  let mem = cpu.Cpu.mem in
  let dim = 4 in
  (* row-major dim x dim float arrays *)
  let alloc_array () = Mem.alloc_static mem (dim * dim) in
  let arr_a = alloc_array () and arr_b = alloc_array () and arr_c = alloc_array () and arr_z = alloc_array () in
  let set base i j v = Mem.write mem (base + (i * dim) + j) (F36.encode_single v) in
  let get base i j = F36.decode_single (Mem.read mem (base + (i * dim) + j)) in
  for i = 0 to dim - 1 do
    for j = 0 to dim - 1 do
      set arr_a i j (float_of_int ((i * 10) + j));
      set arr_b i j (float_of_int ((j * 7) - i));
      set arr_c i j 0.5;
      set arr_z i j 0.0
    done
  done;
  let i_, j_, k_ = (1, 2, 3) in
  let d = 2.25 in
  (* registers: R10=I, R11=J, R12=K; dimension stride in R13 *)
  let open Isa in
  let prog =
    Asm.
      [
        Label "GO";
        (* RTA := I*dim + J : subscript for A *)
        Instr (Bin (MULT, S, Reg rta, Reg 10, Reg 13));
        Instr (Bin (ADD, S, Reg rta, Reg rta, Reg 11));
        (* RTB := J*dim + K : subscript for B *)
        Instr (Bin (MULT, S, Reg rtb, Reg 11, Reg 13));
        Instr (Bin (ADD, S, Reg rtb, Reg rtb, Reg 12));
        (* FMULT RTA, A(RTA), B(RTB) *)
        Instr
          (Bin
             ( FMULT, S, Reg rta,
               Idx { base = 16; disp = 0; index = rta; shift = 0 },
               Idx { base = 17; disp = 0; index = rtb; shift = 0 } ));
        (* RTB := I*dim + K : subscript for C *)
        Instr (Bin (MULT, S, Reg rtb, Reg 10, Reg 13));
        Instr (Bin (ADD, S, Reg rtb, Reg rtb, Reg 12));
        (* FADD RTA, C(RTB) *)
        Instr
          (Bin
             ( FADD, S, Reg rta, Reg rta,
               Idx { base = 18; disp = 0; index = rtb; shift = 0 } ));
        (* RTB := I*dim + K : subscript for Z (recomputed, paper-style) *)
        Instr (Bin (MULT, S, Reg rtb, Reg 10, Reg 13));
        Instr (Bin (ADD, S, Reg rtb, Reg rtb, Reg 12));
        (* FADD Z(RTB), RTA, D : store the final sum straight to Z *)
        Instr
          (Bin
             ( FADD, S,
               Idx { base = 19; disp = 0; index = rtb; shift = 0 },
               Reg rta, Reg 20 ));
        Instr Halt;
      ]
  in
  let image = Cpu.load cpu prog in
  Cpu.set_reg cpu 10 i_;
  Cpu.set_reg cpu 11 j_;
  Cpu.set_reg cpu 12 k_;
  Cpu.set_reg cpu 13 dim;
  Cpu.set_reg cpu 16 arr_a;
  Cpu.set_reg cpu 17 arr_b;
  Cpu.set_reg cpu 18 arr_c;
  Cpu.set_reg cpu 19 arr_z;
  Cpu.set_reg cpu 20 (F36.encode_single d);
  Cpu.run cpu ~at:(Cpu.label_addr image "GO");
  let expected = (get arr_a i_ j_ *. get arr_b j_ k_) +. get arr_c i_ k_ +. d in
  Alcotest.(check (float 1e-4)) "Z[I,K] computed" expected (get arr_z i_ k_);
  (* the paper's claim: no MOV instructions needed *)
  Alcotest.(check int) "zero MOVs" 0 cpu.Cpu.stats.Cpu.movs;
  Alcotest.(check int) "cycles, as EXPERIMENTS.md quotes" 32 cpu.Cpu.stats.Cpu.cycles

(* E6b: the harder variant without +D needs one temporary but still no
   MOVs: "computing it ahead allows the subscript computation to dance
   into RTA and then out again into TEMP". *)
let test_e6b_harder_variant () =
  let cpu = Cpu.create () in
  let mem = cpu.Cpu.mem in
  let dim = 4 in
  let alloc_array () = Mem.alloc_static mem (dim * dim) in
  let arr_a = alloc_array () and arr_b = alloc_array () and arr_c = alloc_array () and arr_z = alloc_array () in
  let temp = Mem.alloc_static mem 1 in
  let set base i j v = Mem.write mem (base + (i * dim) + j) (F36.encode_single v) in
  let get base i j = F36.decode_single (Mem.read mem (base + (i * dim) + j)) in
  for i = 0 to dim - 1 do
    for j = 0 to dim - 1 do
      set arr_a i j (float_of_int (i + j));
      set arr_b i j (float_of_int ((i * 2) + j));
      set arr_c i j 1.25;
      set arr_z i j 0.0
    done
  done;
  let i_, j_, k_ = (2, 1, 3) in
  let open Isa in
  let prog =
    Asm.
      [
        Label "GO";
        (* TEMP := I*dim + K, computed ahead (through RTA, then out) *)
        Instr (Bin (MULT, S, Reg rta, Reg 10, Reg 13));
        Instr (Bin (ADD, S, Mabs temp, Reg rta, Reg 12));
        (* RTA := I*dim + J *)
        Instr (Bin (MULT, S, Reg rta, Reg 10, Reg 13));
        Instr (Bin (ADD, S, Reg rta, Reg rta, Reg 11));
        (* RTB := J*dim + K *)
        Instr (Bin (MULT, S, Reg rtb, Reg 11, Reg 13));
        Instr (Bin (ADD, S, Reg rtb, Reg rtb, Reg 12));
        Instr
          (Bin
             ( FMULT, S, Reg rta,
               Idx { base = 16; disp = 0; index = rta; shift = 0 },
               Idx { base = 17; disp = 0; index = rtb; shift = 0 } ));
        (* RTB := I*dim + K for C *)
        Instr (Bin (MULT, S, Reg rtb, Reg 10, Reg 13));
        Instr (Bin (ADD, S, Reg rtb, Reg rtb, Reg 12));
        (* Z(TEMP) := RTA + C(RTB) — subscript recovered from TEMP *)
        Instr (Mov (Reg 21, Mabs temp));
        Instr
          (Bin
             ( FADD, S,
               Idx { base = 19; disp = 0; index = 21; shift = 0 },
               Reg rta,
               Idx { base = 18; disp = 0; index = rtb; shift = 0 } ));
        Instr Halt;
      ]
  in
  let image = Cpu.load cpu prog in
  Cpu.set_reg cpu 10 i_;
  Cpu.set_reg cpu 11 j_;
  Cpu.set_reg cpu 12 k_;
  Cpu.set_reg cpu 13 dim;
  Cpu.set_reg cpu 16 arr_a;
  Cpu.set_reg cpu 17 arr_b;
  Cpu.set_reg cpu 18 arr_c;
  Cpu.set_reg cpu 19 arr_z;
  Cpu.run cpu ~at:(Cpu.label_addr image "GO");
  let expected = (get arr_a i_ j_ *. get arr_b j_ k_) +. get arr_c i_ k_ in
  Alcotest.(check (float 1e-4)) "Z[I,K] computed" expected (get arr_z i_ k_);
  (* one MOV to recover the temp subscript into an index register; the
     arithmetic itself needs none *)
  Alcotest.(check bool) "at most one MOV" true (cpu.Cpu.stats.Cpu.movs <= 1)

(* E6c: our own compiler on straight-line float code produces a MOV-free
   arithmetic core. *)
let test_e6c_compiled_float_core () =
  let c = C.create () in
  let listing, _ =
    C.listing_of c
      (Reader.parse_one
         "(defun horner (x a b c d)\n\
         \  (declare (single-float x a b c d))\n\
         \  (+$f (*$f (+$f (*$f (+$f (*$f a x) b) x) c) x) d))")
  in
  (* isolate the body (after the BODY label, before the boxing) *)
  let body_start = Str.search_forward (Str.regexp_string "-BODY") listing 0 in
  let body = Str.string_after listing body_start in
  (* the arithmetic core ends at the last float instruction; the boxing
     of the final result (heap or pdl) follows it *)
  let arith_end =
    let last marker =
      let rec go i best =
        match Str.search_forward (Str.regexp_string marker) body i with
        | j -> go (j + 1) j
        | exception Not_found -> best
      in
      go 0 0
    in
    max (last "FADD") (last "FMULT")
  in
  let core = Str.string_before body arith_end in
  Alcotest.(check bool) "FMULT in core" true (contains core "FMULT");
  Alcotest.(check bool) "FADD in core" true (contains core "FADD");
  (* parameters were unboxed on entry, so the arithmetic core reads
     registers/slots directly: no register-shuffle MOVs between the float
     ops.  We allow frame loads (MOV from (TP n)) but no reg-to-reg. *)
  let movs =
    List.length
      (List.filter
         (fun line -> contains line "(MOV R" || contains line "(MOV RT")
         (String.split_on_char '\n' core))
  in
  Alcotest.(check int) "no register-shuffle MOVs in float core" 0 movs

(* E7: the §7 optimizer transcript --------------------------------------------- *)

let test_e7_transcript () =
  let c = C.create () in
  ignore (C.eval_string c "(defun frotz (x y z) (list x y z))");
  let _, ts = C.listing_of c (Reader.parse_one testfn_src) in
  let rules = S1_transform.Transcript.rules_fired ts in
  let has r = List.mem r rules in
  Alcotest.(check bool) "META-EVALUATE-ASSOC-COMMUT-CALL" true
    (has "META-EVALUATE-ASSOC-COMMUT-CALL");
  Alcotest.(check bool) "CONSIDER-REVERSING-ARGUMENTS" true
    (has "CONSIDER-REVERSING-ARGUMENTS");
  Alcotest.(check bool) "META-SIN-TO-SINC" true (has "META-SIN-TO-SINC");
  Alcotest.(check bool) "META-SUBSTITUTE" true (has "META-SUBSTITUTE");
  (* the printed transcript uses the paper's format *)
  let text = S1_transform.Transcript.to_string ts in
  Alcotest.(check bool) "transcript format" true
    (contains text ";**** Optimizing this form:"
    && contains text ";**** courtesy of");
  (* the assoc-commut step produces the paper's exact nesting *)
  Alcotest.(check bool) "paper's (+$F (+$F C B) A) shape" true
    (contains text "(+$F (+$F C B) A)");
  Alcotest.(check bool) "paper's (*$F (*$F C B) A) shape" true
    (contains text "(*$F (*$F C B) A)")

(* X7: special-variable lookup caching ------------------------------------------ *)

let test_x7_special_caching () =
  let count_lookups options =
    let c = C.create ~options () in
    ignore
      (C.eval_string c
         "(defvar *s* 5)\n\
          (defun use-s (n acc) (if (zerop n) acc (use-s (1- n) (+ acc (+ *s* (+ *s* *s*))))))");
    Cpu.reset_stats c.C.rt.Rt.cpu;
    ignore (C.eval_string c "(use-s 200 0)");
    c.C.rt.Rt.cpu.Cpu.stats.Cpu.svcs
  in
  let cached = count_lookups S1_codegen.Gen.default_options in
  let uncached =
    count_lookups
      { S1_codegen.Gen.default_options with S1_codegen.Gen.cache_specials = false }
  in
  Alcotest.(check bool)
    (Printf.sprintf "caching reduces lookups (%d vs %d services)" cached uncached)
    true (cached < uncached)

(* Recorded figures ---------------------------------------------------------- *)

(* Every bench figure EXPERIMENTS.md quotes, pinned.  Each must equal its
   row in BENCH_RESULTS.json (the committed bench output, which CI's
   exact-cycle gate ties to a fresh run) and appear, in the document's
   digit grouping, in that experiment's section of EXPERIMENTS.md. *)
let figures =
  [
    ("X1", "(loop-sum 10 0)", "cycles", 767);
    ("X1", "(loop-sum 10 0)", "tcalls", 11);
    ("X1", "(loop-sum 10 0)", "stack_high", 11);
    ("X1", "(loop-sum 1000 0)", "cycles", 70_067);
    ("X1", "(loop-sum 1000 0)", "tcalls", 1_001);
    ("X1", "(loop-sum 100000 0)", "cycles", 7_000_067);
    ("X1", "(loop-sum 100000 0)", "tcalls", 100_001);
    ("X1", "(loop-sum 100000 0)", "stack_high", 11);
    ("X3", "compiled, declared", "cycles", 124);
    ("X3", "compiled, generic (no decls)", "cycles", 166);
    ("X3", "compiled, no inline prims", "cycles", 460);
    ("X3", "declared float loop", "cycles", 89_084);
    ("X3", "declared float loop", "heap_words", 2_002);
    ("X3", "generic float loop", "cycles", 112_067);
    ("X3", "generic float loop", "heap_words", 8_000);
    ("X4", "pdl numbers on", "cycles", 82_567);
    ("X4", "pdl numbers on", "heap_words", 0);
    ("X4", "pdl numbers off", "cycles", 88_067);
    ("X4", "pdl numbers off", "heap_words", 1_000);
    ("X5", "declared: ops specialize to $F", "cycles", 133);
    ("X5", "declared: ops specialize to $F", "svcs", 2);
    ("X5", "undeclared: generic arithmetic", "cycles", 177);
    ("X5", "undeclared: generic arithmetic", "svcs", 9);
    ("X6", "TNBIND packing", "cycles", 124);
    ("X6", "TNBIND packing", "mem_traffic", 13);
    ("X6", "naive (all frame slots)", "cycles", 131);
    ("X6", "naive (all frame slots)", "mem_traffic", 28);
    ("X7", "entry caching", "cycles", 67_313);
    ("X7", "entry caching", "svcs", 3_305);
    ("X7", "lookup every access", "cycles", 75_067);
    ("X7", "lookup every access", "svcs", 4_202);
    ("X8", "optimizer on", "cycles", 27_477);
    ("X8", "optimizer off", "cycles", 35_276);
    ("X9", "closure per iteration", "cycles", 37_067);
    ("X9", "closure per iteration", "heap_words", 1_200);
    ("X9", "open-coded equivalent", "cycles", 16_867);
    ("X10", "no peephole (as shipped)", "cycles", 37_571);
    ("X10", "with peephole", "cycles", 37_271);
    ("X11", "no CSE (as shipped)", "cycles", 18_775);
    ("X11", "no CSE (as shipped)", "svcs", 1_002);
    ("X11", "with CSE", "cycles", 12_375);
    ("X11", "with CSE", "svcs", 602);
    ("X12", "(tak 18 12 6)", "cycles", 4_707_065);
    ("X12", "(tak 18 12 6)", "calls", 47_707);
    ("X12", "(tak 18 12 6)", "tcalls", 15_903);
    ("X12", "(tak 18 12 6)", "stack_high", 204);
    ("X12", "(ctak 12 8 4)", "cycles", 138_243);
    ("X12", "(ctak 12 8 4)", "calls", 1_734);
  ]

(* under `dune runtest` the cwd is the test sandbox, one below the root *)
let root_file name = if Sys.file_exists ("../" ^ name) then "../" ^ name else name
let read_file name = In_channel.with_open_text (root_file name) In_channel.input_all

(* 4707065 -> "4 707 065", the grouping EXPERIMENTS.md uses *)
let grouped n =
  let s = string_of_int n in
  let len = String.length s in
  String.concat ""
    (List.init len (fun i ->
         let c = String.make 1 s.[i] in
         if i > 0 && (len - i) mod 3 = 0 then " " ^ c else c))

(* From the "### ID " heading to the next heading. *)
let doc_section doc id =
  let start = Str.search_forward (Str.regexp_string ("\n### " ^ id ^ " ")) doc 0 in
  let stop =
    try Str.search_forward (Str.regexp "\n##") doc (start + 1)
    with Not_found -> String.length doc
  in
  String.sub doc start (stop - start)

let test_recorded_figures () =
  let module Json = S1_obs.Json in
  let rows =
    match Json.member "rows" (Json.parse (read_file "BENCH_RESULTS.json")) with
    | Some (Json.Arr rows) -> rows
    | _ -> Alcotest.fail "BENCH_RESULTS.json has no rows"
  in
  let doc = read_file "EXPERIMENTS.md" in
  List.iter
    (fun (id, name, field, want) ->
      let what = Printf.sprintf "%s %s %s" id name field in
      let row =
        List.find_opt
          (fun r ->
            let str k = Option.bind (Json.member k r) Json.to_str in
            str "name" = Some name
            && Option.fold ~none:false
                 ~some:(String.starts_with ~prefix:(id ^ ":"))
                 (str "experiment"))
          rows
      in
      (match Option.bind row (fun r -> Option.bind (Json.member field r) Json.to_int) with
      | Some got -> Alcotest.(check int) (what ^ " in BENCH_RESULTS.json") want got
      | None -> Alcotest.failf "%s: no such figure in BENCH_RESULTS.json" what);
      Alcotest.(check bool)
        (Printf.sprintf "%s = %s quoted in EXPERIMENTS.md" what (grouped want))
        true
        (contains (doc_section doc id) (grouped want)))
    figures

let () =
  Alcotest.run "experiments"
    [
      ( "tables",
        [
          Alcotest.test_case "T1 phase structure" `Quick test_t1_phases;
          Alcotest.test_case "T2 internal constructs" `Quick test_t2_constructs;
          Alcotest.test_case "T3 representations" `Quick test_t3_representations;
          Alcotest.test_case "T4 testfn code" `Quick test_t4_testfn_code;
        ] );
      ( "worked-examples",
        [
          Alcotest.test_case "E5 short-circuit code" `Quick test_e5_short_circuit_code;
          Alcotest.test_case "E6a paper matrix sequence" `Quick test_e6a_paper_sequence;
          Alcotest.test_case "E6b harder variant" `Quick test_e6b_harder_variant;
          Alcotest.test_case "E6c compiled float core" `Quick test_e6c_compiled_float_core;
          Alcotest.test_case "E7 optimizer transcript" `Quick test_e7_transcript;
          Alcotest.test_case "X7 special caching" `Quick test_x7_special_caching;
        ] );
      ("figures", [ Alcotest.test_case "recorded figures" `Quick test_recorded_figures ]);
    ]
