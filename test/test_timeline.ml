(* Call-path profiling (the shadow call stack) and the runtime event
   timeline: cycle-exact attribution, tail-call flattening, throw-safe
   unwinding, byte-deterministic exports, and the annotated listing. *)

module Reader = S1_sexp.Reader
module C = S1_core.Compiler
module Rt = S1_runtime.Rt
module Heap = S1_runtime.Heap
module Cpu = S1_machine.Cpu
module Timeline = S1_obs.Timeline

let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)
let check_bool = Alcotest.(check bool)

let read_corpus name =
  let path =
    List.find Sys.file_exists
      [ Filename.concat "corpus" name; Filename.concat "test/corpus" name ]
  in
  let ic = open_in path in
  let n = in_channel_length ic in
  let src = really_input_string ic n in
  close_in ic;
  src

let fib_src =
  "(DEFUN FIB (N) (IF (< N 2) N (+ (FIB (- N 1)) (FIB (- N 2)))))\n(FIB 10)"

(* Fresh world, shadow stack on, program run; returns the compiler. *)
let run_with_callgraph ?(file = "t.lisp") src =
  let c = C.create () in
  let cpu = c.C.rt.Rt.cpu in
  Cpu.reset_stats cpu;
  Cpu.enable_callgraph cpu;
  ignore (C.eval_string c ~file src);
  c

(* The folded-stack export, parsed back into (path, cycles) pairs. *)
let folded cpu =
  String.split_on_char '\n' (Cpu.render_folded cpu)
  |> List.filter_map (fun line ->
         match String.rindex_opt line ' ' with
         | Some i ->
             Some (String.sub line 0 i, int_of_string (String.sub line (i + 1) (String.length line - i - 1)))
         | None -> None)

(* Exactness ------------------------------------------------------------ *)

let test_folded_sums_to_cycles () =
  let c = run_with_callgraph fib_src in
  let cpu = c.C.rt.Rt.cpu in
  let folded = folded cpu in
  check_bool "recursion produced multiple paths" true (List.length folded > 2);
  let sum = List.fold_left (fun acc (_, n) -> acc + n) 0 folded in
  check_int "exclusive cycles sum exactly to stats.cycles" cpu.Cpu.stats.Cpu.cycles sum;
  (* the recursive edge was observed with real volume *)
  let e =
    List.find_opt
      (fun e -> e.Cpu.ep_caller = "FIB" && e.Cpu.ep_callee = "FIB")
      (Cpu.call_edges cpu)
  in
  match e with
  | None -> Alcotest.fail "no FIB -> FIB edge recorded"
  | Some e -> check_bool "recursive calls counted" true (e.Cpu.ep_calls > 50)

(* Tail calls ----------------------------------------------------------- *)

let test_tail_calls_add_no_depth () =
  let c = run_with_callgraph ~file:"tail.lisp" (read_corpus "tail-recursion.lisp") in
  let cpu = c.C.rt.Rt.cpu in
  (* 100 tail-recursive iterations replace the leaf frame in place: no
     path grows past root/(host)/toplevel/callee + a possible service
     frame *)
  let deepest =
    List.fold_left
      (fun acc (path, _) -> max acc (List.length (String.split_on_char ';' path)))
      0 (folded cpu)
  in
  check_bool (Printf.sprintf "deepest path %d frames stays O(1)" deepest) true (deepest <= 6);
  let e =
    List.find_opt
      (fun e -> e.Cpu.ep_caller = "LOOP-ADD" && e.Cpu.ep_callee = "LOOP-ADD")
      (Cpu.call_edges cpu)
  in
  (match e with
  | None -> Alcotest.fail "no LOOP-ADD -> LOOP-ADD edge recorded"
  | Some e -> check_bool "iterations recorded as tail calls" true (e.Cpu.ep_tcalls >= 99));
  let sum = List.fold_left (fun acc (_, n) -> acc + n) 0 (folded cpu) in
  check_int "still cycle-exact under tail calls" cpu.Cpu.stats.Cpu.cycles sum

(* THROW unwinding ------------------------------------------------------ *)

let test_catch_throw_unwinds_shadow_stack () =
  Timeline.reset ();
  Timeline.set_enabled true;
  Fun.protect ~finally:(fun () -> Timeline.set_enabled false) @@ fun () ->
  let c = run_with_callgraph ~file:"catch.lisp" (read_corpus "catch-unwind.lisp") in
  let cpu = c.C.rt.Rt.cpu in
  (* the THROW out of H skipped two RETs; the unwind must have popped
     those shadow frames, leaving only the root after the run *)
  check_int "shadow stack fully unwound" 1 (Cpu.shadow_depth cpu);
  check_str "shadow path is the root" "(root)" (Cpu.shadow_path cpu);
  let sum = List.fold_left (fun acc (_, n) -> acc + n) 0 (folded cpu) in
  check_int "cycle-exact across the non-local exit" cpu.Cpu.stats.Cpu.cycles sum;
  (* the timeline recorded the unwind *)
  let throws =
    List.filter
      (fun (e : Timeline.event) -> e.Timeline.ev_cat = "unwind")
      (Timeline.events ())
  in
  check_int "one THROW event" 1 (List.length throws);
  check_str "named" "throw" (List.hd throws).Timeline.ev_name

(* Byte determinism ------------------------------------------------------ *)

let test_exports_byte_identical () =
  let folded_of () =
    Timeline.reset ();
    Timeline.set_enabled true;
    Fun.protect ~finally:(fun () -> Timeline.set_enabled false) @@ fun () ->
    let c = run_with_callgraph fib_src in
    (Cpu.render_folded c.C.rt.Rt.cpu, Timeline.to_string ())
  in
  let f1, t1 = folded_of () in
  let f2, t2 = folded_of () in
  check_str "folded stacks byte-identical across runs" f1 f2;
  check_str "trace events byte-identical across runs" t1 t2;
  (* the folded rendering is the documented line format *)
  List.iter
    (fun line ->
      if line <> "" then
        match String.rindex_opt line ' ' with
        | None -> Alcotest.failf "folded line lacks a count: %s" line
        | Some i -> (
            match int_of_string_opt (String.sub line (i + 1) (String.length line - i - 1)) with
            | Some n -> check_bool "positive count" true (n > 0)
            | None -> Alcotest.failf "folded count not a number: %s" line))
    (String.split_on_char '\n' f1)

(* The edge table and the allocation paths reach no text export but
   --metrics, whose span timings vary run to run: pin their renderings
   per corpus program, each in a fresh world. *)
let callgraph_pins =
  [
    ("assoc-reorder-setq.lisp", "444bbcf3fd3c729cae9cd8a197e67d57");
    ("catch-fixnum-decl.lisp", "28935c92410daed64dd84b07002c4b89");
    ("catch-throw-typed.lisp", "afde156574f0e85777b14d7472ccc64c");
    ("catch-unwind.lisp", "0d0bdc19028b707180ee498b8fb98565");
    ("chaos-bind-depth.lisp", "102df5fa88b4afdf7c64e998ae90d0ea");
    ("chaos-heap-churn.lisp", "c866fadf4a16da1c6906c44e855d8148");
    ("chaos-rollback-equivalence.lisp", "ef6df84ea75e46dab2fbebc6fd2de920");
    ("closure-capture.lisp", "3725205ce50895292a17e6febe12b4f1");
    ("defmacro-warm-expand.lisp", "32b7e9deae9ee5850e908d48f710fd28");
    ("float-reassociation.lisp", "79d5606bb92ae3fe57cb99e06f32c02b");
    ("float-zero-sign.lisp", "f4fdbde857f65dfff04ad1b1991e913c");
    ("flonum-contagion.lisp", "dfbc91fa34714e0f9cac67d845d92714");
    ("funcall-loop-counter.lisp", "6a0d9a738f71f2120e1c9722f6a96de1");
    ("if-of-if.lisp", "412c66d0f0986633d0e11c911fd971b9");
    ("lambda-beta.lisp", "be3f6b7953b88dbefa17633844b1f9f4");
    ("noinline-float-prim.lisp", "489669721e58ee8a3ab328b8491f977d");
    ("nontail-recursion.lisp", "ed98bf76eef71cf3e8892160d848770e");
    ("remarks-demo.lisp", "bac8e5024ebc99286902f75c05823fdf");
    ("special-rebind.lisp", "70545e985b6399d560ba7b491bfa7abf");
    ("tail-recursion.lisp", "ab687afccfd45ffe759837827474d1a7")
  ]

let test_callgraph_views_pinned () =
  let dir = if Sys.file_exists "corpus" then "corpus" else "test/corpus" in
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".lisp")
    |> List.sort compare
  in
  let pin file =
    let c = C.create () in
    let cpu = c.C.rt.Rt.cpu in
    Cpu.reset_stats cpu;
    Cpu.enable_callgraph cpu;
    c.C.rt.Rt.fuel <- Some S1_fuzz.Oracle.fuzz_fuel;
    (try ignore (C.eval_string c ~file (read_corpus file)) with _ -> ());
    let b = Buffer.create 256 in
    List.iter
      (fun e ->
        Printf.bprintf b "%s %s %d %d %d %d\n" e.Cpu.ep_caller e.Cpu.ep_callee e.Cpu.ep_calls
          e.Cpu.ep_tcalls e.Cpu.ep_incl_cycles e.Cpu.ep_excl_cycles)
      (Cpu.call_edges cpu);
    List.iter (fun (p, w) -> Printf.bprintf b "%s %d\n" p w) (Cpu.folded_alloc cpu);
    (file, Digest.to_hex (Digest.string (Buffer.contents b)))
  in
  Alcotest.(check (list (pair string string))) "digests" callgraph_pins (List.map pin files)

(* GC and special-binding events ----------------------------------------- *)

let test_gc_event_on_timeline () =
  let c = C.create () in
  Timeline.reset ();
  Timeline.set_enabled true;
  Fun.protect ~finally:(fun () -> Timeline.set_enabled false) @@ fun () ->
  Heap.collect c.C.rt.Rt.heap;
  match
    List.find_opt (fun (e : Timeline.event) -> e.Timeline.ev_cat = "gc") (Timeline.events ())
  with
  | None -> Alcotest.fail "no gc event recorded"
  | Some e -> (
      check_str "named" "collect" e.Timeline.ev_name;
      match e.Timeline.ev_phase with
      | Timeline.Complete dur -> check_bool "a modeled pause duration" true (dur >= 0)
      | Timeline.Instant -> Alcotest.fail "gc event should be a Complete span")

let test_bind_events_and_high_water () =
  let c = C.create () in
  let cpu = c.C.rt.Rt.cpu in
  Cpu.reset_stats cpu;
  Timeline.reset ();
  Timeline.set_enabled true;
  Fun.protect ~finally:(fun () -> Timeline.set_enabled false) @@ fun () ->
  ignore (C.eval_string c ~file:"sp.lisp" (read_corpus "special-rebind.lisp"));
  check_bool "bind-stack high water recorded" true (cpu.Cpu.stats.Cpu.bind_high > 0);
  let cats = List.map (fun (e : Timeline.event) -> (e.Timeline.ev_cat, e.Timeline.ev_name))
      (Timeline.events ())
  in
  check_bool "bind event recorded" true (List.mem ("special", "bind") cats);
  check_bool "unbind event recorded" true (List.mem ("special", "unbind") cats)

(* Profile determinism --------------------------------------------------- *)

let test_profile_tie_breaks_on_entry_pc () =
  let c = C.create () in
  let cpu = c.C.rt.Rt.cpu in
  Cpu.reset_stats cpu;
  Cpu.enable_profile cpu;
  (* two byte-identical functions, each driven identically: their cycle
     counts tie, so the order must come from the entry PC (F loaded
     first, so F's entry is lower) *)
  ignore
    (C.eval_string c ~file:"tie.lisp"
       "(DEFUN TIE-F (N) (IF (<= N 0) 0 (+ N 1)))\n\
        (DEFUN TIE-G (N) (IF (<= N 0) 0 (+ N 1)))\n\
        (TIE-F 4)\n\
        (TIE-G 4)");
  let prof = Cpu.profile_by_function cpu in
  let cycles name =
    match List.find_opt (fun f -> f.Cpu.f_name = name) prof with
    | Some f -> f.Cpu.f_cycles
    | None -> Alcotest.failf "%s missing from profile" name
  in
  check_int "identical functions tie on cycles" (cycles "TIE-F") (cycles "TIE-G");
  let names = List.map (fun f -> f.Cpu.f_name) prof in
  let index n =
    let rec go i = function
      | [] -> Alcotest.failf "%s missing" n
      | x :: _ when x = n -> i
      | _ :: rest -> go (i + 1) rest
    in
    go 0 names
  in
  check_bool "tie broken by entry PC, not name-table order" true
    (index "TIE-F" < index "TIE-G");
  (* and the per-function table stays cycle-exact *)
  let sum = List.fold_left (fun acc f -> acc + f.Cpu.f_cycles) 0 prof in
  check_int "per-function cycles sum to stats.cycles" cpu.Cpu.stats.Cpu.cycles sum

(* Annotated listing ------------------------------------------------------ *)

(* Render the annotated listing for the catch/throw corpus program in a
   fresh world.  Used twice: the output must be byte-identical. *)
let annotate_corpus () =
  let src = read_corpus "catch-unwind.lisp" in
  let c = C.create () in
  let cpu = c.C.rt.Rt.cpu in
  Cpu.reset_stats cpu;
  Cpu.enable_profile cpu;
  c.C.log <- Some [];
  ignore (C.eval_string c ~file:"catch-unwind.lisp" src);
  let lines = Array.of_list (String.split_on_char '\n' src) in
  let source f = if f = "catch-unwind.lisp" then Some lines else None in
  let b = Buffer.create 1024 in
  List.iter
    (fun { C.l_unit = u; l_org = org; _ } ->
      Buffer.add_string b
        (S1_machine.Annotate.render cpu ~source ~name:u.S1_codegen.Gen.c_name ~org
           u.S1_codegen.Gen.c_prog))
    (List.rev (Option.value c.C.log ~default:[]));
  (* label gensym counters ("H~21-BODY") are process-global, so two
     compiles in one process differ only there; normalize them *)
  Str.global_replace (Str.regexp "~[0-9]+") "~N" (Buffer.contents b)

let test_annotate_golden () =
  let r1 = annotate_corpus () in
  let r2 = annotate_corpus () in
  check_str "annotated listing byte-identical across fresh worlds" r1 r2;
  let has_sub needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  (* all three functions render, source lines interleave, and the
     executed THROW path shows nonzero execution counts *)
  List.iter
    (fun needle ->
      check_bool (Printf.sprintf "listing contains %S" needle) true (has_sub needle r1))
    [
      ";;; H — annotated listing";
      ";;; G — annotated listing";
      ";;; F — annotated listing";
      "; catch-unwind.lisp:5:";
      "(THROW 'ESC (- 0 N))";
      "instruction";
    ];
  (* at least one instruction in H ran twice (both calls reach it) with
     measured cycles *)
  let executed_twice =
    List.exists
      (fun line ->
        match
          String.split_on_char ' ' line |> List.filter (fun s -> s <> "")
        with
        | _pc :: cyc :: execs :: _ -> (
            match (int_of_string_opt cyc, int_of_string_opt execs) with
            | Some c, Some e -> c > 0 && e >= 2
            | _ -> false)
        | _ -> false)
      (String.split_on_char '\n' r1)
  in
  check_bool "measured cycles with execs >= 2 present" true executed_twice

let () =
  Alcotest.run "timeline"
    [
      ( "callgraph",
        [
          Alcotest.test_case "folded sums to cycles" `Quick test_folded_sums_to_cycles;
          Alcotest.test_case "tail calls add no depth" `Quick test_tail_calls_add_no_depth;
          Alcotest.test_case "throw unwinds shadow stack" `Quick
            test_catch_throw_unwinds_shadow_stack;
          Alcotest.test_case "exports byte-identical" `Quick test_exports_byte_identical;
          Alcotest.test_case "edges and allocation pinned" `Quick test_callgraph_views_pinned;
        ] );
      ( "timeline",
        [
          Alcotest.test_case "gc event" `Quick test_gc_event_on_timeline;
          Alcotest.test_case "bind events and high water" `Quick
            test_bind_events_and_high_water;
        ] );
      ( "profile",
        [
          Alcotest.test_case "tie-break on entry pc" `Quick
            test_profile_tie_breaks_on_entry_pc;
        ] );
      ("annotate", [ Alcotest.test_case "golden render" `Quick test_annotate_golden ]);
    ]
