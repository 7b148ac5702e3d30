(* Optimization-decision remarks: the engine (dedup, rollback scoping,
   JSONL), the per-pass instrumentation (every optimizer must explain at
   least one declined opportunity on the demo corpus), the golden
   canonical rendering for the paper's testfn, the pass-disabling
   lattice (a Passed remark must become a Missed remark at the same
   source position when its pass is switched off), run-to-run diffing,
   and the per-unit scoping of the global counter registry. *)

module Remark = S1_obs.Remark
module Diffrun = S1_obs.Diffrun
module Obs = S1_obs.Obs
module Json = S1_obs.Obs.Json
module Loc = S1_loc.Loc
module C = S1_core.Compiler
module Gen = S1_codegen.Gen

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let frotz_src = "(defun frotz (x y z) (list x y z))"

let testfn_src =
  "(defun testfn (a &optional (b 3.0) (c a))\n\
  \  (let ((d (+$f a b c)) (e (*$f a b c)))\n\
  \    (let ((q (sin$f e)))\n\
  \      (frotz d e (max$f d e))\n\
  \      q)))"

(* Compile [src] under [options]/[cse] with remarks enabled; return the
   recorded remark stream. *)
let compile_remarks ?(options = Gen.default_options) ?(cse = false) ?(file = "t.lisp") src =
  let c = C.create ~options ~cse () in
  Remark.reset ();
  Remark.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Remark.set_enabled false)
    (fun () ->
      ignore (C.eval_string c ~file src);
      Remark.remarks ())

let read_corpus name =
  (* dune runtest runs in the test directory; dune exec from the root *)
  let path =
    List.find Sys.file_exists
      [ Filename.concat "corpus" name; Filename.concat "test/corpus" name ]
  in
  let ic = open_in path in
  let n = in_channel_length ic in
  let src = really_input_string ic n in
  close_in ic;
  src

(* Engine --------------------------------------------------------------- *)

let test_engine_dedup () =
  Remark.reset ();
  Remark.set_enabled true;
  let loc = Loc.make ~file:"f.lisp" ~line:3 ~col:1 in
  Remark.missed ~pass:"cse" ~rule:"R" ~loc "declined";
  Remark.missed ~pass:"cse" ~rule:"R" ~loc "declined";
  (* same decision re-examined on a later sweep: one remark *)
  check_int "deduplicated" 1 (List.length (Remark.remarks ()));
  Remark.missed ~pass:"cse" ~rule:"R" ~loc "declined differently";
  check_int "distinct message records" 2 (List.length (Remark.remarks ()));
  Remark.set_enabled false;
  Remark.missed ~pass:"cse" ~rule:"R" ~loc "while disabled";
  check_int "disabled registry records nothing" 2 (List.length (Remark.remarks ()));
  Remark.reset ()

let test_engine_rollback_scope () =
  Remark.reset ();
  Remark.set_enabled true;
  Remark.passed ~pass:"simplify" ~rule:"A" "kept";
  let m = Remark.mark () in
  Remark.passed ~pass:"repan" ~rule:"B" "doomed";
  Remark.missed ~pass:"repan" ~rule:"C" "doomed too";
  Remark.drop_since m;
  check_int "rolled-back remarks dropped" 1 (List.length (Remark.remarks ()));
  (* the dedup table must forget dropped identities: the retried path
     may legitimately reach the identical decision *)
  Remark.passed ~pass:"repan" ~rule:"B" "doomed";
  check_int "identical decision re-records after drop" 2
    (List.length (Remark.remarks ()));
  Remark.set_enabled false;
  Remark.reset ()

let test_engine_jsonl_roundtrip () =
  Remark.reset ();
  Remark.set_enabled true;
  let loc = Loc.make ~file:"g.lisp" ~line:7 ~col:2 in
  Remark.passed ~pass:"tnbind" ~rule:"TN-PACK" ~node:12 ~loc
    ~args:[ ("tn", Remark.Str "X"); ("uses", Remark.Int 3); ("hot", Remark.Bool true) ]
    "TN X won register RT0";
  Remark.missed ~pass:"pdlnum" ~rule:"PDL-ALLOCATE" "escapes";
  let rs = Remark.remarks () in
  Remark.set_enabled false;
  Remark.reset ();
  let replayed = Remark.of_jsonl (Remark.to_jsonl rs) in
  check_int "remark count survives" (List.length rs) (List.length replayed);
  check_str "canonical text survives" (Remark.canonical_all rs)
    (Remark.canonical_all replayed);
  (match Remark.of_jsonl "{\"schema\":\"bogus/9\"}\n" with
  | _ -> Alcotest.fail "accepted a bad schema"
  | exception Remark.Journal_error _ -> ());
  match Remark.of_jsonl "not json" with
  | _ -> Alcotest.fail "accepted garbage"
  | exception Remark.Journal_error _ -> ()

(* Golden: the paper's running example ----------------------------------- *)

let testfn_expected =
  {golden|missed   tnbind/TN-PACK @testfn.lisp:1:1: TN Z packed to memory: lifetime crosses a call and registers are caller-destroyed {tn=Z, uses=1, lifetime=10}
missed   tnbind/TN-PACK @testfn.lisp:1:1: TN Y packed to memory: lifetime crosses a call and registers are caller-destroyed {tn=Y, uses=1, lifetime=10}
missed   tnbind/TN-PACK @testfn.lisp:1:1: TN X packed to memory: lifetime crosses a call and registers are caller-destroyed {tn=X, uses=1, lifetime=10}
missed   peephole/BRANCH-TENSION @testfn.lisp:1:1: function FROTZ not peephole-optimized: branch tensioning disabled {fn=FROTZ}
passed   simplify/META-SIN-TO-SINC @testfn.lisp:4:14: optimized (SIN$F E)
passed   simplify/META-EVALUATE-ASSOC-COMMUT-CALL @testfn.lisp:3:12: optimized (+$F A B C)
passed   simplify/META-EVALUATE-ASSOC-COMMUT-CALL @testfn.lisp:3:28: optimized (*$F A B C)
missed   simplify/META-SUBSTITUTE @testfn.lisp:3:3: referenced more than once and the argument is too complex to duplicate {var=D, refs=2, complexity=8}
passed   simplify/CONSIDER-REVERSING-ARGUMENTS @testfn.lisp:4:5: optimized (*$F E 0.15915494225919247)
missed   repan/REP-UNBOX @testfn.lisp:2:1: variable A stays boxed: reference contexts disagree on a representation {var=A, wanted=SWFLO,POINTER}
missed   repan/REP-UNBOX @testfn.lisp:2:1: variable B stays boxed: binding initializer not analyzable {var=B}
missed   repan/REP-UNBOX @testfn.lisp:2:1: variable C stays boxed: binding initializer not analyzable {var=C}
missed   repan/REP-UNBOX @testfn.lisp:3:3: variable D stays boxed: reference contexts disagree on a representation {var=D, wanted=SWFLO,POINTER}
missed   repan/REP-UNBOX @testfn.lisp:3:3: variable E stays boxed: reference contexts disagree on a representation {var=E, wanted=SWFLO,POINTER}
passed   repan/OPEN-CODE @testfn.lisp:5:18: MAX$F compiles inline, delivering raw SWFLO {fn=MAX$F, rep=SWFLO}
passed   repan/OPEN-CODE @testfn.lisp:6:7: SINC$F compiles inline, delivering raw SWFLO {fn=SINC$F, rep=SWFLO}
passed   repan/OPEN-CODE @testfn.lisp:4:5: *$F compiles inline, delivering raw SWFLO {fn=*$F, rep=SWFLO}
passed   repan/OPEN-CODE @testfn.lisp:3:12: +$F compiles inline, delivering raw SWFLO {fn=+$F, rep=SWFLO}
passed   repan/OPEN-CODE @testfn.lisp:3:12: +$F compiles inline, delivering raw SWFLO {fn=+$F, rep=SWFLO}
passed   repan/OPEN-CODE @testfn.lisp:3:28: *$F compiles inline, delivering raw SWFLO {fn=*$F, rep=SWFLO}
passed   repan/OPEN-CODE @testfn.lisp:3:28: *$F compiles inline, delivering raw SWFLO {fn=*$F, rep=SWFLO}
missed   pdlnum/PDL-ALLOCATE @testfn.lisp:3:3: fresh float is heap-boxed: its lifetime escapes the frame {consumer=returned from the function}
missed   pdlnum/PDL-ALLOCATE @testfn.lisp:4:5: fresh float is heap-boxed: its lifetime escapes the frame {consumer=returned from the function}
missed   pdlnum/PDL-ALLOCATE @testfn.lisp:6:7: fresh float is heap-boxed: its lifetime escapes the frame {consumer=returned from the function}
passed   pdlnum/PDL-ALLOCATE @testfn.lisp:5:18: fresh float boxed on the stack (pdl number): lifetime bounded by a safe consumer
passed   pdlnum/PDL-ALLOCATE @testfn.lisp:3:12: fresh float boxed on the stack (pdl number): lifetime bounded by a safe consumer
passed   pdlnum/PDL-ALLOCATE @testfn.lisp:3:28: fresh float boxed on the stack (pdl number): lifetime bounded by a safe consumer
missed   tnbind/TN-PACK @testfn.lisp:3:3: TN E packed to memory: lifetime crosses a call and registers are caller-destroyed {tn=E, uses=3, lifetime=61}
missed   tnbind/TN-PACK @testfn.lisp:2:1: TN A packed to memory: lifetime crosses a call and registers are caller-destroyed {tn=A, uses=3, lifetime=62}
missed   tnbind/TN-PACK @testfn.lisp:3:3: TN D packed to memory: lifetime crosses a call and registers are caller-destroyed {tn=D, uses=2, lifetime=61}
missed   tnbind/TN-PACK @testfn.lisp:2:1: TN C packed to memory: lifetime crosses a call and registers are caller-destroyed {tn=C, uses=2, lifetime=62}
missed   tnbind/TN-PACK @testfn.lisp:2:1: TN B packed to memory: lifetime crosses a call and registers are caller-destroyed {tn=B, uses=2, lifetime=62}
missed   peephole/BRANCH-TENSION @testfn.lisp:2:1: function TESTFN not peephole-optimized: branch tensioning disabled {fn=TESTFN}
|golden}

let test_testfn_golden () =
  let rs = compile_remarks ~cse:true ~file:"testfn.lisp" (frotz_src ^ "\n" ^ testfn_src) in
  check_str "canonical remark set for testfn" testfn_expected (Remark.canonical_all rs)

(* Every pass declines something on the demo corpus ---------------------- *)

let test_every_pass_misses () =
  let rs = compile_remarks ~cse:true ~file:"demo.lisp" (read_corpus "remarks-demo.lisp") in
  List.iter
    (fun pass ->
      match
        List.find_opt
          (fun r -> r.Remark.r_kind = Remark.Missed && r.Remark.r_pass = pass)
          rs
      with
      | None -> Alcotest.failf "pass %s emitted no Missed remark on the demo" pass
      | Some r ->
          check_bool (pass ^ " missed remark has a source position") true
            (r.Remark.r_loc <> None);
          check_bool (pass ^ " missed remark has reason arguments") true
            (r.Remark.r_args <> []))
    [ "simplify"; "cse"; "repan"; "pdlnum"; "tnbind"; "peephole" ]

(* The lattice: disabling a pass converts its Passed remarks into Missed
   remarks at the same source positions ---------------------------------- *)

let locs_of pass kind rs =
  List.sort_uniq compare
    (List.filter_map
       (fun r ->
         if r.Remark.r_pass = pass && r.Remark.r_kind = kind then
           Option.map Loc.to_string r.Remark.r_loc
         else None)
       rs)

let check_lattice ~pass ~src ~disabled_options =
  let on = compile_remarks ~cse:true src in
  let off = compile_remarks ~cse:true ~options:disabled_options src in
  let passed_locs = locs_of pass Remark.Passed on in
  check_bool (pass ^ ": the program exercises the pass") true (passed_locs <> []);
  let missed_locs = locs_of pass Remark.Missed off in
  List.iter
    (fun l ->
      check_bool
        (Printf.sprintf "%s: Passed at %s becomes Missed when disabled" pass l)
        true (List.mem l missed_locs))
    passed_locs

(* No calls inside: the TNs qualify for registers, so TNBIND has Passed
   remarks to lose. *)
let register_winner_src =
  "(defun lattice-fn (x y)\n\
  \  (let ((s (+ x y)) (d (- x y)))\n\
  \    (+ (* s s) (* d d))))"

let test_lattice_tnbind () =
  check_lattice ~pass:"tnbind" ~src:register_winner_src
    ~disabled_options:{ Gen.default_options with Gen.use_tnbind = false }

let test_lattice_pdlnum () =
  check_lattice ~pass:"pdlnum" ~src:(frotz_src ^ "\n" ^ testfn_src)
    ~disabled_options:{ Gen.default_options with Gen.pdl_numbers = false }

(* --diff-runs ----------------------------------------------------------- *)

let remarks_doc rs = Diffrun.Remarks rs

let test_diff_identical_runs () =
  let src = frotz_src ^ "\n" ^ testfn_src in
  let a = compile_remarks ~cse:true src and b = compile_remarks ~cse:true src in
  let report = Diffrun.diff (remarks_doc a) (remarks_doc b) in
  check_bool "identical runs diff empty" true (Diffrun.is_empty report);
  check_bool "identical runs do not regress" false report.Diffrun.r_regressed

let test_diff_vanished_passed_regresses () =
  let src = frotz_src ^ "\n" ^ testfn_src in
  let a = compile_remarks ~cse:true src in
  let b =
    compile_remarks ~cse:true
      ~options:{ Gen.default_options with Gen.pdl_numbers = false }
      src
  in
  let report = Diffrun.diff (remarks_doc a) (remarks_doc b) in
  check_bool "disabling a pass shows a diff" false (Diffrun.is_empty report);
  check_bool "vanished Passed remarks regress" true report.Diffrun.r_regressed;
  let text = Diffrun.render report in
  check_bool "report names the vanished optimization" true
    (let nh = String.length text and needle = "vanished" in
     let nn = String.length needle in
     let rec go i = i + nn <= nh && (String.sub text i nn = needle || go (i + 1)) in
     go 0)

let metrics_doc cycles counters =
  Diffrun.Metrics
    (Json.Obj
       [
         ("schema", Json.Str Obs.schema_version);
         ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) counters));
         ("cpu", Json.Obj [ ("cycles", Json.Int cycles) ]);
       ])

let test_diff_metrics_threshold () =
  let a = metrics_doc 1000 [ ("cse.eliminated", 2) ] in
  (* +1% cycle growth: within the 2% default tolerance *)
  let small = metrics_doc 1010 [ ("cse.eliminated", 2) ] in
  let r = Diffrun.diff a small in
  check_bool "within-threshold growth is not a regression" false r.Diffrun.r_regressed;
  (* +10%: over tolerance *)
  let big = metrics_doc 1100 [ ("cse.eliminated", 1) ] in
  let r = Diffrun.diff a big in
  check_bool "over-threshold growth regresses" true r.Diffrun.r_regressed;
  check_bool "counter deltas are reported" true
    (List.exists
       (fun l ->
         (not l.Diffrun.d_regression)
         && String.length l.Diffrun.d_text >= 7
         && String.sub l.Diffrun.d_text 0 7 = "counter")
       r.Diffrun.r_lines);
  (* a custom threshold admits the same growth *)
  let r = Diffrun.diff ~threshold:15.0 a big in
  check_bool "raised threshold admits the growth" false r.Diffrun.r_regressed

let test_diff_mixed_kinds_rejected () =
  match Diffrun.diff (metrics_doc 1 []) (remarks_doc []) with
  | _ -> Alcotest.fail "diffed a metrics export against a remarks export"
  | exception Diffrun.Diff_error _ -> ()

(* Golden reports, one per document kind the differ reads besides
   remarks, pinned byte for byte.  Between them they hold a regression
   line and an info line for every gate family: counters with the stack
   floor (16), the serve absolute floor (1) and the image floor (4096),
   cpu.cycles, profile lines and callgraph edges (floor 32), bench cycles
   and result mismatches, folded paths, event counts and durations. *)
let metrics_a =
  {|{"schema": "s1lisp.metrics/6",
 "counters": {"cse.eliminated": 2, "rule.META-EVALUATE": 3, "tn.total": 7,
              "machine.stack_high": 100, "machine.bind_high": 10,
              "serve.hits": 5, "serve.misses": 0, "serve.retries": 2,
              "image.bytes_written": 100000, "image.bytes_read": 10},
 "cpu": {"cycles": 1000},
 "profile": {"lines": [{"file": "t.lisp", "line": 3, "cycles": 1000},
                       {"file": "t.lisp", "line": 4, "cycles": 10},
                       {"file": "t.lisp", "line": 9, "cycles": 70}]},
 "callgraph": {"edges": [{"caller": "f", "callee": "g", "excl_cycles": 500},
                         {"caller": "g", "callee": "h", "excl_cycles": 100}]}}|}
let metrics_b =
  {|{"schema": "s1lisp.metrics/6",
 "counters": {"cse.eliminated": 1, "rule.META-EVALUATE": 5, "pdl.candidates": 4,
              "machine.stack_high": 120, "machine.bind_high": 20,
              "serve.hits": 3, "serve.misses": 1, "serve.retries": 1,
              "image.bytes_written": 110000, "image.bytes_read": 99999},
 "cpu": {"cycles": 1100},
 "profile": {"lines": [{"file": "t.lisp", "line": 3, "cycles": 1100},
                       {"file": "t.lisp", "line": 4, "cycles": 40},
                       {"file": "u.lisp", "line": 1, "cycles": 64}]},
 "callgraph": {"edges": [{"caller": "f", "callee": "g", "excl_cycles": 600},
                         {"caller": "g", "callee": "h", "excl_cycles": 90},
                         {"caller": "h", "callee": "f", "excl_cycles": 33}]}}|}
(* small growth: every gate stays quiet; b has no cpu section *)
let metrics_c =
  {|{"schema": "s1lisp.metrics/6",
 "counters": {"machine.stack_high": 100, "serve.degraded": 1, "image.bytes_written": 5000},
 "cpu": {"cycles": 1000}}|}
let metrics_d =
  {|{"schema": "s1lisp.metrics/6",
 "counters": {"machine.stack_high": 115, "serve.degraded": 0, "image.bytes_written": 8000}}|}
let metrics_e =
  {|{"schema": "s1lisp.metrics/6", "counters": {"image.bytes_written": 100000}, "cpu": {"cycles": 1000}}|}
let metrics_f =
  {|{"schema": "s1lisp.metrics/6", "counters": {"image.bytes_written": 101000}, "cpu": {"cycles": 1010}}|}
let bench_a =
  {|{"schema": "s1lisp.bench/1", "rows": [
  {"experiment": "X1", "name": "a", "cycles": 1000, "result": "1"},
  {"experiment": "X1", "name": "b", "cycles": 1000, "result": "ok"},
  {"experiment": "X1", "name": "e", "cycles": 50, "result": "(1 2)"},
  {"experiment": "X1", "name": "f", "result": "t"},
  {"experiment": "X2", "name": "c", "cycles": 7, "result": "nil"}]}|}
let bench_b =
  {|{"schema": "s1lisp.bench/1", "rows": [
  {"experiment": "X0", "name": "d", "cycles": 9, "result": "9"},
  {"experiment": "X1", "name": "a", "cycles": 1100, "result": "2"},
  {"experiment": "X1", "name": "b", "cycles": 1010, "result": "ok"},
  {"experiment": "X1", "name": "e", "cycles": 50, "result": "(2 1)"},
  {"experiment": "X1", "name": "f", "cycles": 80, "result": "t"}]}|}
let folded_a = "main;f 100\nmain;g 10\nmain;h 50\nmain;f;k 500\n"
let folded_b = "main;f 200\nmain;g 20\nmain;f;k 490\nmain;z 40\n"
let events_a =
  {|{"schema": "s1lisp.events/1", "traceEvents": [
  {"cat": "gc", "name": "collect", "ph": "X", "ts": 0, "dur": 500},
  {"cat": "gc", "name": "collect", "ph": "X", "ts": 900, "dur": 500},
  {"cat": "bind", "name": "*x*", "ph": "i", "ts": 10},
  {"cat": "phase", "name": "simplify", "ph": "X", "ts": 0, "dur": 100},
  {"cat": "trap", "name": "wrong-type", "ph": "i", "ts": 5}]}|}
let events_b =
  {|{"schema": "s1lisp.events/1", "traceEvents": [
  {"cat": "gc", "name": "collect", "ph": "X", "ts": 0, "dur": 1200},
  {"cat": "bind", "name": "*x*", "ph": "i", "ts": 10},
  {"cat": "bind", "name": "*x*", "ph": "i", "ts": 20},
  {"cat": "phase", "name": "simplify", "ph": "X", "ts": 0, "dur": 120}]}|}
let golden_reports : (string * string * string * float * string) list =
  [
    ( "metrics", metrics_a, metrics_b, 2.0,
      {|  change   counter cse.eliminated: 2 -> 1 (-1, -50.0%)
  change   counter image.bytes_read: 10 -> 99999 (+99989, +999890.0%)
  change   counter pdl.candidates: 0 -> 4 (+4, +0.0%)
  change   counter rule.META-EVALUATE: 3 -> 5 (+2, +66.7%)
  change   counter serve.hits: 5 -> 3 (-2, -40.0%)
  change   counter tn.total: 7 -> 0 (-7, -100.0%)
  change   counter machine.bind_high: 10 -> 20 (+10, +100.0%)
REGRESSION counter machine.stack_high: 100 -> 120 (+20, +20.0%)
REGRESSION counter serve.misses: 0 -> 1 (+1, +0.0%)
  change   counter serve.retries: 2 -> 1 (-1, -50.0%)
REGRESSION counter image.bytes_written: 100000 -> 110000 (+10000, +10.0%)
REGRESSION cpu.cycles: 1000 -> 1100 (+100, +10.0%)
REGRESSION line-cycles t.lisp:3: 1000 -> 1100 (+100, +10.0%)
  change   line-cycles t.lisp:4: 10 -> 40 (+30, +300.0%)
  change   line-cycles t.lisp:9: 70 -> 0 (-70, -100.0%)
  change   line-cycles u.lisp:1: 0 -> 64 (+64, +0.0%)
REGRESSION edge-excl-cycles f -> g: 500 -> 600 (+100, +20.0%)
  change   edge-excl-cycles g -> h: 100 -> 90 (-10, -10.0%)
  change   edge-excl-cycles h -> f: 0 -> 33 (+33, +0.0%)
diff-runs (metrics): 19 differences, 6 regressions
|} );
    ( "metrics-quiet", metrics_c, metrics_d, 2.0,
      {|  change   counter machine.stack_high: 100 -> 115 (+15, +15.0%)
  change   counter serve.degraded: 1 -> 0 (-1, -100.0%)
  change   counter image.bytes_written: 5000 -> 8000 (+3000, +60.0%)
diff-runs (metrics): 3 differences, 0 regressions
|} );
    ( "metrics-small", metrics_e, metrics_f, 2.0,
      {|  change   counter image.bytes_written: 100000 -> 101000 (+1000, +1.0%)
  change   cpu.cycles: 1000 -> 1010 (+10, +1.0%)
diff-runs (metrics): 2 differences, 0 regressions
|} );
    ( "bench", bench_a, bench_b, 2.0,
      {|  change   row appeared: X0 / d
REGRESSION X1 / a: cycles 1000 -> 1100 (+100, +10.0%)
REGRESSION X1 / a: result "1" -> "2"
  change   X1 / b: cycles 1000 -> 1010 (+10, +1.0%)
REGRESSION X1 / e: result "(1 2)" -> "(2 1)"
  change   row vanished: X2 / c
diff-runs (bench): 6 differences, 3 regressions
|} );
    ( "bench-exact", bench_a, bench_b, 0.0,
      {|  change   row appeared: X0 / d
REGRESSION X1 / a: cycles 1000 -> 1100 (+100, +10.0%)
REGRESSION X1 / a: result "1" -> "2"
REGRESSION X1 / b: cycles 1000 -> 1010 (+10, +1.0%)
REGRESSION X1 / e: result "(1 2)" -> "(2 1)"
  change   row vanished: X2 / c
diff-runs (bench): 6 differences, 4 regressions
|} );
    ( "folded", folded_a, folded_b, 2.0,
      {|REGRESSION path-cycles main;f: 100 -> 200 (+100, +100.0%)
  change   path-cycles main;f;k: 500 -> 490 (-10, -2.0%)
  change   path-cycles main;g: 10 -> 20 (+10, +100.0%)
  change   path-cycles main;h: 50 -> 0 (-50, -100.0%)
  change   path-cycles main;z: 0 -> 40 (+40, +0.0%)
diff-runs (folded): 5 differences, 1 regressions
|} );
    ( "events", events_a, events_b, 2.0,
      {|  change   events bind/*x*: 1 -> 2 (+1, +100.0%)
  change   events gc/collect: 2 -> 1 (-1, -50.0%)
  change   events trap/wrong-type: 1 -> 0 (-1, -100.0%)
REGRESSION event-cycles gc/collect: 1000 -> 1200 (+200, +20.0%)
  change   event-cycles phase/simplify: 100 -> 120 (+20, +20.0%)
diff-runs (events): 5 differences, 1 regressions
|} );
    ( "events-loose", events_a, events_b, 50.0,
      {|  change   events bind/*x*: 1 -> 2 (+1, +100.0%)
  change   events gc/collect: 2 -> 1 (-1, -50.0%)
  change   events trap/wrong-type: 1 -> 0 (-1, -100.0%)
  change   event-cycles gc/collect: 1000 -> 1200 (+200, +20.0%)
  change   event-cycles phase/simplify: 100 -> 120 (+20, +20.0%)
diff-runs (events): 5 differences, 0 regressions
|} );
  ]

let test_diff_golden_reports () =
  List.iter
    (fun (name, a, b, threshold, expected) ->
      let report =
        Diffrun.diff ~threshold (Diffrun.classify ~path:"a" a) (Diffrun.classify ~path:"b" b)
      in
      check_str (name ^ " report") expected (Diffrun.render report))
    golden_reports

(* Per-unit scoping of the global registry ------------------------------- *)

let test_counter_scoping () =
  Obs.reset ();
  Obs.incr ~n:5 "scoped.a";
  let before = Obs.snapshot () in
  Obs.incr ~n:2 "scoped.a";
  Obs.incr "scoped.b";
  Alcotest.(check (list (pair string int)))
    "diff reports only this unit's activity"
    [ ("scoped.a", 2); ("scoped.b", 1) ]
    (Obs.diff ~before ());
  Obs.reset ()

let test_batch_units_do_not_bleed () =
  (* two units through one compiler, as batch-mode s1lc runs them: the
     second unit's delta must not include the first's counts *)
  Obs.reset ();
  let c = C.create ~cse:true () in
  ignore (C.eval_string c ~file:"one.lisp" (frotz_src ^ "\n" ^ testfn_src));
  let before = Obs.snapshot () in
  ignore (C.eval_string c ~file:"two.lisp" "(defun tiny (x) x)");
  let delta = Obs.diff ~before () in
  let count name = Option.value ~default:0 (List.assoc_opt name delta) in
  check_int "second unit fired no float-rule rewrites" 0
    (count "rule.META-SIN-TO-SINC");
  check_bool "second unit still observed its own compilation" true
    (List.exists (fun (k, v) -> String.length k >= 5 && String.sub k 0 5 = "rule." && v > 0)
       delta
    || count "tn.total" > 0);
  Obs.reset ()

let () =
  Alcotest.run "remarks"
    [
      ( "engine",
        [
          Alcotest.test_case "dedup" `Quick test_engine_dedup;
          Alcotest.test_case "rollback scope" `Quick test_engine_rollback_scope;
          Alcotest.test_case "jsonl roundtrip" `Quick test_engine_jsonl_roundtrip;
        ] );
      ( "passes",
        [
          Alcotest.test_case "testfn golden" `Quick test_testfn_golden;
          Alcotest.test_case "every pass misses" `Quick test_every_pass_misses;
          Alcotest.test_case "lattice tnbind" `Quick test_lattice_tnbind;
          Alcotest.test_case "lattice pdlnum" `Quick test_lattice_pdlnum;
        ] );
      ( "diff-runs",
        [
          Alcotest.test_case "identical runs" `Quick test_diff_identical_runs;
          Alcotest.test_case "vanished passed" `Quick test_diff_vanished_passed_regresses;
          Alcotest.test_case "metrics threshold" `Quick test_diff_metrics_threshold;
          Alcotest.test_case "mixed kinds" `Quick test_diff_mixed_kinds_rejected;
          Alcotest.test_case "golden reports" `Quick test_diff_golden_reports;
        ] );
      ( "scoping",
        [
          Alcotest.test_case "snapshot diff" `Quick test_counter_scoping;
          Alcotest.test_case "batch units" `Quick test_batch_units_do_not_bleed;
        ] );
    ]
