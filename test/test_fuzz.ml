(* Tests for the differential fuzzing subsystem: generator determinism
   and well-formedness, oracle agreement on a fixed-seed batch, proof
   that the oracle detects (and the shrinker reduces) a deliberate
   miscompilation, corpus replay across the optimization lattice, and
   certification of the peephole extension on canonical programs. *)

module Sexp = S1_sexp.Sexp
module Reader = S1_sexp.Reader
module C = S1_core.Compiler
module Obs = S1_obs.Obs
module Genprog = S1_fuzz.Genprog
module Oracle = S1_fuzz.Oracle
module Shrink = S1_fuzz.Shrink
module Fuzz = S1_fuzz.Fuzz

(* Bounded memory ---------------------------------------------------------------- *)

(* A world's lifetime ends with its last reference: compiling and running
   4N programs across the lattice must not need a bigger OCaml heap than
   N did, as it would if worlds stayed reachable.  The 4N are the same N
   programs four times over, so the heap's high-water mark is not raised
   by a costlier program met later.  It runs first in this executable so
   that the mark is this test's own. *)
let test_bounded_memory () =
  let n = 16 in
  let programs = List.init n (fun seed -> (Genprog.generate ~seed).Genprog.pr_forms) in
  let run_programs () =
    List.iter
      (fun forms -> List.iter (fun cfg -> ignore (Oracle.run_compiled cfg forms)) Oracle.lattice)
      programs
  in
  run_programs ();
  let top_n = (Gc.quick_stat ()).Gc.top_heap_words in
  for _ = 1 to 3 do
    run_programs ()
  done;
  let top_4n = (Gc.quick_stat ()).Gc.top_heap_words in
  if float_of_int top_4n > 1.25 *. float_of_int top_n then
    Alcotest.failf "top heap grew from %d words after %d programs to %d after %d" top_n n top_4n
      (4 * n)

(* Generator ------------------------------------------------------------------ *)

let test_generator_determinism () =
  List.iter
    (fun seed ->
      let a = Genprog.generate ~seed and b = Genprog.generate ~seed in
      Alcotest.(check string)
        (Printf.sprintf "seed %d byte-identical" seed)
        (Genprog.render a) (Genprog.render b))
    [ 0; 1; 42; 1234567 ];
  let a = Genprog.generate ~seed:1 and b = Genprog.generate ~seed:2 in
  Alcotest.(check bool) "different seeds differ" false (Genprog.render a = Genprog.render b)

let test_generator_wellformed () =
  (* every generated program re-reads to the same forms: the printer and
     reader agree, and generation emits no unprintable structure *)
  for seed = 0 to 19 do
    let p = Genprog.generate ~seed in
    let reread = Reader.parse_string (Genprog.render p) in
    Alcotest.(check int)
      (Printf.sprintf "seed %d form count" seed)
      (List.length p.Genprog.pr_forms) (List.length reread);
    Alcotest.(check string)
      (Printf.sprintf "seed %d round trip" seed)
      (Genprog.render p)
      (String.concat "\n" (List.map Sexp.to_string reread))
  done

(* Oracle --------------------------------------------------------------------- *)

let test_fixed_seed_batch () =
  (* the acceptance batch in miniature; CI's smoke step runs 200 via the
     CLI.  Any divergence here is a real compiler bug: fix it and check
     the shrunk reproducer into test/corpus/. *)
  let r = Fuzz.run ~seed:42 ~count:10 () in
  (match r.Fuzz.r_findings with
  | [] -> ()
  | f :: _ ->
      Alcotest.failf "divergence at seed %d config %s:\n%s" f.Fuzz.f_seed f.Fuzz.f_config
        f.Fuzz.f_shrunk);
  Alcotest.(check int) "programs" 10 r.Fuzz.r_count

let test_report_determinism () =
  let render r = Obs.Json.to_string (Fuzz.json r) in
  let a = Fuzz.run ~seed:7 ~count:3 () in
  let b = Fuzz.run ~seed:7 ~count:3 () in
  Alcotest.(check string) "same seed, byte-identical report" (render a) (render b)

let test_counters () =
  Obs.reset ();
  let _ = Fuzz.run ~seed:11 ~count:2 () in
  Alcotest.(check int) "fuzz.programs" 2 (Obs.count "fuzz.programs");
  Alcotest.(check bool) "fuzz.divergences present" true (Obs.count "fuzz.divergences" = 0)

(* Detectability: a deliberate miscompilation must surface and shrink ---------- *)

(* The sabotage: hand the compiled side (+ 1 <form>) for the final
   top-level form.  On any program whose reference outcome is a value,
   the compiled result differs (or errors on non-numbers), so the
   oracle must report a divergence. *)
let sabotage forms =
  match List.rev forms with
  | last :: rev_rest ->
      List.rev (Sexp.list [ Sexp.sym "+"; Sexp.Int 1; last ] :: rev_rest)
  | [] -> []

let test_oracle_detects_miscompilation () =
  let forms = Reader.parse_string "(DEFUN SQ (X) (* X X)) (+ (SQ 6) 1)" in
  let ds = Oracle.check ~compile_prep:sabotage forms in
  Alcotest.(check int) "every lattice point diverges" (List.length Oracle.lattice)
    (List.length ds);
  List.iter
    (fun d ->
      Alcotest.(check string) ("kind at " ^ d.Oracle.d_config) "mismatch" (Oracle.kind_of d))
    ds;
  (* and an unsabotaged check is clean *)
  Alcotest.(check int) "honest compile agrees" 0 (List.length (Oracle.check forms))

let test_shrinker_reduces () =
  (* run the real pipeline with the sabotage injected; the finding's
     shrunk program must still fail and be no larger than the source *)
  let r = Fuzz.run ~configs:[ List.hd Oracle.lattice ] ~compile_prep:sabotage ~seed:42 ~count:1 () in
  match r.Fuzz.r_findings with
  | [] -> Alcotest.fail "sabotaged run produced no finding"
  | f :: _ ->
      Alcotest.(check bool)
        "shrunk no larger" true
        (String.length f.Fuzz.f_shrunk <= String.length f.Fuzz.f_program);
      let shrunk_forms = Reader.parse_string f.Fuzz.f_shrunk in
      Alcotest.(check bool)
        "shrunk still diverges" true
        (Oracle.check ~configs:[ List.hd Oracle.lattice ] ~compile_prep:sabotage shrunk_forms
        <> [])

let test_shrinker_minimizes_known_bug () =
  (* the catch-coercion bug from seed 8, re-injected via compile_prep as
     a source-level stand-in: shrinking a large failing program around a
     small failing core must find (approximately) the core *)
  let still_fails forms =
    Oracle.check ~compile_prep:sabotage ~configs:[ List.hd Oracle.lattice ] forms <> []
  in
  let forms =
    Reader.parse_string
      "(DEFVAR *S0* 3) (DEFUN F (A B) (+ A B)) (DEFUN G (N) (* N 2)) (+ (F 1 2) (G 4))"
  in
  let shrunk, steps = Shrink.shrink ~still_fails forms in
  Alcotest.(check bool) "made progress" true (steps > 0);
  Alcotest.(check bool) "result still fails" true (still_fails shrunk);
  Alcotest.(check bool) "dropped the irrelevant forms" true (List.length shrunk <= 2)

(* Corpus replay --------------------------------------------------------------- *)

(* under `dune runtest` the cwd is the test sandbox (corpus/ is a dep);
   fall back for a direct run from the repo root *)
let corpus_dir = if Sys.file_exists "corpus" then "corpus" else "test/corpus"

let corpus_files () =
  Sys.readdir corpus_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".lisp")
  |> List.sort compare

let test_corpus_replay () =
  let files = corpus_files () in
  Alcotest.(check bool) "corpus present" true (List.length files >= 8);
  List.iter
    (fun file ->
      let src = In_channel.with_open_text (Filename.concat corpus_dir file) In_channel.input_all in
      let forms = Reader.parse_string src in
      match Oracle.check forms with
      | [] -> ()
      | d :: _ ->
          Alcotest.failf "%s diverges at %s: interp %s, compiled %s" file d.Oracle.d_config
            (Oracle.outcome_string d.Oracle.d_interp)
            (Oracle.outcome_string d.Oracle.d_compiled))
    files

(* Peephole certification (section 4.5) ----------------------------------------- *)

let peephole_options =
  { S1_codegen.Gen.default_options with S1_codegen.Gen.peephole = true }

let check_peephole msg expected src =
  let c = C.create ~options:peephole_options () in
  let w = C.eval_string c src in
  Alcotest.(check string) msg expected (C.print_value c w)

let test_peephole_canonical () =
  check_peephole "arith" "3" "(+ 1 2)";
  check_peephole "if chain" "YES" "(if (< 1 2) 'yes 'no)";
  check_peephole "nested if" "B"
    "(let ((x 5)) (if (< x 3) 'a (if (< x 10) 'b 'c)))";
  check_peephole "recursion" "3628800"
    "(defun fact (n) (if (zerop n) 1 (* n (fact (1- n))))) (fact 10)";
  check_peephole "tail loop" "5050"
    "(defun s (n acc) (declare (fixnum n acc)) (if (<= n 0) acc (s (- n 1) (+ acc n)))) (s 100 0)";
  check_peephole "catch normal" "67" "(catch 'k (if () -50 67))";
  check_peephole "catch throw" "7" "(catch 'k (throw 'k 7))";
  check_peephole "catch typed" "-49"
    "(+ (let ((x (catch 0 -50))) (declare (fixnum x)) x) 0 1)";
  check_peephole "dotimes" "6"
    "(let ((a 0)) (dotimes (i 4) (setq a (+ a i))) a)";
  check_peephole "and/or" "T"
    "(let ((x 3)) (if (and (> x 2) (or (zerop x) (oddp x))) t ()))";
  check_peephole "closure" "53"
    "(let ((x 5)) (let ((f (lambda (d) (+ x d)))) (setq x 50) (funcall f 3)))";
  check_peephole "flonum" "3.5" "(+ 1.25 2.25)"

(* ------------------------------------------------------------------------------ *)

let () =
  Alcotest.run "fuzz"
    [
      ("memory", [ Alcotest.test_case "bounded over 4N programs" `Quick test_bounded_memory ]);
      ( "generator",
        [
          Alcotest.test_case "determinism" `Quick test_generator_determinism;
          Alcotest.test_case "well-formed" `Quick test_generator_wellformed;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "fixed-seed batch" `Slow test_fixed_seed_batch;
          Alcotest.test_case "report determinism" `Slow test_report_determinism;
          Alcotest.test_case "counters" `Quick test_counters;
          Alcotest.test_case "detects miscompilation" `Quick test_oracle_detects_miscompilation;
        ] );
      ( "shrinker",
        [
          Alcotest.test_case "reduces finding" `Slow test_shrinker_reduces;
          Alcotest.test_case "minimizes known bug" `Quick test_shrinker_minimizes_known_bug;
        ] );
      ("corpus", [ Alcotest.test_case "replay across lattice" `Slow test_corpus_replay ]);
      ("peephole", [ Alcotest.test_case "canonical programs" `Quick test_peephole_canonical ]);
    ]
