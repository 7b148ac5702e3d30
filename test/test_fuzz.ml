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
  let r = Fuzz.lattice ~seed:42 ~count:10 () in
  (match r.Fuzz.r_findings with
  | [] -> ()
  | f :: _ ->
      Alcotest.failf "divergence at seed %d, %s:\n%s" f.Fuzz.f_seed f.Fuzz.f_kind
        f.Fuzz.f_shrunk);
  Alcotest.(check int) "programs" 10 r.Fuzz.r_count

let test_report_determinism () =
  let render r = Obs.Json.to_string (Fuzz.json r) in
  let a = Fuzz.lattice ~seed:7 ~count:3 () in
  let b = Fuzz.lattice ~seed:7 ~count:3 () in
  Alcotest.(check string) "same seed, byte-identical report" (render a) (render b)

let test_counters () =
  Obs.reset ();
  let _ = Fuzz.lattice ~seed:11 ~count:2 () in
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

(* Heap exhaustion reaches the interpreter as a machine trap (the
   runtime's allocator turns it into one); the oracle and the service's
   interpreter floor must both report it as a crash in the compiled
   side's words, not let the trap escape. *)
let test_interp_heap_exhaustion () =
  let src = "(MAKE-VECTOR 100000000)" in
  let forms = Reader.parse_string src in
  let reference = Oracle.run_interp forms in
  (match reference with
  | Oracle.Crash m ->
      Alcotest.(check bool) ("trap text: " ^ m) true
        (String.starts_with ~prefix:"heap-exhausted trap at pc " m)
  | o -> Alcotest.failf "expected a crash, got %s" (Oracle.outcome_string o));
  Alcotest.(check int) "no divergence on an interpreter crash" 0
    (List.length (Oracle.check ~configs:[ List.hd Oracle.lattice ] forms));
  let stub = S1_serve.Supervise.interp_stub ~key:"" ~file:"<heap>" src in
  Alcotest.(check string) "interpreter floor: same outcome"
    (Oracle.outcome_string reference)
    (Oracle.outcome_string stub.S1_serve.Serve.r_outcome)

(* The if-of-if rule wraps arms in F-/G-THUNK lambdas that binding
   annotation makes Jump locals; once a frame holding pdl-number slots
   lost its tail calls, the thunk call had no legal encoding and code
   generation failed at the 5 lattice points with pdl numbers and
   inline primitives on (fuzz seeds 1076, 1461 and 2562). *)
let test_pdl_frame_jump_local () =
  let forms =
    Reader.parse_string
      "(DEFUN F0 (P0 P2) (DECLARE (FLONUM P0) (FIXNUM P2))\n\
      \  (IF (AND (OR () ()) (IF T T ())) 1.0 (- (- P0 P0) (* P0 P2) (FLOAT -64))))\n\
       (F0 2.5 3)"
  in
  List.iter
    (fun cfg ->
      match Oracle.run_compiled cfg forms with
      | Oracle.Value v -> Alcotest.(check string) ("value at " ^ cfg.Oracle.cfg_name) "56.5" v
      | _ -> Alcotest.failf "no value at %s" cfg.Oracle.cfg_name)
    Oracle.lattice;
  Alcotest.(check int) "agrees with the interpreter everywhere" 0
    (List.length (Oracle.check forms))

let test_shrinker_reduces () =
  (* run the real pipeline with the sabotage injected; the finding's
     shrunk program must still fail and be no larger than the source *)
  let r =
    Fuzz.lattice ~configs:[ List.hd Oracle.lattice ] ~compile_prep:sabotage ~seed:42 ~count:1 ()
  in
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

(* The campaign driver itself, under a synthetic check that flags any
   program mentioning IF: every flagged program is a finding with its
   own index and derived seed, shrunk to forms that still mention IF and
   are no larger than the program. *)
let rec mentions sym = function
  | Sexp.Sym s -> s = sym
  | Sexp.List xs -> List.exists (mentions sym) xs
  | _ -> false

let test_driver_shrinks () =
  let flagged forms = if List.exists (mentions "IF") forms then Some "mentions IF" else None in
  let check ~seed:_ forms =
    match flagged forms with
    | None -> []
    | Some detail -> [ { Fuzz.kind = "if"; detail; recheck = flagged } ]
  in
  let mode =
    { Fuzz.name = "synthetic"; units = "programs"; finding = "finding"; batch = false }
  in
  Obs.reset ();
  let r = Fuzz.run ~mode ~seed:100 ~count:6 ~check ~tally:(fun () -> "no tally") in
  Alcotest.(check int) "every accepted step is counted in its finding"
    (Obs.count "fuzz.shrink_steps")
    (List.fold_left (fun n f -> n + f.Fuzz.f_shrink_steps) 0 r.Fuzz.r_findings);
  let expected =
    List.filter (fun i -> flagged (Genprog.generate ~seed:(100 + i)).Genprog.pr_forms <> None)
      (List.init 6 Fun.id)
  in
  Alcotest.(check bool) "some program is flagged" true (expected <> []);
  Alcotest.(check (list int)) "one finding per flagged program" expected
    (List.map (fun f -> f.Fuzz.f_index) r.Fuzz.r_findings);
  List.iter
    (fun f ->
      let program = Reader.parse_string f.Fuzz.f_program
      and shrunk = Reader.parse_string f.Fuzz.f_shrunk in
      Alcotest.(check int) "derived seed" (100 + f.Fuzz.f_index) f.Fuzz.f_seed;
      Alcotest.(check bool) "shrink steps taken" true (f.Fuzz.f_shrink_steps > 0);
      Alcotest.(check (option string)) "shrunk still fails" (Some "mentions IF") (flagged shrunk);
      Alcotest.(check bool) "shrunk no larger" true (Shrink.size shrunk <= Shrink.size program))
    r.Fuzz.r_findings

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

(* One-operand MAX$F, MIN$F, +$F and *$F have no inline template: the
   generator calls their natives, which return a tagged pointer.  When
   representation analysis took them for open-coded it claimed a raw
   SWFLO result, and the outer +$F read the pointer as float bits. *)
let test_unary_float_prims () =
  List.iter
    (fun op ->
      let src = Printf.sprintf "(defun h (x) (+$F (%s x) 1.0)) (h 1.5)" op in
      let forms = Reader.parse_string src in
      Alcotest.(check string) (op ^ " interpreted") "2.5"
        (Oracle.outcome_string (Oracle.run_interp forms));
      match Oracle.check forms with
      | [] -> ()
      | d :: _ ->
          Alcotest.failf "%s diverges at %s: interp %s, compiled %s" src d.Oracle.d_config
            (Oracle.outcome_string d.Oracle.d_interp)
            (Oracle.outcome_string d.Oracle.d_compiled))
    [ "MAX$F"; "MIN$F"; "+$F"; "*$F" ]

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
          Alcotest.test_case "interpreter heap exhaustion" `Quick test_interp_heap_exhaustion;
          Alcotest.test_case "pdl frame with a jump local" `Quick test_pdl_frame_jump_local;
          Alcotest.test_case "unary float prims across the lattice" `Quick
            test_unary_float_prims;
        ] );
      ( "shrinker",
        [
          Alcotest.test_case "reduces finding" `Slow test_shrinker_reduces;
          Alcotest.test_case "minimizes known bug" `Quick test_shrinker_minimizes_known_bug;
          Alcotest.test_case "campaign driver shrinks every finding" `Quick test_driver_shrinks;
        ] );
      ("corpus", [ Alcotest.test_case "replay across lattice" `Slow test_corpus_replay ]);
      ("peephole", [ Alcotest.test_case "canonical programs" `Quick test_peephole_canonical ]);
    ]
