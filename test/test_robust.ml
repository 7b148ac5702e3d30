(* Tests for the crash-proofing layer: structured machine traps under
   resource exhaustion (and the world staying usable afterwards), the IR
   verifier's rejection of corrupted trees, pass rollback producing the
   same results as the corresponding lattice point, bind-stack unwinding
   on overflow, strict-mode escalation, and the node construction
   budget. *)

module Reader = S1_sexp.Reader
module Mem = S1_machine.Mem
module Cpu = S1_machine.Cpu
module Rt = S1_runtime.Rt
module Node = S1_ir.Node
module Verify = S1_ir.Verify
module Rules = S1_transform.Rules
module C = S1_core.Compiler
module Obs = S1_obs.Obs

let eval (c : C.t) (src : string) : string =
  C.eval_print c (Reader.parse_string src)

(* The hook is instance-scoped (a [C.t] field): arm it on the one
   compiler under test and disarm on the way out. *)
let with_pass_hook (c : C.t) hook f =
  let saved = c.C.pass_hook in
  c.C.pass_hook <- hook;
  Fun.protect ~finally:(fun () -> c.C.pass_hook <- saved) f

(* Traps ---------------------------------------------------------------------- *)

let test_heap_exhaustion () =
  (* a one-page-ish heap: allocation must end in a Heap_exhaustion trap,
     not an OCaml exception, and the world must keep working once the
     garbage becomes unreachable *)
  let c = C.create ~config:{ Mem.default_config with Mem.heap_words = 4096 } () in
  ignore
    (eval c "(DEFUN BUILD (N A) (IF (ZEROP N) A (BUILD (- N 1) (CONS N A))))");
  (match eval c "(BUILD 100000 (QUOTE ()))" with
  | v -> Alcotest.failf "expected a heap trap, got value %s" v
  | exception Cpu.Trap { kind; _ } ->
      Alcotest.(check string)
        "trap kind" "heap-exhausted" (Cpu.trap_kind_name kind));
  Alcotest.(check string) "world usable after trap" "(1 . 2)" (eval c "(CONS 1 2)")

let test_fuel_exhaustion_mid_catch () =
  (* run out of fuel inside a CATCH: the trap must surface structurally
     and the abandoned catch frame must not poison later CATCH/THROW *)
  let c = C.create () in
  ignore (eval c "(DEFUN SPIN () (SPIN))");
  c.C.rt.Rt.fuel <- Some 5_000;
  (match eval c "(CATCH (QUOTE K) (SPIN))" with
  | v -> Alcotest.failf "expected a fuel trap, got value %s" v
  | exception Cpu.Trap { kind; _ } ->
      Alcotest.(check string)
        "trap kind" "fuel-exhausted" (Cpu.trap_kind_name kind));
  c.C.rt.Rt.fuel <- None;
  Alcotest.(check string)
    "catch still works" "7"
    (eval c "(CATCH (QUOTE K) (THROW (QUOTE K) 7))")

let test_bind_stack_overflow_unwinds () =
  (* unbounded special rebinding overflows the bind stack; the trap must
     first unwind every rebinding so the global values are visible again *)
  let c = C.create ~config:{ Mem.default_config with Mem.bind_words = 64 } () in
  ignore (eval c "(DEFVAR *D* 0)");
  ignore (eval c "(DEFUN R (N) (LET ((*D* N)) (+ 1 (R (+ N 1)))))");
  (match eval c "(R 1)" with
  | v -> Alcotest.failf "expected a bind-stack trap, got value %s" v
  | exception Cpu.Trap { kind; _ } ->
      Alcotest.(check string)
        "trap kind" "bind-stack-overflow" (Cpu.trap_kind_name kind));
  Alcotest.(check string) "specials unwound to globals" "0" (eval c "*D*")

(* Verifier ------------------------------------------------------------------- *)

(* capture the IR of one compiled unit via the pass hook *)
let capture_tree src : Node.node =
  let captured = ref None in
  let c = C.create () in
  with_pass_hook c
    (fun pass root -> if pass = "simplify" && !captured = None then captured := Some root)
    (fun () -> ignore (eval c src));
  match !captured with
  | Some n -> n
  | None -> Alcotest.fail "pass hook never fired"

let test_verifier_accepts_clean_tree () =
  let root = capture_tree "(DEFUN F (X) (+ X 1))" in
  Alcotest.(check (list string))
    "no diagnostics" []
    (List.map Verify.diag_to_string (Verify.run ~stage:Verify.After_simplify root))

let test_verifier_rejects_corrupted_tree () =
  let root = capture_tree "(DEFUN F (X) (+ X 1))" in
  (match root.Node.kind with
  | Node.Lambda l ->
      let b = l.Node.l_body in
      l.Node.l_body <- Node.mk (Node.Progn [ b; b ])
  | _ -> Alcotest.fail "captured tree is not a lambda");
  let diags = Verify.run ~stage:Verify.After_simplify root in
  Alcotest.(check bool) "diagnostics produced" true (diags <> []);
  Alcotest.(check bool)
    "unique-id rule fires" true
    (List.exists (fun d -> d.Verify.d_rule = "unique-id") diags)

let test_verifier_rejects_bad_rep () =
  let root = capture_tree "(DEFUN F (X) (+ X 1))" in
  (match root.Node.kind with
  | Node.Lambda l ->
      l.Node.l_body.Node.n_isrep <- Node.JUMP;
      l.Node.l_body.Node.n_wantrep <- Node.POINTER
  | _ -> Alcotest.fail "captured tree is not a lambda");
  let diags = Verify.run ~stage:Verify.After_repan root in
  Alcotest.(check bool)
    "rep-convertible rule fires" true
    (List.exists (fun d -> d.Verify.d_rule = "rep-convertible") diags)

(* Rollback ------------------------------------------------------------------- *)

let rollback_src =
  "(DEFUN G (X) (+ (* X 1) (IF (< 0 1) 2 3)))\n(G 4)"

let test_rollback_matches_disabled_pass () =
  (* a fault in Simplify rolls the unit back and compiles unoptimized;
     the printed result must equal the --no-opt lattice point's *)
  Obs.reset ();
  let before = Obs.count "robust.pass_rollback" in
  let faulted =
    let c = C.create () in
    with_pass_hook c
      (fun pass _ -> if pass = "simplify" then failwith "injected")
      (fun () -> eval c rollback_src)
  in
  let plain =
    let c = C.create ~rules:Rules.nothing () in
    eval c rollback_src
  in
  Alcotest.(check string) "same result as pass-disabled compile" plain faulted;
  (* two units compile (DEFUN G, then the call): the injection fires on
     the first, the disabled-pass list resets per unit, so both roll back *)
  Alcotest.(check int)
    "rollback incidents recorded" 2
    (Obs.count "robust.pass_rollback" - before)

let test_rollback_records_incident () =
  let c = C.create () in
  let out =
    with_pass_hook c
      (fun pass _ -> if pass = "repan" then failwith "injected repan fault")
      (fun () -> eval c rollback_src)
  in
  Alcotest.(check string) "still computes" "6" out;
  Alcotest.(check bool) "incident logged" true (c.C.incidents <> []);
  let i = List.hd (List.rev c.C.incidents) in
  Alcotest.(check string) "incident pass" "repan" i.C.i_pass

let test_strict_mode_escalates () =
  let c = C.create ~strict:true () in
  match
    with_pass_hook c
      (fun pass _ -> if pass = "simplify" then failwith "injected")
      (fun () -> eval c rollback_src)
  with
  | v -> Alcotest.failf "expected Strict_failure, got value %s" v
  | exception C.Strict_failure i ->
      Alcotest.(check string) "failing pass" "simplify" i.C.i_pass

(* Budget --------------------------------------------------------------------- *)

let test_node_budget () =
  (match
     Node.with_budget ~pass:"test" 10 (fun () ->
         for _ = 1 to 100 do
           ignore (Node.mk (Node.Progn []))
         done)
   with
  | () -> Alcotest.fail "expected Budget_exhausted"
  | exception Node.Budget_exhausted { pass; budget } ->
      Alcotest.(check string) "pass" "test" pass;
      Alcotest.(check int) "budget" 10 budget);
  (* the budget does not outlive its scope *)
  for _ = 1 to 100 do
    ignore (Node.mk (Node.Progn []))
  done

(* The guard sizes its budget from the node count of its snapshot
   instead of walking the tree again: the count must be [Node.size] of
   every tree a guarded pass sees, over the whole corpus. *)
let test_snapshot_counts_nodes () =
  let dir = if Sys.file_exists "corpus" then "corpus" else "test/corpus" in
  let trees = ref 0 in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".lisp")
  |> List.sort compare
  |> List.iter (fun f ->
         let src = In_channel.with_open_text (Filename.concat dir f) In_channel.input_all in
         let c = C.create () in
         with_pass_hook c
           (fun pass root ->
             let snap, count = S1_ir.Freshen.snapshot root in
             incr trees;
             Alcotest.(check int) (f ^ " " ^ pass ^ ": count = size") (Node.size root) count;
             Alcotest.(check int) (f ^ " " ^ pass ^ ": snapshot size") count (Node.size snap))
           (fun () -> ignore (C.eval_string ~file:f c src)));
  Alcotest.(check bool) "saw corpus trees" true (!trees > 100)

let () =
  Alcotest.run "robust"
    [
      ( "traps",
        [
          Alcotest.test_case "heap exhaustion" `Quick test_heap_exhaustion;
          Alcotest.test_case "fuel mid-catch" `Quick test_fuel_exhaustion_mid_catch;
          Alcotest.test_case "bind-stack unwind" `Quick test_bind_stack_overflow_unwinds;
        ] );
      ( "verifier",
        [
          Alcotest.test_case "accepts clean tree" `Quick test_verifier_accepts_clean_tree;
          Alcotest.test_case "rejects duplicate node" `Quick
            test_verifier_rejects_corrupted_tree;
          Alcotest.test_case "rejects bad rep" `Quick test_verifier_rejects_bad_rep;
        ] );
      ( "rollback",
        [
          Alcotest.test_case "matches disabled pass" `Quick
            test_rollback_matches_disabled_pass;
          Alcotest.test_case "records incident" `Quick test_rollback_records_incident;
          Alcotest.test_case "strict escalates" `Quick test_strict_mode_escalates;
        ] );
      ( "budget",
        [
          Alcotest.test_case "node budget" `Quick test_node_budget;
          Alcotest.test_case "snapshot counts nodes" `Quick test_snapshot_counts_nodes;
        ] );
    ]
