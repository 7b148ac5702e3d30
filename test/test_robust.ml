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
module Transcript = S1_transform.Transcript
module C = S1_core.Compiler
module Obs = S1_obs.Obs
module Remark = S1_obs.Remark
module Asm = S1_machine.Asm
module Gen = S1_codegen.Gen

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
      Node.set_body l (Node.mk (Node.Progn [ b; b ]))
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

(* A rolled-back pass's rewrites go with the tree they rewrote: after
   simplify rolls back, the unit's transcript keeps none of its events
   (without the fault it has two: META-SUBSTITUTE and
   CONSIDER-REVERSING-ARGUMENTS). *)
let test_rollback_drops_transcript () =
  let form = List.hd (Reader.parse_string "(defun f (x) (let ((y 1)) (+ x y)))") in
  let rules c =
    List.map (fun e -> e.Transcript.ev_rule) (Transcript.events (snd (C.listing_of c form)))
  in
  Alcotest.(check (list string)) "rewrites without the fault"
    [ "META-SUBSTITUTE"; "CONSIDER-REVERSING-ARGUMENTS" ] (rules (C.create ()));
  let c = C.create () in
  let faulted =
    with_pass_hook c
      (fun pass _ -> if pass = "simplify" then failwith "injected simplify fault")
      (fun () -> rules c)
  in
  Alcotest.(check int) "one incident" 1 (List.length c.C.incidents);
  Alcotest.(check (list string)) "rewrites after the rollback" [] faulted

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

(* The generator's two guarded passes fail through the same hook and the
   same guard as the tree passes.  MK compiles a closure body after its
   main body, and a failed pass stays disabled for the rest of its unit:
   one rollback per unit, not one per body. *)
let closure_src = "(DEFUN MK (N) (LAMBDA (X) (+ X N)))\n(FUNCALL (MK 3) 4)"

let test_generator_pass_faults () =
  List.iter
    (fun (pass, point) ->
      let cfg = Option.get (S1_fuzz.Oracle.find_config point) in
      let create ?strict () =
        C.create ?strict ~options:cfg.S1_fuzz.Oracle.cfg_options
          ~rules:cfg.S1_fuzz.Oracle.cfg_rules ~cse:cfg.S1_fuzz.Oracle.cfg_cse ()
      in
      let fault p _ = if p = pass then failwith ("injected " ^ p) in
      let plain = eval (create ()) closure_src in
      let c = create () in
      let before = Obs.count "robust.pass_rollback" in
      let faulted = with_pass_hook c fault (fun () -> eval c closure_src) in
      Alcotest.(check int)
        (pass ^ ": one rollback per compiled unit") 2
        (Obs.count "robust.pass_rollback" - before);
      Alcotest.(check (list string))
        (pass ^ ": incidents") [ pass; pass ]
        (List.map (fun i -> i.C.i_pass) c.C.incidents);
      Alcotest.(check string) (pass ^ ": same value as the fault-free compile") plain faulted;
      let strict = create ~strict:true () in
      match with_pass_hook strict fault (fun () -> eval strict closure_src) with
      | v -> Alcotest.failf "%s: expected Strict_failure, got value %s" pass v
      | exception C.Strict_failure i -> Alcotest.(check string) "failing pass" pass i.C.i_pass)
    [ ("tnbind", "default"); ("peephole", "peephole") ]

(* Budget --------------------------------------------------------------------- *)

let test_node_budget () =
  (match
     Node.with_budget ~trail:(Node.open_trail ()) ~pass:"test" 10 (fun () ->
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

let corpus_dir = if Sys.file_exists "corpus" then "corpus" else "test/corpus"

let corpus_files () =
  Sys.readdir corpus_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".lisp")
  |> List.sort compare
  |> List.map (fun f ->
         (f, In_channel.with_open_text (Filename.concat corpus_dir f) In_channel.input_all))

(* A failed TN packing is undone before the fallback packs: over the
   corpus, every unit of a compile whose TN packing raises gets the
   listing and TN report of its --no-tnbind compile, the --no-tnbind
   remarks plus one ROLLBACK per unit, and the same tn.* counts. *)
let test_tnbind_fallback_is_no_tnbind () =
  let compile ~options ~hook src =
    S1_serve.Serve.reset_compile_state ();
    Obs.reset ();
    Remark.reset ();
    Remark.set_enabled true;
    let c = C.create ~options () in
    c.C.log <- Some [];
    with_pass_hook c hook (fun () -> ignore (C.eval_string c src));
    Remark.set_enabled false;
    let units =
      List.rev_map
        (fun { C.l_unit = u; _ } -> (Asm.listing u.Gen.c_prog, Gen.tn_report u.Gen.c_packing))
        (Option.get c.C.log)
    in
    let remarks = List.map (fun r -> { r with Remark.r_seq = 0 }) (Remark.remarks ()) in
    let tn = List.filter (fun (k, _) -> String.starts_with ~prefix:"tn." k) (Obs.counters ()) in
    (units, remarks, tn)
  in
  List.iter
    (fun (f, src) ->
      let units, remarks, tn =
        compile ~options:{ Gen.default_options with Gen.use_tnbind = false }
          ~hook:(fun _ _ -> ()) src
      in
      let units', remarks', tn' =
        compile ~options:Gen.default_options
          ~hook:(fun pass _ -> if pass = "tnbind" then failwith "injected")
          src
      in
      let rollback (r : Remark.t) = r.Remark.r_rule = "ROLLBACK" in
      Alcotest.(check (list (pair string string))) (f ^ ": listings and TN reports") units units';
      Alcotest.(check int) (f ^ ": one ROLLBACK per unit") (List.length units)
        (List.length (List.filter rollback remarks'));
      Alcotest.(check bool) (f ^ ": the --no-tnbind remarks") true
        (remarks = List.filter (fun r -> not (rollback r)) remarks');
      Alcotest.(check (list (pair string int))) (f ^ ": tn counters") tn tn')
    (corpus_files ())

(* Compile every corpus file (CSE on, so all four guarded tree passes
   run) with [hook] called on each tree a guarded tree pass leaves.  TN
   packing and peephole leave no tree of their own: the hook sees the
   unit's tree again there, and damage to it would break code
   generation rather than exercise a guard. *)
let iter_corpus_trees hook =
  List.iter
    (fun (f, src) ->
      let c = C.create ~cse:true () in
      with_pass_hook c
        (fun pass root -> if List.mem pass S1_fuzz.Chaos.tree_passes then hook f pass root)
        (fun () -> ignore (C.eval_string ~file:f c src)))
    (corpus_files ())

let wells () =
  let k = Node.ctrs () in
  (k.Node.ct_node, k.Node.ct_var, k.Node.ct_pb, k.Node.ct_tag)

(* The guard sizes its budget from the census and advances the id wells
   by it in place of copying the tree: the census must be [Node.size] of
   every tree a guarded pass sees, and each of its counts what a copy of
   that tree draws from the matching well. *)
let test_census_counts_nodes () =
  let trees = ref 0 in
  iter_corpus_trees (fun f pass root ->
      let k = Node.census root in
      let what = f ^ " " ^ pass in
      incr trees;
      Alcotest.(check int) (what ^ ": nodes = size") (Node.size root) k.Node.cn_nodes;
      let n0, v0, p0, t0 = wells () in
      ignore (S1_ir.Freshen.copy root);
      let n1, v1, p1, t1 = wells () in
      Alcotest.(check (list int))
        (what ^ ": node/var/pb/tag draws of a copy")
        [ n1 - n0; v1 - v0; p1 - p0; t1 - t0 ]
        [ k.Node.cn_nodes; k.Node.cn_params; k.Node.cn_pbs; k.Node.cn_tags ]);
  Alcotest.(check bool) "saw corpus trees" true (!trees > 100)

(* Rollback parity ------------------------------------------------------------- *)

let constructor (n : Node.node) =
  match n.Node.kind with
  | Node.Term _ -> "term" | Node.Var _ -> "var" | Node.If _ -> "if" | Node.Lambda _ -> "lambda"
  | Node.Call _ -> "call" | Node.Progn _ -> "progn" | Node.Setq _ -> "setq"
  | Node.Caseq _ -> "caseq" | Node.Catcher _ -> "catcher" | Node.Progbody _ -> "progbody"
  | Node.Go _ -> "go" | Node.Return _ -> "return"

let strategy_name = function
  | Node.Unknown -> "unknown" | Node.Open -> "open" | Node.Jump -> "jump" | Node.Fast -> "fast"
  | Node.Full_closure -> "closure" | Node.Toplevel -> "toplevel"

(* What a rollback must give back: the preorder (id, constructor) list,
   the id-annotated back-translation, every lambda's strategy and the
   census. *)
let fingerprint root =
  let shape = ref [] and strategies = ref [] in
  Node.iter
    (fun n ->
      shape := Printf.sprintf "%d:%s" n.Node.n_id (constructor n) :: !shape;
      match n.Node.kind with
      | Node.Lambda l -> strategies := strategy_name l.Node.l_strategy :: !strategies
      | _ -> ())
    root;
  let k = Node.census root in
  ( List.rev !shape,
    S1_ir.Backtrans.to_string ~ids:true root,
    List.rev !strategies,
    [ k.Node.cn_nodes; k.Node.cn_params; k.Node.cn_pbs; k.Node.cn_tags; k.Node.cn_lo;
      k.Node.cn_hi; k.Node.cn_vlo; k.Node.cn_vhi ] )

let check_fingerprint what pre post =
  let s1, b1, l1, k1 = pre and s2, b2, l2, k2 = post in
  Alcotest.(check (list string)) (what ^ ": preorder ids") s1 s2;
  Alcotest.(check string) (what ^ ": back-translation") b1 b2;
  Alcotest.(check (list string)) (what ^ ": strategies") l1 l2;
  Alcotest.(check (list int)) (what ^ ": census") k1 k2

let guarded_passes (c : C.t) =
  [
    ("simplify", Verify.After_simplify,
     fun root -> ignore (S1_transform.Simplify.run ~config:c.C.rules root));
    ("cse", Verify.After_cse, fun root -> ignore (S1_transform.Cse.run root));
    ("repan", Verify.After_repan, fun root -> S1_rep.Repan.run root);
    ("pdlnum", Verify.After_pdlnum, fun root -> S1_rep.Pdlnum.run root);
  ]

(* The tree [C.eval] would compile for a corpus form: a DEFUN's lambda,
   or a top-level expression wrapped in its %TOPLEVEL function. *)
let unit_of (c : C.t) (form : S1_sexp.Sexp.t) =
  let module Sexp = S1_sexp.Sexp in
  let specials = S1_interp.Interp.specials_pred c.C.rt
  and macros = S1_interp.Interp.macros_pred c.C.rt in
  match form with
  | Sexp.List (Sexp.Sym "DEFUN" :: Sexp.Sym _ :: _) ->
      Some (S1_frontend.Convert.defun ~specials ~macros form)
  | Sexp.List (Sexp.Sym ("DEFMACRO" | "DEFVAR" | "PROCLAIM") :: _) -> None
  | _ ->
      let root = Node.lambda ~name:"%TOPLEVEL" [] (S1_frontend.Convert.expression ~specials ~macros form) in
      (match root.Node.kind with Node.Lambda l -> l.Node.l_strategy <- Node.Toplevel | _ -> ());
      Some ("%TOPLEVEL", root)

(* For every corpus function and each guarded pass, run the real pass
   inside [C.guarded] and then fail it — by raising, and by chaos's
   verifier-detectable corruption: the rolled-back tree must be the one
   the pass started from, ids included.  The pass then runs for real so
   the next one starts from its output. *)
let test_rollback_parity () =
  let units = ref 0 and rollbacks = ref 0 in
  List.iter
    (fun (f, src) ->
      let c = C.create ~cse:true () in
      List.iter
        (fun form ->
          (match unit_of c form with
          | Some (name, root) ->
              incr units;
              Node.propagate_locs root;
              S1_analysis.Analyze.refresh root;
              List.iter
                (fun (pass, stage, run) ->
                  let what = Printf.sprintf "%s %s %s" f name pass in
                  List.iter
                    (fun (how, body) ->
                      let pre = fingerprint root in
                      let before = List.length c.C.incidents in
                      C.guarded c ~pass ~stage root body;
                      c.C.unit_disabled <- [];
                      Alcotest.(check int) (what ^ " " ^ how ^ ": rolled back") (before + 1)
                        (List.length c.C.incidents);
                      incr rollbacks;
                      check_fingerprint (what ^ " " ^ how) pre (fingerprint root))
                    [
                      ("raise", fun () -> run root; failwith "injected");
                      ("corrupt", fun () -> run root; S1_fuzz.Chaos.corrupt pass root);
                    ];
                  run root)
                (guarded_passes c)
          | _ -> ());
          ignore (C.eval c form))
        (Reader.parse_string src))
    (corpus_files ());
  Alcotest.(check bool) "saw corpus units" true (!units > 30);
  Alcotest.(check int) "every failed pass rolled back" (!units * 8) !rollbacks

(* Verifier parity --------------------------------------------------------------- *)

(* The verifier before it became one walk: one whole-tree walk per rule
   group over hash tables, and an ancestor list for pdl nesting.  Kept as
   the model the one-walk verifier must agree with diagnostic for
   diagnostic. *)
let model_verify ~(stage : Verify.stage) (root : Node.node) : Verify.diag list =
  let open Node in
  let diags = ref [] in
  let add rule (n : node) fmt =
    Printf.ksprintf
      (fun m ->
        diags := { Verify.d_rule = rule; d_node = n.n_id; d_loc = n.n_loc; d_msg = m } :: !diags)
      fmt
  in
  let seen : (int, unit) Hashtbl.t = Hashtbl.create 256 in
  iter
    (fun n ->
      if Hashtbl.mem seen n.n_id then add "unique-id" n "node id %d appears twice" n.n_id
      else Hashtbl.add seen n.n_id ())
    root;
  let bound_here : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  iter
    (fun n ->
      match n.kind with
      | Lambda l -> List.iter (fun p -> Hashtbl.replace bound_here p.p_var.v_id ()) l.l_params
      | _ -> ())
    root;
  let in_scope : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let enter v =
    Hashtbl.replace in_scope v.v_id
      (1 + Option.value ~default:0 (Hashtbl.find_opt in_scope v.v_id))
  in
  let leave v =
    match Hashtbl.find_opt in_scope v.v_id with
    | Some 1 | None -> Hashtbl.remove in_scope v.v_id
    | Some k -> Hashtbl.replace in_scope v.v_id (k - 1)
  in
  let check_var rule n v =
    if v.v_special || not (Hashtbl.mem bound_here v.v_id) then ()
    else if not (Hashtbl.mem in_scope v.v_id) then
      add rule n "variable %s (v%d) referenced outside its binding lambda" v.v_name v.v_id
  in
  let rec walk tags inprog n =
    match n.kind with
    | Term _ -> ()
    | Var v -> check_var "scope-var" n v
    | Setq (v, e) ->
        check_var "scope-setq" n v;
        walk tags inprog e
    | Lambda l ->
        List.iter (fun p -> enter p.p_var) l.l_params;
        List.iter (fun p -> Option.iter (walk tags inprog) p.p_default) l.l_params;
        walk tags inprog l.l_body;
        List.iter (fun p -> leave p.p_var) l.l_params
    | Call (f, args) ->
        walk tags inprog f;
        List.iter (walk tags inprog) args
    | If (p, x, y) ->
        walk tags inprog p;
        walk tags inprog x;
        walk tags inprog y
    | Progn xs -> List.iter (walk tags inprog) xs
    | Caseq (key, clauses, default) ->
        walk tags inprog key;
        List.iter (fun (_, b) -> walk tags inprog b) clauses;
        Option.iter (walk tags inprog) default
    | Catcher (tag, body) ->
        walk tags inprog tag;
        walk tags inprog body
    | Progbody pb ->
        let tags' =
          List.filter_map (function Ptag t -> Some t | Pstmt _ -> None) pb.pb_items @ tags
        in
        List.iter (function Ptag _ -> () | Pstmt s -> walk tags' (inprog + 1) s) pb.pb_items
    | Go t ->
        if not (List.mem t tags) then add "scope-go" n "GO to tag %s with no enclosing progbody tag" t
    | Return e ->
        if inprog = 0 then add "scope-return" n "RETURN outside any progbody";
        walk tags inprog e
  in
  walk [] 0 root;
  (match stage with
  | Verify.After_repan | Verify.After_pdlnum ->
      iter
        (fun n ->
          let from_ = n.n_isrep and to_ = n.n_wantrep in
          if not (convertible ~from_ ~to_) then
            add "rep-convertible" n "ISREP %s is not coercible to WANTREP %s" (rep_name from_)
              (rep_name to_))
        root
  | _ -> ());
  (if stage = Verify.After_pdlnum then
     let rec nest (path : int list) n =
       if n.n_pdlokp >= 0 && not (List.mem n.n_pdlokp path) then
         add "pdl-nesting" n "pdl authorizer %d is not an ancestor" n.n_pdlokp;
       iter_children (nest (n.n_id :: path)) n
     in
     nest [] root);
  List.rev !diags

let all_stages = [ Verify.After_simplify; Verify.After_cse; Verify.After_repan; Verify.After_pdlnum ]

(* Both verifiers at every stage; returns how many diagnostics they agreed on. *)
let check_verifiers what root =
  List.fold_left
    (fun acc stage ->
      let model = model_verify ~stage root and got = Verify.run ~stage root in
      if model <> got then
        Alcotest.failf "%s: verifier disagrees with the model\nmodel:\n  %s\ngot:\n  %s" what
          (String.concat "\n  " (List.map Verify.diag_to_string model))
          (String.concat "\n  " (List.map Verify.diag_to_string got));
      acc + List.length got)
    0 all_stages

let test_verifier_parity_corpus () =
  let trees = ref 0 and diags = ref 0 in
  iter_corpus_trees (fun f pass root ->
      incr trees;
      diags := !diags + check_verifiers (f ^ " " ^ pass) root;
      (* and the same tree as chaos damages it *)
      S1_fuzz.Chaos.corrupt pass root;
      diags := !diags + check_verifiers (f ^ " " ^ pass ^ " corrupted") root);
  Alcotest.(check bool) "saw corpus trees" true (!trees > 100);
  Alcotest.(check bool) "corruption was diagnosed" true (!diags > !trees)

let test_verifier_parity_generated () =
  let trees = ref 0 in
  for seed = 1 to 500 do
    let c = C.create ~cse:true () in
    with_pass_hook c
      (fun pass root ->
        incr trees;
        ignore (check_verifiers (Printf.sprintf "genprog seed %d %s" seed pass) root))
      (fun () ->
        try ignore (C.eval_forms c (S1_fuzz.Genprog.generate ~seed).S1_fuzz.Genprog.pr_forms)
        with Cpu.Trap _ | Rt.Lisp_error _ -> ())
  done;
  Alcotest.(check bool) "saw generated trees" true (!trees > 1000)

(* One hand-built tree per rule, each broken in exactly that way. *)
let test_verifier_parity_rules () =
  let open Node in
  let lam ?(name = "F") vars body = lambda ~name (List.map required vars) body in
  let x = mkvar "X" and y = mkvar "Y" in
  let free = mkvar "W" and z = mkvar "Z" in
  let shared = term (S1_sexp.Sexp.Int 1) in
  let pdl_leaf = term (S1_sexp.Sexp.Int 2) in
  let cases =
    [
      ("unique-id", lam [ x ] (progn [ shared; shared ]));
      (* Y is bound by the inner lambda, referenced outside it *)
      ("scope-var", lam [ x ] (progn [ var y; lam [ y ] (var y) ]));
      ("scope-setq", lam [ x ] (progn [ setq y (var x); lam [ y ] (var y) ]));
      ("scope-go", lam [ x ] (mk (Progbody (mk_pb [ Ptag "A"; Pstmt (mk (Go "B")) ]))));
      ("scope-return", lam [ x ] (mk (Return (var x))));
      (* W, numbered between the tree's parameters, is bound nowhere in
         it: an open fragment's free variable, not a scope error *)
      ("", lam [ x; z ] (progn [ var free; var z ]));
      ( "rep-convertible",
        let b = var x in
        b.n_isrep <- JUMP;
        lam [ x ] b );
      ( "pdl-nesting",
        let sibling = term (S1_sexp.Sexp.Int 3) in
        pdl_leaf.n_pdlokp <- sibling.n_id;
        lam [ x ] (progn [ sibling; pdl_leaf ]) );
    ]
  in
  List.iter
    (fun (rule, root) ->
      ignore (check_verifiers rule root);
      let got = Verify.run ~stage:Verify.After_pdlnum root in
      Alcotest.(check (list string))
        (rule ^ ": the one rule broken")
        (if rule = "" then [] else [ rule ])
        (List.sort_uniq compare (List.map (fun d -> d.Verify.d_rule) got)))
    cases

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
          Alcotest.test_case "parity over the corpus" `Quick test_verifier_parity_corpus;
          Alcotest.test_case "parity over generated programs" `Quick
            test_verifier_parity_generated;
          Alcotest.test_case "parity per rule" `Quick test_verifier_parity_rules;
        ] );
      ( "rollback",
        [
          Alcotest.test_case "matches disabled pass" `Quick
            test_rollback_matches_disabled_pass;
          Alcotest.test_case "records incident" `Quick test_rollback_records_incident;
          Alcotest.test_case "drops the pass's transcript" `Quick test_rollback_drops_transcript;
          Alcotest.test_case "strict escalates" `Quick test_strict_mode_escalates;
          Alcotest.test_case "restores the pre-pass tree" `Quick test_rollback_parity;
          Alcotest.test_case "generator pass faults" `Quick test_generator_pass_faults;
          Alcotest.test_case "tnbind fallback is --no-tnbind" `Quick
            test_tnbind_fallback_is_no_tnbind;
        ] );
      ( "budget",
        [
          Alcotest.test_case "node budget" `Quick test_node_budget;
          Alcotest.test_case "census counts nodes" `Quick test_census_counts_nodes;
        ] );
    ]
