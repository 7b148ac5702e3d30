(* Optimizer parity: the source-level optimizer (Simplify) and CSE must
   keep firing every rule at the same node, in the same order, with the
   same result.  The digests below were pinned on the whole-tree,
   every-rule-at-every-node optimizer that the incremental one
   replaced; they cover the §7 rewrite journal, the remarks journal,
   the back-translated tree after Simplify and after CSE, the
   simplify.sweeps and rule counters, and the generated code, for every
   corpus file and 200 generated programs at each of the 8 lattice
   points.  A second pass compiles everything again with remarks and
   the journal off: the trees, the units as generated (program and
   world recipe), the code each run loaded and the counters must not
   depend on whether anyone reads the journals. *)

module C = S1_core.Compiler
module Rt = S1_runtime.Rt
module Obs = S1_obs.Obs
module Remark = S1_obs.Remark
module Oracle = S1_fuzz.Oracle
module Genprog = S1_fuzz.Genprog
open S1_ir
open S1_transform

let corpus_dir = if Sys.file_exists "corpus" then "corpus" else "test/corpus"

let corpus_sources () =
  Sys.readdir corpus_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".lisp")
  |> List.sort compare
  |> List.map (fun f ->
         (f, In_channel.with_open_text (Filename.concat corpus_dir f) In_channel.input_all))

let genprog_sources () =
  List.init 200 (fun i ->
      let p = Genprog.generate ~seed:(5000 + i) in
      (Printf.sprintf "genprog %d" p.Genprog.pr_seed, Genprog.render p))

(* What one compilation leaves behind.  [journals] is empty when the
   run had remarks and the rewrite journal switched off. *)
type observed = {
  trees : string;  (** back-translated tree after each simplify and cse pass *)
  code : string;  (** listings of every program loaded, from the unit log; empty without journals *)
  units : string;  (** every unit as generated: sentinel program and world recipe *)
  loaded : string;  (** the CPU's code store after the run, sentinels resolved *)
  counters : string;  (** simplify.sweeps and the rule./rule_at. counters *)
  journals : string;  (** rewrite journal and remarks, JSONL *)
  outcome : string;
}

let optimizer_counter (k, _) =
  k = "simplify.sweeps"
  || String.starts_with ~prefix:"rule." k
  || String.starts_with ~prefix:"rule_at." k

let observe ~journals (cfg : Oracle.config) ~file src =
  S1_serve.Serve.reset_compile_state ();
  Obs.reset ();
  Remark.reset ();
  Remark.set_enabled journals;
  let c =
    C.create ~options:cfg.Oracle.cfg_options ~rules:cfg.Oracle.cfg_rules
      ~cse:cfg.Oracle.cfg_cse ()
  in
  (* the unit log is the journal's switch, so the run without journals
     compares the units as generated, before they load *)
  if journals then c.C.log <- Some [];
  c.C.rt.Rt.fuel <- Some Oracle.fuzz_fuel;
  let trees = Buffer.create 1024 in
  c.C.pass_hook <-
    (fun pass root ->
      if pass = "simplify" || pass = "cse" then begin
        Buffer.add_string trees (pass ^ ": " ^ Backtrans.to_string root);
        Buffer.add_char trees '\n'
      end);
  let units = Buffer.create 1024 in
  let generated ((u, _) as loaded) =
    Buffer.add_string units (S1_obs.Json.to_string ~pretty:false (S1_serve.Image.json_of_unit u));
    Buffer.add_char units '\n';
    loaded
  in
  let eval form =
    fst
      (C.perform c
         ~fn:(fun f -> generated (C.compile_defun c f))
         ~expr:(fun e -> generated (C.compile_expression c e))
         (S1_frontend.Convert.toplevel form))
  in
  let outcome =
    match
      let forms, tab = S1_sexp.Reader.parse_string_located ~file src in
      c.C.locs <- Some tab;
      List.fold_left (fun _ f -> eval f) c.C.rt.Rt.nil forms
    with
    | w -> Rt.print_value c.C.rt w
    | exception e -> "exception: " ^ Printexc.to_string e
  in
  Remark.set_enabled false;
  let code =
    List.rev_map
      (fun { C.l_unit = u; _ } -> u.S1_codegen.Gen.c_name ^ "\n" ^ S1_machine.Asm.listing u.c_prog)
      (Option.value c.C.log ~default:[])
    |> String.concat "\n"
  in
  let counters =
    Obs.counters ()
    |> List.filter optimizer_counter
    |> List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v)
    |> String.concat " "
  in
  let journals =
    if journals then Transcript.to_jsonl c.C.journal ^ Remark.to_jsonl (Remark.remarks ())
    else ""
  in
  let cpu = c.C.rt.Rt.cpu in
  let loaded =
    Array.sub cpu.S1_machine.Cpu.code 0 cpu.code_len
    |> Array.map (Format.asprintf "%a" S1_machine.Isa.pp_instr)
    |> Array.to_list |> String.concat "\n"
  in
  {
    trees = Buffer.contents trees;
    code;
    units = Buffer.contents units;
    loaded;
    counters;
    journals;
    outcome;
  }

let digest_lines lines = Digest.to_hex (Digest.string (String.concat "\n" lines))

(* Compile every source at every lattice point twice (journals on, then
   off), check the off run against the on run, and digest the on runs
   field by field. *)
let parity sources =
  let runs =
    List.concat_map
      (fun (name, src) ->
        List.map
          (fun (cfg : Oracle.config) ->
            let label = name ^ " @ " ^ cfg.Oracle.cfg_name in
            let on = observe ~journals:true cfg ~file:name src in
            let off = observe ~journals:false cfg ~file:name src in
            Alcotest.(check string) (label ^ ": tree without journals") on.trees off.trees;
            Alcotest.(check string) (label ^ ": units without journals") on.units off.units;
            Alcotest.(check string) (label ^ ": loaded code without journals") on.loaded off.loaded;
            Alcotest.(check string)
              (label ^ ": counters without journals")
              on.counters off.counters;
            Alcotest.(check string) (label ^ ": outcome without journals") on.outcome off.outcome;
            Alcotest.(check bool)
              (label ^ ": compiles and runs") false
              (String.starts_with ~prefix:"exception" on.outcome);
            on)
          Oracle.lattice)
      sources
  in
  let field f = digest_lines (List.map f runs) in
  [
    ("trees", field (fun r -> r.trees));
    ("journals", field (fun r -> r.journals));
    ("counters", field (fun r -> r.counters));
    ("code", field (fun r -> r.code ^ "\n=> " ^ r.outcome));
  ]

let check_pins what pins got =
  List.iter
    (fun (field, want) ->
      Alcotest.(check string) (what ^ " " ^ field ^ " digest") want (List.assoc field got))
    pins

let test_corpus () =
  check_pins "corpus"
    [
      ("trees", "310631c623a07fb557b76f45880ad95e");
      ("journals", "9c7537f2eb7d2079fefec813cf1eed54");
      ("counters", "c4398f70a5e304a1a7de18399435ce42");
      ("code", "76defbaf628f31d58eea58644dbf6e42");
    ]
    (parity (corpus_sources ()))

let test_genprog () =
  let sources = genprog_sources () in
  check_pins "genprog"
    [
      ("trees", "7ca3ab11c6d29edd10b2063e7be79bde");
      ("journals", "e9648598db458843f3103205cf8876b0");
      ("counters", "6edc9d1781c8ac0ce8427b6cd092e26d");
      ("code", "ca761709e6c4ff83727eac2fc8669e54");
    ]
    (parity sources)

(* Decoration parity: every decoration an update leaves is what a
   whole-tree refresh from the same state leaves (DESIGN.md, "The
   refresh").  The optimizer's loop is driven as [Simplify.run] drives
   it, and after every update (and the final reprice) the decorations
   are snapshotted, the tree is refreshed, and the snapshot must not
   change.  Complexity prices a lambda by the strategy it finds, so the
   refresh starts from the strategies the update started from; the
   sweep marks are restored after it.

   The snapshot holds every node's effects, complexity and tail flag,
   every variable's back-pointers in order, and every lambda's strategy
   and captures.  It leaves out [v_captured]: binding annotation sets it
   and never clears it, so a variable whose capturing closure was
   rewritten away stays captured, and a refresh of the same tree can
   only read back what it finds. *)
type decoration =
  | Dnode of int * Node.effects * int * bool
  | Dvar of int * int list * int list * int option
  | Dlam of Node.strategy * int list

let decorations root =
  let out = ref [] and seen = ref [] in
  let ids = List.map (fun (n : Node.node) -> n.n_id) in
  let var (v : Node.var) =
    if not (List.memq v !seen) then begin
      seen := v :: !seen;
      let binder = Option.map (fun (b : Node.node) -> b.n_id) v.v_binder in
      out := Dvar (v.v_id, ids v.v_refs, ids v.v_setqs, binder) :: !out
    end
  in
  Node.iter
    (fun n ->
      out := Dnode (n.n_id, n.n_effects, n.n_complexity, n.n_tail) :: !out;
      match n.kind with
      | Var v | Setq (v, _) -> var v
      | Lambda l ->
          List.iter (fun (p : Node.param) -> var p.p_var) l.l_params;
          out := Dlam (l.l_strategy, List.map (fun (v : Node.var) -> v.v_id) l.l_captures) :: !out
      | _ -> ())
    root;
  List.rev !out

let lambdas root =
  let ls = ref [] in
  Node.iter (fun n -> match n.kind with Lambda l -> ls := l :: !ls | _ -> ()) root;
  !ls

(* Run [step] (one update) and check its decorations against a refresh. *)
let check_update label root step =
  let strategies = List.map (fun (l : Node.lam) -> (l, l.l_strategy)) (lambdas root) in
  let result = step () in
  let updated = decorations root in
  let dirty = ref [] in
  Node.iter (fun n -> if n.n_dirty then dirty := n :: !dirty) root;
  List.iter (fun ((l : Node.lam), s) -> l.l_strategy <- s) strategies;
  S1_analysis.Analyze.refresh root;
  let refreshed = decorations root in
  Node.iter (fun n -> n.n_dirty <- false) root;
  List.iter (fun (n : Node.node) -> n.n_dirty <- true) !dirty;
  let rec first_diff i = function
    | x :: xs, y :: ys -> if x = y then first_diff (i + 1) (xs, ys) else i
    | _ -> i
  in
  if updated <> refreshed then
    Alcotest.failf "%s: decoration %d after the update differs from a refresh's" label
      (first_diff 0 (updated, refreshed));
  result

let drive label (cfg : Oracle.config) root =
  let module Analyze = S1_analysis.Analyze in
  let ctx = { Rules.cfg = cfg.Oracle.cfg_rules; ts = Transcript.create ~enabled:false () } in
  let sweeps = ref 0 and fired = ref true and restrategized = ref [] in
  let check step = check_update (Printf.sprintf "%s, sweep %d" label !sweeps) root step in
  while !fired && !sweeps < Simplify.max_sweeps do
    incr sweeps;
    restrategized :=
      check (fun () -> Analyze.update ~all:(!sweeps = 1) ~restrategized:!restrategized root);
    fired := Simplify.sweep ctx root
  done;
  check (fun () ->
      if !fired then ignore (Analyze.update ~restrategized:!restrategized root)
      else Analyze.reprice ~restrategized:!restrategized root);
  !sweeps

(* Every unit of [src] at [cfg], converted from the world its earlier
   forms built, driven before the world compiles it; the sweeps run. *)
let decoration_parity (cfg : Oracle.config) (name, src) =
  let c =
    C.create ~options:cfg.Oracle.cfg_options ~rules:cfg.Oracle.cfg_rules
      ~cse:cfg.Oracle.cfg_cse ()
  in
  c.C.rt.Rt.fuel <- Some Oracle.fuzz_fuel;
  let specials = S1_interp.Interp.specials_pred c.C.rt
  and macros = S1_interp.Interp.macros_pred c.C.rt in
  let label = name ^ " @ " ^ cfg.Oracle.cfg_name in
  let sweeps = ref 0 in
  let run root = sweeps := !sweeps + drive label cfg root in
  List.iter
    (fun form ->
      ignore
        (C.perform c
           ~fn:(fun f ->
             run (snd (S1_frontend.Convert.defun ~specials ~macros f));
             C.compile_defun c f)
           ~expr:(fun e ->
             let root = Node.lambda [] (S1_frontend.Convert.expression ~specials ~macros e) in
             (match root.kind with Lambda l -> l.l_strategy <- Toplevel | _ -> ());
             run root;
             C.compile_expression c e)
           (S1_frontend.Convert.toplevel form)))
    (S1_sexp.Reader.parse_string src);
  !sweeps

let test_decorations () =
  let sources =
    corpus_sources ()
    @ List.init 50 (fun i ->
          let p = Genprog.generate ~seed:(5000 + i) in
          (Printf.sprintf "genprog %d" p.Genprog.pr_seed, Genprog.render p))
  in
  let sweeps =
    List.fold_left
      (fun acc cfg -> List.fold_left (fun acc src -> acc + decoration_parity cfg src) acc sources)
      0 Oracle.lattice
  in
  Alcotest.(check bool) "the optimizer swept" true (sweeps > 0)

(* A firing rewrites the node's kind in place, and the rules after it in
   the table see the new kind during the same visit: beta turns this
   call into an IF, which if-constant then folds on the same node before
   the sweep moves on. *)
let test_kind_change_mid_visit () =
  let n =
    S1_frontend.Convert.expression
      (S1_sexp.Reader.parse_one "(f ((lambda (x) (if x 'yes 'no)) 't))")
  in
  let target =
    match n.Node.kind with Node.Call (_, [ a ]) -> a.Node.n_id | _ -> assert false
  in
  Obs.reset ();
  let ts = Transcript.create () in
  ignore (Simplify.run ~transcript:ts n);
  Alcotest.(check string) "result" "(F 'YES)" (Backtrans.to_string n);
  Alcotest.(check (list (pair string int)))
    "both rules fire on the call node, beta first"
    [ ("META-SUBSTITUTE", target); ("DEAD-CODE-ELIMINATION", target) ]
    (List.map (fun e -> (e.Transcript.ev_rule, e.Transcript.ev_node)) (Transcript.events ts));
  Alcotest.(check int) "one firing sweep and one quiet one" 2 (Obs.count "simplify.sweeps")

let () =
  Alcotest.run "optimizer"
    [
      ( "parity",
        [
          Alcotest.test_case "corpus" `Quick test_corpus;
          Alcotest.test_case "genprog" `Quick test_genprog;
          Alcotest.test_case "kind change mid-visit" `Quick test_kind_change_mid_visit;
          Alcotest.test_case "decorations after every update" `Quick test_decorations;
        ] );
    ]
