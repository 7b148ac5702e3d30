(** The compiler driver: the paper's Table 1 phase structure.

    {v
    Preliminary            syntax, macro expansion, conversion to tree
    Source analysis        environment / side-effects / complexity / tail-recursion
    Source optimization    the §5 transformations, to fixpoint with re-analysis
    Binding annotation     Open / Jump / Fast / closure; stack vs heap variables
    Special lookups        deep-binding cache placement
    Representation         WANTREP / ISREP (§6.2)
    Pdl numbers            stack allocation of number boxes (§6.3)
    Target annotation      TNBIND register allocation (§6.1)
    Code generation        single postorder walk emitting S-1 assembly
    Load                   assemble into the live world, build function objects
    v}

    Compilation happens {e into a live Lisp world} (as on the real
    system): the generator records what the unit needs of the world, the
    one installer ({!install}) interns its constants and symbols as it
    loads it, and compiled functions install into symbol function cells,
    callable from compiled and interpreted code alike. *)

module Sexp = S1_sexp.Sexp
module Cpu = S1_machine.Cpu
module Mem = S1_machine.Mem
module Asm = S1_machine.Asm
open S1_runtime
open S1_ir
module Convert = S1_frontend.Convert
module Simplify = S1_transform.Simplify
module Rules = S1_transform.Rules
module Transcript = S1_transform.Transcript
module Gen = S1_codegen.Gen
module Obs = S1_obs.Obs
module I = S1_interp.Interp

(** The paper's Table 1, as data (experiment T1). *)
let phases =
  [
    "Preliminary: syntax checking, macro expansion, conversion to internal tree";
    "Source-program analysis: environment analysis";
    "Source-program analysis: side-effects analysis";
    "Source-program analysis: complexity analysis";
    "Source-program analysis: tail-recursion analysis";
    "Source-level optimization (with incremental re-analysis)";
    "Machine-dependent annotation: special variable lookups";
    "Machine-dependent annotation: binding annotation";
    "Machine-dependent annotation: representation annotation";
    "Machine-dependent annotation: pdl number annotation";
    "Machine-dependent annotation: target annotation (TNBIND and packing)";
    "Code generation (single pass, forwards order)";
  ]

(** One pass failure the driver survived (or, under [--strict], refused
    to survive): which pass, why, and where in the source. *)
type incident = {
  i_pass : string;
  i_reason : string;
  i_loc : S1_loc.Loc.t option;
}

let incident_to_string i =
  let where = match i.i_loc with Some l -> " at " ^ S1_loc.Loc.to_string l | None -> "" in
  Printf.sprintf "pass %s rolled back%s: %s" i.i_pass where i.i_reason

exception Strict_failure of incident
(** Raised instead of degrading when {!t.strict} is set: CI wants pass
    failures loud, production worlds want them survived. *)

(** One installed unit, as the unit log keeps it. *)
type logged = {
  l_unit : Gen.compiled;  (** as installed: name, resolved program, packing *)
  l_org : int;  (** code address the program loaded at *)
  l_rewrites : Transcript.t;
      (** the unit's slice of the session journal; empty for a unit
          loaded from an image *)
}

type t = {
  rt : Rt.t;
  it : I.t;  (** interpreter sharing the same world *)
  mutable options : Gen.options;
  mutable strict : bool;
      (** escalate pass rollbacks to {!Strict_failure} instead of
          degrading (the [--strict] CI mode) *)
  mutable incidents : incident list;  (** session incident log, newest first *)
  mutable unit_disabled : string list;
      (** passes rolled back while compiling the current unit (reset per
          unit); a disabled pass is not retried within the unit *)
  mutable rules : Rules.config;
  mutable cse : bool;
      (** run the optional common-subexpression-elimination phase (the
          paper's §4.3, off in the shipped compiler) *)
  mutable log : logged list option;
      (** the unit log, newest first: every installed unit, for
          [s1lc --listing/--tns/--transcript/--annotate].  [None] (the
          default) keeps nothing; [Some _] also records the journal. *)
  journal : Transcript.t;
      (** persistent whole-session rewrite journal ([s1lc --trace]),
          recording while the unit log is on; each compilation unit is a
          {!Transcript.since} slice of it *)
  mutable locs : S1_sexp.Reader.loctab option;
      (** source positions for forms about to be compiled *)
  mutable pass_hook : string -> Node.node -> unit;
      (** chaos fault-injection point: called with (pass name, tree)
          after each of the six guarded pass bodies runs (the unit's
          tree for TN packing and peephole), {e inside} the guard, so
          injected exceptions and deliberate corruption exercise the same
          rollback machinery a real pass bug would.  Instance-scoped so
          concurrent compiler instances (batch workers) cannot bleed
          hooks into each other. *)
}

let create ?config ?(options = Gen.default_options) ?(rules = Rules.default_config)
    ?(cse = false) ?(strict = false) () =
  let it = I.boot ?config () in
  {
    rt = it.I.rt;
    it;
    options;
    strict;
    incidents = [];
    unit_disabled = [];
    rules;
    cse;
    log = None;
    journal = Transcript.create ~enabled:false ();
    locs = None;
    pass_hook = (fun _ _ -> ());
  }

(* Graceful degradation -------------------------------------------------------- *)

(* The supervised compile service's retry ladder, built on the same
   optimization lattice the per-pass rollback degrades along: a unit
   that fails (trap, deadline, rollback exhaustion) at one rung is
   re-attempted at the next, strictly safer, one.  [Interp_stub] is the
   floor — no compilation at all, the reference interpreter runs the
   source — and maps to no lattice point. *)
type degrade_level =
  | Full_opt  (** the configuration the caller asked for *)
  | Safe_opt  (** TNBIND and pdl numbers off: no register packing, no
                  unboxed stack numbers — the two machine-dependent
                  annotations with the largest blast radius *)
  | Boxed  (** no source rewrites, every value a checked POINTER — the
               certified fallback the per-pass rollback also lands on *)
  | Interp_stub  (** interpreter-only: semantics without code *)

let degrade_ladder = [ Full_opt; Safe_opt; Boxed; Interp_stub ]

let degrade_name = function
  | Full_opt -> "full"
  | Safe_opt -> "no-tnbind-pdl"
  | Boxed -> "boxed"
  | Interp_stub -> "interp"

(** The lattice point a ladder rung compiles at, over the caller's
    requested point; [None] for the interpreter floor.  The two
    compiled fallbacks are s1lc flag lists: [Safe_opt] adds its flags to
    the caller's, [Boxed] starts from the default point. *)
let degrade_config level (p : Lattice.point) : Lattice.point option =
  match level with
  | Full_opt -> Some p
  | Safe_opt -> Some (Lattice.of_flags ~base:p [ "--no-tnbind"; "--no-pdl" ])
  | Boxed ->
      Some
        (Lattice.of_flags
           [ "--no-opt"; "--no-tnbind"; "--no-pdl"; "--no-cache-specials"; "--no-inline-prims" ])
  | Interp_stub -> None

(** The rungs a unit descends from [p].  A rung whose lattice point
    equals the previous rung's would retry an identical compile, and
    compilation and the simulator are deterministic, so it would fail
    the same way: such a rung is skipped (a caller already at
    [--no-tnbind --no-pdl] goes straight from [Full_opt] to [Boxed]). *)
let degrade_rungs (p : Lattice.point) : degrade_level list =
  let rec go prev = function
    | [] -> []
    | rung :: rest ->
        let cfg = degrade_config rung p in
        if cfg <> None && cfg = prev then go prev rest else rung :: go cfg rest
  in
  go None degrade_ladder

(* Pass isolation ------------------------------------------------------------- *)

(* Strip every machine-dependent annotation back to the fully boxed
   baseline: all values tagged POINTERs, no pdl numbers.  This is the
   degraded compilation strategy after a representation-analysis
   rollback — the generator's --no-inline-prims path compiles such a
   tree through native calls only, which the oracle lattice certifies
   independently. *)
let pointerize (root : Node.node) : unit =
  Node.iter
    (fun n ->
      n.Node.n_wantrep <- Node.POINTER;
      n.Node.n_isrep <- Node.POINTER;
      n.Node.n_pdlokp <- -1;
      n.Node.n_pdlnump <- false;
      match n.Node.kind with
      | Node.Lambda l ->
          List.iter (fun p -> p.Node.p_var.Node.v_rep <- Node.POINTER) l.Node.l_params
      | _ -> ())
    root

let record_incident (c : t) ~pass ~reason ~loc =
  Obs.incr "robust.pass_rollback";
  Obs.incr ("robust.rollback." ^ pass);
  let inc = { i_pass = pass; i_reason = reason; i_loc = loc } in
  c.incidents <- inc :: c.incidents;
  c.unit_disabled <- pass :: c.unit_disabled;
  (* the incident is itself a decision: this unit compiles degraded *)
  S1_obs.Remark.analysis ~pass:"compiler" ~rule:"ROLLBACK" ?loc
    ~args:[ ("pass", S1_obs.Remark.Str pass) ]
    (Printf.sprintf "%s rolled back and disabled for this unit: %s" pass reason);
  if c.strict then raise (Strict_failure inc)

(* A failure a pass body reports itself, with its own reason and place. *)
exception Pass_failed of { reason : string; loc : S1_loc.Loc.t option }

(* The one crash guard of all six guarded passes.  A pass already
   disabled for this unit goes straight to [fallback].  Otherwise [enter]
   opens the pass and [body] runs it; [Out_of_memory] escapes, and any
   other exception is a pass failure: [recover] puts back what the pass
   wrote, [fallback] supplies its result, and only then is the incident
   logged (so the ROLLBACK remark survives the recovery's remark drop),
   disabling the pass for the rest of the unit. *)
let guard_pass (c : t) ~pass ~loc ~(fallback : unit -> 'a) ~(enter : unit -> 's)
    ~(recover : 's -> unit) (body : 's -> 'a) : 'a =
  if List.mem pass c.unit_disabled then fallback ()
  else
    let s = enter () in
    match body s with
    | v -> v
    | exception (Out_of_memory as e) -> raise e
    | exception e ->
        recover s;
        let v = fallback () in
        let reason, loc =
          match e with
          | Pass_failed f -> (f.reason, f.loc)
          | Node.Budget_exhausted { budget; _ } ->
              (Printf.sprintf "node budget exhausted (%d nodes)" budget, loc)
          | e -> (Printexc.to_string e, loc)
        in
        record_incident c ~pass ~reason ~loc;
        v

(* A tree pass under the guard: run the body (then the chaos hook) on an
   undo trail under a node-construction budget and re-verify the result;
   recovery undoes what the pass wrote and re-analyzes.  The guard costs
   a census walk, the trail of the pass's writes and the verifier's walk.
   The id wells advance by the census as a deep copy of the tree would
   advance them, which keeps every later node, variable and tag id, and
   so every image, remark and journal, what it was when the guard copied
   the tree. *)
let guarded (c : t) ~pass ~stage (root : Node.node) (body : unit -> unit) : unit =
  guard_pass c ~pass ~loc:root.Node.n_loc ~fallback:ignore
    ~enter:(fun () ->
      let census = Node.census root in
      Node.reserve census;
      (census, Node.open_trail (), S1_obs.Remark.mark (), Transcript.mark c.journal))
    ~recover:(fun (_, trail, remark_mark, journal_mark) ->
      Node.undo trail;
      (* analysis only ever sets [v_captured]: clear it so the refresh
         captures what the restored tree needs, not what the pass did *)
      Node.iter
        (fun n ->
          match n.Node.kind with
          | Node.Lambda l -> List.iter (fun p -> p.Node.p_var.Node.v_captured <- false) l.l_params
          | _ -> ())
        root;
      S1_analysis.Analyze.refresh root;
      (* the pass's remarks and rewrites describe a tree that no longer
         exists: the rollback takes them too *)
      S1_obs.Remark.drop_since remark_mark;
      Transcript.drop_since c.journal journal_mark)
    (fun (census, trail, _, _) ->
      Node.with_budget ~trail ~pass (200_000 + (1_000 * census.Node.cn_nodes)) (fun () ->
          body ();
          c.pass_hook pass root);
      match Verify.run ~stage root with
      | [] -> ()
      | d :: _ as ds ->
          Obs.incr "robust.verify_fail";
          let n = List.length ds in
          let why = Verify.diag_to_string d and s = if n = 1 then "" else "s" in
          let reason = Printf.sprintf "verifier: %s (%d diagnostic%s)" why n s in
          raise (Pass_failed { reason; loc = d.Verify.d_loc }))

(* TN packing and peephole under the guard, handed to the code
   generator: nothing to restore, and the chaos hook sees the unit. *)
let gen_guard (c : t) (lam_node : Node.node) : Gen.guard =
  let guard ~pass ~fallback body =
    guard_pass c ~pass ~loc:lam_node.Node.n_loc ~fallback ~enter:ignore ~recover:ignore
      (fun () ->
        let v = body () in
        c.pass_hook pass lam_node;
        v)
  in
  { Gen.guard }

(* Run the full machine-independent and machine-dependent pipeline on a
   converted lambda node. *)
let run_phases (c : t) (lam_node : Node.node) : Transcript.t =
  Obs.with_span "phases" (fun () ->
      (* record into the session journal while the unit log is on; the
         unit's rewrites are the slice of events this compilation appends *)
      let ts = c.journal in
      Transcript.set_enabled ts (Option.is_some c.log);
      let m = Transcript.mark ts in
      c.unit_disabled <- [];
      guarded c ~pass:"simplify" ~stage:Verify.After_simplify lam_node (fun () ->
          ignore (Simplify.run ~config:c.rules ~transcript:ts lam_node));
      (* CSE is a separate phase after the source-level optimizer, exactly to
         avoid the introduction/elimination thrashing the paper describes. *)
      if c.cse then
        guarded c ~pass:"cse" ~stage:Verify.After_cse lam_node (fun () ->
            ignore (S1_transform.Cse.run ~transcript:ts lam_node));
      (* Simplify/CSE leave the tree analyzed (including binding
         annotation); after a rollback the guard re-analyzed the restored
         tree, so either way the tree is analyzed here. *)
      guarded c ~pass:"repan" ~stage:Verify.After_repan lam_node (fun () ->
          S1_rep.Repan.run ~inline:c.options.Gen.inline_prims lam_node);
      if not (List.mem "repan" c.unit_disabled) then
        guarded c ~pass:"pdlnum" ~stage:Verify.After_pdlnum lam_node (fun () ->
            S1_rep.Pdlnum.run lam_node);
      Transcript.since ts m)

(* Replay a unit's world recipe against the live world, in recording
   order: interning and static allocation have world effects, and the
   recording order is the order the compile asked in, so every unit
   reaches the same words and addresses whenever it loads. *)
let resolve (c : t) (refs : Gen.worldref list) : int array =
  let rt = c.rt in
  let words = Array.make (List.length refs) 0 in
  List.iteri
    (fun i (r : Gen.worldref) ->
      words.(i) <-
        (match r with
        | Rnil -> rt.Rt.nil
        | Rtrue -> rt.Rt.t_
        | Rconst s -> Rt.sexp_to_value ~where:`Static rt s
        | Rsym n -> Rt.intern rt n
        | Rfun_cell n -> Obj.symbol_function_cell rt.Rt.obj (Rt.intern rt n)
        | Rfresh_cell -> Mem.alloc_static rt.Rt.mem 1))
    refs;
  words

(* The one installer of a compiled unit, just compiled or read from an
   image: replay its recipe, assemble and load the code with its
   sentinels resolved, build the function object, and patch the
   nested-closure cells.  Returns the function word.  With the unit log
   on, the unit goes into the log with its program resolved, and
   [rewrites], its slice of the journal, beside it. *)
let install (c : t) ?(rewrites = Transcript.create ~enabled:false ()) (compiled : Gen.compiled)
    : int =
  let name = compiled.Gen.c_name in
  let reloc = Asm.relocation (resolve c compiled.Gen.c_refs) in
  let code_lo = c.rt.Rt.cpu.Cpu.code_len in
  let image = Obs.with_span "load" (fun () -> Cpu.load ~reloc c.rt.Rt.cpu compiled.Gen.c_prog) in
  Option.iter
    (fun log ->
      let l_unit = { compiled with Gen.c_prog = Asm.relocate reloc compiled.Gen.c_prog } in
      c.log <- Some ({ l_unit; l_org = code_lo; l_rewrites = rewrites } :: log))
    c.log;
  (* symbolize the loaded range (closures compiled into the same program
     fold under the outer function's name) for the cycle profiler *)
  Cpu.add_symbol c.rt.Rt.cpu ~lo:code_lo ~hi:c.rt.Rt.cpu.Cpu.code_len ~name;
  let entry = Cpu.label_addr image compiled.Gen.c_entry in
  let name_sym = Rt.intern c.rt name in
  let fobj =
    Obj.code ~where:`Static c.rt.Rt.obj ~entry ~name:name_sym
      ~min_args:compiled.Gen.c_min_args ~max_args:compiled.Gen.c_max_args
  in
  (* nested closures: build their code objects and patch the cells *)
  List.iter
    (fun (entry_label, cell, cname, cmin, cmax) ->
      let centry = Cpu.label_addr image entry_label in
      let csym = Rt.intern c.rt cname in
      let cobj =
        Obj.code ~where:`Static c.rt.Rt.obj ~entry:centry ~name:csym ~min_args:cmin
          ~max_args:cmax
      in
      Mem.write c.rt.Rt.mem (Asm.relocate_word reloc cell) cobj)
    compiled.Gen.c_fixups;
  fobj

(* Compile a lambda node and install it.  Returns the unit and its
   function word. *)
let load_lambda (c : t) ~name (lam_node : Node.node) : Gen.compiled * int =
  Obs.with_span "compile" (fun () ->
  (* fill unlocated nodes from their nearest located ancestor so every
     emitted instruction can resolve to a source line *)
  Node.propagate_locs lam_node;
  let rewrites = run_phases c lam_node in
  (* a representation or pdl-number rollback leaves default decorations:
     compile the unit fully boxed, with no open-coded prims and no stack
     numbers, the certified all-POINTER configuration *)
  let options =
    if List.mem "repan" c.unit_disabled || List.mem "pdlnum" c.unit_disabled then begin
      pointerize lam_node;
      { c.options with Gen.inline_prims = false; Gen.pdl_numbers = false }
    end
    else c.options
  in
  let compiled = Gen.compile_function ~options (gen_guard c lam_node) ~name lam_node in
  (compiled, install c ~rewrites compiled))

(* Top-level form processing -------------------------------------------------- *)

(* The two loaders of a from-source compile: a DEFUN form, and an
   expression as the nullary [name] wrapper, not yet called.  Each
   returns its unit and function word. *)
let compile_defun (c : t) (form : Sexp.t) : Gen.compiled * int =
  let name, lam_node =
    Obs.with_span "convert" (fun () ->
        Convert.defun ~specials:(I.specials_pred c.rt) ~macros:(I.macros_pred c.rt) ?locs:c.locs
          form)
  in
  load_lambda c ~name lam_node

let compile_expression ?(name = "%TOPLEVEL") (c : t) (form : Sexp.t) : Gen.compiled * int =
  let expr =
    Obs.with_span "convert" (fun () ->
        Convert.expression ~specials:(I.specials_pred c.rt) ~macros:(I.macros_pred c.rt)
          ?locs:c.locs form)
  in
  let lam_node = Node.lambda ~name [] expr in
  (* the synthetic wrapper carries the form's own position *)
  lam_node.Node.n_loc <- expr.Node.n_loc;
  (match lam_node.Node.kind with
  | Node.Lambda l -> l.Node.l_strategy <- Node.Toplevel
  | _ -> ());
  load_lambda c ~name lam_node

(** {!S1_interp.Interp.perform} over compiled units: [fn] loads a
    function unit and [expr] an expression unit (the nullary wrapper),
    each to the unit and its function word, and the wrapper is called
    for its value.  A from-source compile compiles the form's source, a
    warm image replay installs the unit it read.  Returns the form's
    value and the form with its units in place of its source, which is
    what an image keeps. *)
let perform (c : t) ~(fn : 'u -> Gen.compiled * int) ~(expr : 'u -> Gen.compiled * int)
    (form : 'u Convert.toplevel) : int * Gen.compiled Convert.toplevel =
  I.perform c.rt
    ~fn:(fun u ->
      let unit_, fobj = fn u in
      (unit_.Gen.c_name, unit_, fobj))
    ~eval:(fun u ->
      let unit_, fobj = expr u in
      (unit_, Rt.call c.rt fobj []))
    form

(** Compile-evaluate one top-level form: its value and its compiled
    units. *)
let compile_form (c : t) (form : Sexp.t) : int * Gen.compiled Convert.toplevel =
  perform c ~fn:(compile_defun c) ~expr:(compile_expression c) (Convert.toplevel form)

let eval (c : t) (form : Sexp.t) : int = fst (compile_form c form)

let eval_string ?(file = "<eval>") (c : t) (src : string) : int =
  let forms, tab = S1_sexp.Reader.parse_string_located ~file src in
  let saved = c.locs in
  c.locs <- Some tab;
  Fun.protect
    ~finally:(fun () -> c.locs <- saved)
    (fun () -> List.fold_left (fun _ f -> eval c f) c.rt.Rt.nil forms)

let eval_forms (c : t) (forms : Sexp.t list) : int =
  List.fold_left (fun _ f -> eval c f) c.rt.Rt.nil forms

(** Compile-evaluate a whole program and print its final value — the
    result-printing entry point the differential-testing oracle drives
    ([lib/fuzz]): one call, one canonical string to compare against the
    interpreter's. *)
let eval_print (c : t) (forms : Sexp.t list) : string =
  Rt.print_value c.rt (eval_forms c forms)

(* Introspection --------------------------------------------------------------- *)

(** Compile [form] (a DEFUN is also installed, anything else only
    compiled) with the unit log on, and read its unit back: the unit's
    listing and rewrites. *)
let listing_of (c : t) (form : Sexp.t) : string * Transcript.t =
  let was_off = Option.is_none c.log in
  if was_off then c.log <- Some [];
  Fun.protect
    ~finally:(fun () -> if was_off then c.log <- None)
    (fun () ->
      (match Convert.toplevel form with
      | Convert.Defun _ -> ignore (eval c form)
      | _ -> ignore (compile_expression ~name:"%LISTING" c form));
      match c.log with
      | Some (u :: _) -> (Asm.listing u.l_unit.Gen.c_prog, u.l_rewrites)
      | _ -> ("", Transcript.create ()))

let print_value (c : t) w = Rt.print_value c.rt w
