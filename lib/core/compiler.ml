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
    system): quoted constants intern immediately, and compiled functions
    install into symbol function cells, callable from compiled and
    interpreted code alike. *)

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

type t = {
  rt : Rt.t;
  it : S1_interp.Interp.t;  (** interpreter sharing the same world *)
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
  mutable keep_transcript : bool;
  mutable last_transcript : Transcript.t option;
  mutable last_listing : string option;
  mutable last_tn_report : string option;
  macros : (string, int) Hashtbl.t;
      (** DEFMACRO expanders: macro name -> compiled function word *)
  journal : Transcript.t;
      (** persistent whole-session rewrite journal ([s1lc --trace]); each
          compilation unit is a {!Transcript.since} slice of it.  Disabled
          by default; [keep_transcript] enables recording per-unit. *)
  mutable locs : S1_sexp.Reader.loctab option;
      (** source positions for forms about to be compiled *)
  mutable record_code : bool;
      (** keep every loaded program for [s1lc --annotate] *)
  mutable code_log : (string * Asm.program * int) list;
      (** (name, program, org) per loaded unit, newest first *)
  mutable pass_hook : string -> Node.node -> unit;
      (** chaos fault-injection point: called with (pass name, tree)
          after each guarded pass body runs, {e inside} the guard, so
          injected exceptions and deliberate corruption exercise the same
          rollback machinery a real pass bug would.  Instance-scoped so
          concurrent compiler instances (batch workers) cannot bleed
          hooks into each other. *)
  mutable world_wrap : Gen.world -> Gen.world;
      (** interposed on the world handed to the code generator; the
          compile service wraps it with a recording world that captures
          the world-reference recipe of each unit for serialization *)
  mutable unit_filter : name:string -> Gen.compiled -> Gen.compiled;
      (** interposed on each compiled unit before it is installed; the
          compile service captures the unit here and returns it with
          world references resolved against the live world *)
}

let create ?config ?(options = Gen.default_options) ?(rules = Rules.default_config)
    ?(cse = false) ?(strict = false) () =
  let it = S1_interp.Interp.boot ?config () in
  {
    rt = it.S1_interp.Interp.rt;
    it;
    options;
    strict;
    incidents = [];
    unit_disabled = [];
    rules;
    cse;
    keep_transcript = false;
    last_transcript = None;
    last_listing = None;
    last_tn_report = None;
    macros = Hashtbl.create 8;
    journal = Transcript.create ~enabled:false ();
    locs = None;
    record_code = false;
    code_log = [];
    pass_hook = (fun _ _ -> ());
    world_wrap = Fun.id;
    unit_filter = (fun ~name:_ compiled -> compiled);
  }

let world_of (c : t) : Gen.world =
  let rt = c.rt in
  {
    Gen.nil_word = rt.Rt.nil;
    t_word = rt.Rt.t_;
    const_word = (fun s -> Rt.sexp_to_value ~where:`Static rt s);
    symbol_word = (fun name -> Rt.intern rt name);
    function_cell = (fun name -> Obj.symbol_function_cell rt.Rt.obj (Rt.intern rt name));
    value_cell = (fun name -> Obj.symbol_value_cell rt.Rt.obj (Rt.intern rt name));
    alloc_cell = (fun () -> Mem.alloc_static rt.Rt.mem 1);
  }

(* The macro lookup handed to the front end: an expander applies the
   compiled macro function to the {e unevaluated} argument forms (as
   values) and reads the resulting form back. *)
let macros_pred (c : t) name =
  match Hashtbl.find_opt c.macros name with
  | None -> None
  | Some fobj ->
      Some
        (fun (args : Sexp.t list) ->
          let argv = List.map (fun a -> Rt.sexp_to_value c.rt a) args in
          let result = Rt.with_protected c.rt argv (fun () -> Rt.call c.rt fobj argv) in
          Rt.value_to_sexp c.rt result)

let specials_pred (c : t) name =
  match Rt.find_symbol c.rt name with
  | Some sym when sym <> c.rt.Rt.nil && sym <> c.rt.Rt.t_ ->
      Obj.symbol_is_special c.rt.Rt.obj sym
  | _ -> false

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

(* Transactional loads --------------------------------------------------------- *)

(* Everything a warm-image replay (or any toplevel load) can write into
   the world's symbol/cell state: the runtime's frozen state ({!Rt.freeze}:
   the static region, the code store with its symbol ranges and PC line
   maps, the obarray, the gensym counter) plus the macro table.
   Restoring makes a failed load a clean no-op {e byte-for-byte}:
   re-interning the same names afterwards lands at the same static
   addresses and the same code origins, so determinism survives the
   rollback.  Heap effects of the aborted prefix are not undone — objects
   it allocated become unreachable garbage once the static roots are
   rewound. *)
type world_snapshot = { ws_world : Rt.frozen; ws_macros : (string * int) list }

let snapshot_world (c : t) : world_snapshot =
  { ws_world = Rt.freeze c.rt; ws_macros = Hashtbl.fold (fun k v acc -> (k, v) :: acc) c.macros [] }

let restore_world (c : t) (ws : world_snapshot) : unit =
  Rt.thaw c.rt ws.ws_world;
  Hashtbl.reset c.macros;
  List.iter (fun (k, v) -> Hashtbl.replace c.macros k v) ws.ws_macros

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

(* Run one tree pass under the crash guard: open an undo trail, run the
   body (then the chaos hook) under a node-construction budget, re-verify
   the result, and on any failure — exception, budget exhaustion, or
   verifier diagnostics — undo what the pass wrote, re-analyze, log an
   incident, and carry on with the pass disabled for this unit.  The
   guard costs a census walk, the trail of the pass's writes and the
   verifier's walk.  The id wells advance by the census as a deep copy
   of the tree would advance them, which keeps every later node,
   variable and tag id, and so every image, remark and journal, what it
   was when the guard copied the tree.  The only exceptions allowed out
   are host-fatal ones and [Strict_failure]. *)
let guarded (c : t) ~pass ~stage (root : Node.node) (body : unit -> unit) : unit =
  if List.mem pass c.unit_disabled then ()
  else begin
    let census = Node.census root in
    Node.reserve census;
    let trail = Node.open_trail () in
    let remark_mark = S1_obs.Remark.mark () in
    let budget = 200_000 + (1_000 * census.Node.cn_nodes) in
    let rollback ~verify_fail ~reason ~loc =
      if verify_fail then Obs.incr "robust.verify_fail";
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
      (* the pass's remarks describe decisions on a tree that no longer
         exists: the rollback takes them too *)
      S1_obs.Remark.drop_since remark_mark;
      record_incident c ~pass ~reason ~loc
    in
    match
      Node.with_budget ~trail ~pass budget (fun () ->
          body ();
          c.pass_hook pass root);
      Verify.run ~stage root
    with
    | [] -> ()
    | d :: _ as ds ->
        rollback ~verify_fail:true
          ~reason:
            (Printf.sprintf "verifier: %s (%d diagnostic%s)" (Verify.diag_to_string d)
               (List.length ds)
               (if List.length ds = 1 then "" else "s"))
          ~loc:d.Verify.d_loc
    | exception Node.Budget_exhausted { budget; _ } ->
        rollback ~verify_fail:false
          ~reason:(Printf.sprintf "node budget exhausted (%d nodes)" budget)
          ~loc:root.Node.n_loc
    | exception (Out_of_memory as e) -> raise e
    | exception e ->
        rollback ~verify_fail:false ~reason:(Printexc.to_string e) ~loc:root.Node.n_loc
  end

(* Run the full machine-independent and machine-dependent pipeline on a
   converted lambda node. *)
let run_phases (c : t) (lam_node : Node.node) : Transcript.t =
  Obs.with_span "phases" (fun () ->
      (* record into the session journal; the per-unit transcript is the
         slice of events this compilation appends *)
      let ts = c.journal in
      let was_enabled = Transcript.enabled ts in
      Transcript.set_enabled ts (was_enabled || c.keep_transcript);
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
      (* A representation or pdl-number rollback restored a snapshot whose
         decorations are defaults again: compile fully boxed (load_lambda
         also turns off inline prims and pdl numbers for this unit, the
         certified all-POINTER configuration). *)
      if List.mem "repan" c.unit_disabled || List.mem "pdlnum" c.unit_disabled then
        pointerize lam_node;
      Transcript.set_enabled ts was_enabled;
      Transcript.since ts m)

(* Install an already-generated unit into the live world: load the code,
   build the function object, and patch nested-closure cells.  Returns
   the function word.  The program must contain only live-world operands
   (label operands aside) — the compile service resolves its serialized
   world references before calling this. *)
let install_compiled (c : t) ~name (compiled : Gen.compiled) : int =
  let code_lo = c.rt.Rt.cpu.Cpu.code_len in
  let image = Obs.with_span "load" (fun () -> Cpu.load c.rt.Rt.cpu compiled.Gen.c_prog) in
  if c.record_code then c.code_log <- (name, compiled.Gen.c_prog, code_lo) :: c.code_log;
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
      Mem.write c.rt.Rt.mem cell cobj)
    compiled.Gen.c_fixups;
  fobj

(* Compile a lambda node and install it into the world.  Returns the
   function word. *)
let load_lambda (c : t) ~name (lam_node : Node.node) : int =
  Obs.with_span "compile" (fun () ->
  (* fill unlocated nodes from their nearest located ancestor so every
     emitted instruction can resolve to a source line *)
  Node.propagate_locs lam_node;
  let ts = run_phases c lam_node in
  if c.keep_transcript then c.last_transcript <- Some ts;
  (* after a representation-level rollback the tree is fully boxed; the
     generator must not open-code prims or stack-allocate numbers on it *)
  let options =
    if List.mem "repan" c.unit_disabled || List.mem "pdlnum" c.unit_disabled then
      { c.options with Gen.inline_prims = false; Gen.pdl_numbers = false }
    else c.options
  in
  (* route in-generator fallbacks (TN packing, peephole) into the same
     incident log as the tree passes *)
  let fallback = Gen.on_fallback () in
  let saved_fallback = !fallback in
  fallback :=
    (fun ~pass ~reason -> record_incident c ~pass ~reason ~loc:lam_node.Node.n_loc);
  let compiled =
    Fun.protect
      ~finally:(fun () -> fallback := saved_fallback)
      (fun () -> Gen.compile_function (c.world_wrap (world_of c)) ~options ~name lam_node)
  in
  let compiled = c.unit_filter ~name compiled in
  if c.keep_transcript then begin
    c.last_listing <- Some (Asm.listing compiled.Gen.c_prog);
    c.last_tn_report <- Some compiled.Gen.c_tn_report
  end;
  install_compiled c ~name compiled)

(* Top-level form processing -------------------------------------------------- *)

let compile_defun (c : t) (form : Sexp.t) : string =
  let name, lam_node =
    Obs.with_span "convert" (fun () ->
        Convert.defun ~specials:(specials_pred c) ~macros:(macros_pred c) ?locs:c.locs form)
  in
  let fobj = load_lambda c ~name lam_node in
  Rt.set_function c.rt (Rt.intern c.rt name) fobj;
  name

let compile_expression (c : t) (form : Sexp.t) : int =
  (* wrap in a nullary function, compile, call *)
  let expr =
    Obs.with_span "convert" (fun () ->
        Convert.expression ~specials:(specials_pred c) ~macros:(macros_pred c) ?locs:c.locs
          form)
  in
  let lam_node = Node.lambda ~name:"%TOPLEVEL" [] expr in
  (* the synthetic wrapper carries the form's own position *)
  lam_node.Node.n_loc <- expr.Node.n_loc;
  (match lam_node.Node.kind with
  | Node.Lambda l -> l.Node.l_strategy <- Node.Toplevel
  | _ -> ());
  let fobj = load_lambda c ~name:"%TOPLEVEL" lam_node in
  Rt.call c.rt fobj []

let eval (c : t) (form : Sexp.t) : int =
  match form with
  | Sexp.List (Sexp.Sym "DEFUN" :: Sexp.Sym _ :: _) ->
      Rt.intern c.rt (compile_defun c form)
  | Sexp.List (Sexp.Sym "DEFMACRO" :: Sexp.Sym name :: Sexp.List params :: body) ->
      (* compile the expander as an anonymous function over the raw forms *)
      let expander_form =
        Sexp.List
          (Sexp.Sym "DEFUN" :: Sexp.Sym ("%MACRO-" ^ name) :: Sexp.List params :: body)
      in
      let mname, lam_node =
        Convert.defun ~specials:(specials_pred c) ~macros:(macros_pred c) ?locs:c.locs
          expander_form
      in
      let fobj = load_lambda c ~name:mname lam_node in
      Hashtbl.replace c.macros name fobj;
      Rt.intern c.rt name
  | Sexp.List [ Sexp.Sym "DEFVAR"; Sexp.Sym name; init ] ->
      let sym = Rt.intern c.rt name in
      Rt.proclaim_special c.rt sym;
      let v = compile_expression c init in
      Rt.set_symbol_value_dynamic c.rt sym v;
      sym
  | Sexp.List [ Sexp.Sym "PROCLAIM"; Sexp.List [ Sexp.Sym "QUOTE"; Sexp.List (Sexp.Sym "SPECIAL" :: names) ] ] ->
      List.iter
        (function
          | Sexp.Sym n -> Rt.proclaim_special c.rt (Rt.intern c.rt n)
          | _ -> ())
        names;
      c.rt.Rt.nil
  | _ -> compile_expression c form

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

let listing_of (c : t) (form : Sexp.t) : string * Transcript.t =
  let saved = c.keep_transcript in
  c.keep_transcript <- true;
  Fun.protect
    ~finally:(fun () -> c.keep_transcript <- saved)
    (fun () ->
      (match form with
      | Sexp.List (Sexp.Sym "DEFUN" :: _) -> ignore (compile_defun c form)
      | _ ->
          let expr =
            Convert.expression ~specials:(specials_pred c) ~macros:(macros_pred c)
              ?locs:c.locs form
          in
          let lam_node = Node.lambda ~name:"%LISTING" [] expr in
          lam_node.Node.n_loc <- expr.Node.n_loc;
          (match lam_node.Node.kind with
          | Node.Lambda l -> l.Node.l_strategy <- Node.Toplevel
          | _ -> ());
          ignore (load_lambda c ~name:"%LISTING" lam_node));
      ( (match c.last_listing with Some l -> l | None -> ""),
        match c.last_transcript with Some t -> t | None -> Transcript.create () ))

let print_value (c : t) w = Rt.print_value c.rt w
