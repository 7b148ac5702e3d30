(** The compile service: content-addressed caching and parallel batch
    compilation in front of {!S1_core.Compiler}.

    Cold path: compile each top-level form with a {e recording world} —
    the generator sees sentinels instead of live-world words, and every
    world request (constant intern, symbol intern, cell address, fresh
    static cell) is appended to the unit's recipe.  The captured
    sentinel program plus recipe serializes as an {!Image}; the recipe
    then resolves against the live world and the resolved unit installs
    through the same {!S1_core.Compiler.install_compiled} a warm load
    uses, so cold and warm executions share one code path.

    Warm path: verify and decode the image, replay each action's recipe
    against a fresh world, substitute, install, run.  Because the recipe
    replays the exact world-effect sequence of a from-source compile,
    the loaded code is byte-identical — same words, same addresses, same
    cycle counts, same annotate listing — without running a single
    optimization pass.

    Batch mode fans files out over a Domain pool.  All compiler state is
    either per-instance ({!S1_core.Compiler.t}) or domain-local
    ({!S1_par.Dls}), so workers are hermetic; each file's counter delta
    is carried in its {!result} and merged into the calling domain's
    registry in input order, making `-j N` output and metrics
    independent of scheduling. *)

module Sexp = S1_sexp.Sexp
module Reader = S1_sexp.Reader
module Asm = S1_machine.Asm
module Cpu = S1_machine.Cpu
module Rt = S1_runtime.Rt
module Node = S1_ir.Node
module Freshen = S1_ir.Freshen
module Macroexp = S1_frontend.Macroexp
module Rules = S1_transform.Rules
module Gen = S1_codegen.Gen
module C = S1_core.Compiler
module Lattice = S1_core.Lattice
module Obs = S1_obs.Obs
module Remark = S1_obs.Remark
module Oracle = S1_fuzz.Oracle
module Genprog = S1_fuzz.Genprog

type cfg = {
  sv_rules : Rules.config;
  sv_options : Gen.options;
  sv_cse : bool;
}

let point (cfg : cfg) : Lattice.point =
  { Lattice.rules = cfg.sv_rules; options = cfg.sv_options; cse = cfg.sv_cse }

let cfg_of_point (p : Lattice.point) : cfg =
  { sv_rules = p.Lattice.rules; sv_options = p.Lattice.options; sv_cse = p.Lattice.cse }

let default_cfg = cfg_of_point Lattice.default

(** The canonical lattice string of [cfg]: part of every cache key,
    stored in every image and in every incident's repro. *)
let flags_of (cfg : cfg) : string = Lattice.canonical (point cfg)

let key_of (cfg : cfg) (src : string) : string =
  Cache.key ~flags:(flags_of cfg) src

(* Hermetic compiles ---------------------------------------------------- *)

(* Every name-generating counter that leaks into emitted code (labels,
   CSE temporaries, macro gensyms, node ids in marks) restarts at zero,
   so a file's image is a function of (source, flags) alone — not of
   what the domain compiled before it. *)
let reset_compile_state () =
  Node.reset_counters ();
  S1_transform.Cse.reset_counter ();
  Macroexp.reset_gensym ();
  Gen.reset_label_counter ()

let compiler_of (cfg : cfg) : C.t =
  C.create ~options:cfg.sv_options ~rules:cfg.sv_rules ~cse:cfg.sv_cse ()

(* Recording world ------------------------------------------------------ *)

type recorder = { mutable rc_refs : Image.worldref list; mutable rc_n : int }

let recording_world (rc : recorder) : Gen.world =
  let add r =
    let i = rc.rc_n in
    rc.rc_n <- i + 1;
    rc.rc_refs <- r :: rc.rc_refs;
    Image.sentinel i
  in
  (* nil/t are plain record fields, so they are recorded up front whether
     or not the unit ends up using them; replay of Rnil/Rtrue is a pure
     read with no world effect, so unused entries cost nothing *)
  let nil_word = add Image.Rnil in
  let t_word = add Image.Rtrue in
  {
    Gen.nil_word;
    t_word;
    const_word = (fun s -> add (Image.Rconst s));
    symbol_word = (fun n -> add (Image.Rsym n));
    function_cell = (fun n -> add (Image.Rfun_cell n));
    value_cell = (fun n -> add (Image.Rval_cell n));
    alloc_cell = (fun () -> add Image.Rfresh_cell);
  }

(* Replay the recipe in recording order.  Order matters: interning and
   static allocation have world effects, and reproducing the cold
   compile's exact request sequence is what makes warm worlds
   word-identical to cold ones. *)
let resolve_refs (w : Gen.world) (refs : Image.worldref list) : int array =
  let arr = Array.make (List.length refs) 0 in
  List.iteri
    (fun i r ->
      arr.(i) <-
        (match r with
        | Image.Rnil -> w.Gen.nil_word
        | Image.Rtrue -> w.Gen.t_word
        | Image.Rconst s -> w.Gen.const_word s
        | Image.Rsym n -> w.Gen.symbol_word n
        | Image.Rfun_cell n -> w.Gen.function_cell n
        | Image.Rval_cell n -> w.Gen.value_cell n
        | Image.Rfresh_cell -> w.Gen.alloc_cell ()))
    refs;
  arr

(* Cold capture --------------------------------------------------------- *)

(* Arm a compiler instance so each compiled unit is captured in sentinel
   form (plus recipe) and handed back resolved for normal installation.
   Returns the list that accumulates captured units, newest first. *)
let arm_capture (c : C.t) : Image.unit_img list ref =
  let captured = ref [] in
  let pending = ref None in
  c.C.world_wrap <-
    (fun _real ->
      let rc = { rc_refs = []; rc_n = 0 } in
      pending := Some rc;
      recording_world rc);
  c.C.unit_filter <-
    (fun ~name compiled ->
      match !pending with
      | None -> compiled
      | Some rc ->
          pending := None;
          let refs = List.rev rc.rc_refs in
          let arr = resolve_refs (C.world_of c) refs in
          let prog = Image.subst_program arr compiled.Gen.c_prog in
          let fixups = Image.subst_fixups arr compiled.Gen.c_fixups in
          let u =
            {
              Image.u_name = name;
              u_prog = compiled.Gen.c_prog;
              u_entry = compiled.Gen.c_entry;
              u_min_args = compiled.Gen.c_min_args;
              u_max_args = compiled.Gen.c_max_args;
              u_fixups = compiled.Gen.c_fixups;
              u_refs = refs;
              u_listing = Asm.listing prog;
              u_tn_report = compiled.Gen.c_tn_report;
            }
          in
          captured := u :: !captured;
          { compiled with Gen.c_prog = prog; c_fixups = fixups });
  captured

(* Mirror of {!S1_core.Compiler.eval}'s top-level dispatch: which action
   a form was, given the units its evaluation compiled. *)
let classify (form : Sexp.t) (units : Image.unit_img list) : Image.action =
  match (form, units) with
  | Sexp.List (Sexp.Sym "DEFUN" :: Sexp.Sym _ :: _), [ u ] -> Image.Defun u
  | Sexp.List (Sexp.Sym "DEFMACRO" :: Sexp.Sym name :: Sexp.List _ :: _), [ u ]
    ->
      Image.Defmacro (name, u)
  | Sexp.List [ Sexp.Sym "DEFVAR"; Sexp.Sym name; _ ], [ u ] ->
      Image.Defvar (name, u)
  | ( Sexp.List
        [
          Sexp.Sym "PROCLAIM";
          Sexp.List [ Sexp.Sym "QUOTE"; Sexp.List (Sexp.Sym "SPECIAL" :: names) ];
        ],
      [] ) ->
      Image.Proclaim
        (List.filter_map (function Sexp.Sym n -> Some n | _ -> None) names)
  | _, [ u ] -> Image.Toplevel u
  | _, us ->
      failwith
        (Printf.sprintf "serve: top-level form compiled to %d units" (List.length us))

type exec = { e_value : string; e_output : string; e_cycles : int }

let cycles_of (c : C.t) : int = c.C.rt.Rt.cpu.Cpu.stats.Cpu.cycles

(* Run [f] under a cumulative cycle watchdog when a deadline is set.
   The budget covers every nested simulator run — macroexpanders, DEFVAR
   initializers, toplevel effects — so a unit cannot dodge it by
   spreading work across many small calls. *)
let under_deadline (c : C.t) (deadline : int option) (f : unit -> 'a) : 'a =
  match deadline with
  | None -> f ()
  | Some cycles -> Rt.with_deadline c.C.rt ~cycles f

(* Compile and run a whole file cold, capturing the image as evaluation
   proceeds.  The image embeds the compile's remark journal and counter
   delta — the observability a warm load would otherwise lose.
   [degraded] stamps the image as a retry-ladder fallback (see
   {!Supervise}); it lands both in the envelope and as a remark so
   --remarks and --diff-runs surface the weakened compile. *)
let compile_cold (cfg : cfg) ?(prepare = fun (_ : C.t) -> ()) ?fuel ?deadline
    ?(degraded = "") ~file ~key (src : string) : Image.t * exec =
  reset_compile_state ();
  let c = compiler_of cfg in
  c.C.rt.Rt.fuel <- fuel;
  prepare c;
  let captured = arm_capture c in
  let forms, tab = Reader.parse_string_located ~file src in
  c.C.locs <- Some tab;
  let remark_was = Remark.enabled () in
  Remark.reset ();
  Remark.set_enabled true;
  if degraded <> "" then
    Remark.analysis ~pass:"serve" ~rule:"DEGRADED"
      (Printf.sprintf "compiled at degraded rung %s after retry" degraded);
  let before = Obs.snapshot () in
  Fun.protect
    ~finally:(fun () -> Remark.set_enabled remark_was)
    (fun () ->
      let actions = ref [] in
      let last =
        under_deadline c deadline (fun () ->
            List.fold_left
              (fun _ form ->
                let v = C.eval c form in
                let units = List.rev !captured in
                captured := [];
                actions := classify form units :: !actions;
                v)
              c.C.rt.Rt.nil forms)
      in
      let exec =
        {
          e_value = Rt.print_value c.C.rt last;
          e_output = Rt.output c.C.rt;
          e_cycles = cycles_of c;
        }
      in
      let img =
        {
          Image.i_file = file;
          i_key = key;
          i_flags = flags_of cfg;
          i_degraded = degraded;
          i_actions = List.rev !actions;
          i_remarks = Remark.to_jsonl (Remark.remarks ());
          i_counters = Obs.diff ~before ();
        }
      in
      (img, exec))

(* Warm replay ---------------------------------------------------------- *)

let replay_unit (c : C.t) (u : Image.unit_img) : int =
  let arr = resolve_refs (C.world_of c) u.Image.u_refs in
  let compiled =
    {
      Gen.c_name = u.Image.u_name;
      c_prog = Image.subst_program arr u.Image.u_prog;
      c_entry = u.Image.u_entry;
      c_min_args = u.Image.u_min_args;
      c_max_args = u.Image.u_max_args;
      c_fixups = Image.subst_fixups arr u.Image.u_fixups;
      c_tn_report = u.Image.u_tn_report;
    }
  in
  (* mirror load_lambda's introspection bookkeeping so --annotate and
     --tn-report work identically on cache-loaded units *)
  if c.C.keep_transcript then begin
    c.C.last_listing <- Some u.Image.u_listing;
    c.C.last_tn_report <- Some u.Image.u_tn_report
  end;
  C.install_compiled c ~name:u.Image.u_name compiled

(* Each arm reproduces the world effects of {!S1_core.Compiler.eval} on
   the original form, in the same order. *)
let replay_action (c : C.t) (a : Image.action) : int =
  match a with
  | Image.Defun u ->
      let fobj = replay_unit c u in
      let sym = Rt.intern c.C.rt u.Image.u_name in
      Rt.set_function c.C.rt sym fobj;
      sym
  | Image.Defmacro (name, u) ->
      let fobj = replay_unit c u in
      Hashtbl.replace c.C.macros name fobj;
      Rt.intern c.C.rt name
  | Image.Defvar (name, u) ->
      let sym = Rt.intern c.C.rt name in
      Rt.proclaim_special c.C.rt sym;
      let fobj = replay_unit c u in
      let v = Rt.call c.C.rt fobj [] in
      Rt.set_symbol_value_dynamic c.C.rt sym v;
      sym
  | Image.Proclaim names ->
      List.iter (fun n -> Rt.proclaim_special c.C.rt (Rt.intern c.C.rt n)) names;
      c.C.rt.Rt.nil
  | Image.Toplevel u ->
      let fobj = replay_unit c u in
      Rt.call c.C.rt fobj []

(** Replay a loaded image into an existing compiler's world and return
    the final value word.  Transactional: if any action traps or raises
    mid-replay, the world's symbol and cell state is rewound to the
    pre-load snapshot (static region, code store, obarray, macro table)
    so a failed load is a clean no-op and the caller can retry — e.g.
    fall back to a from-source compile — against an unpolluted world.
    Heap allocations made by partial replay are not rewound; they become
    unreachable garbage once the static roots are restored. *)
let execute_in (c : C.t) (img : Image.t) : int =
  let ws = C.snapshot_world c in
  try
    List.fold_left
      (fun _ a -> replay_action c a)
      c.C.rt.Rt.nil img.Image.i_actions
  with e ->
    C.restore_world c ws;
    raise e

(** Replay a loaded image into a {e fresh} world. *)
let execute (cfg : cfg) ?(prepare = fun (_ : C.t) -> ()) ?fuel ?deadline
    (img : Image.t) : exec =
  let c = compiler_of cfg in
  c.C.rt.Rt.fuel <- fuel;
  prepare c;
  let last = under_deadline c deadline (fun () -> execute_in c img) in
  {
    e_value = Rt.print_value c.C.rt last;
    e_output = Rt.output c.C.rt;
    e_cycles = cycles_of c;
  }

(* Service front door --------------------------------------------------- *)

type result = {
  r_file : string;
  r_key : string;
  r_hit : bool;
  r_image : string;  (** serialized image bytes; [""] if the compile failed *)
  r_outcome : Oracle.outcome;
  r_exec : exec option;  (** populated on normal completion *)
  r_counters : Obs.snapshot;  (** this file's counter delta, for merging *)
  r_trap : Cpu.trap_kind option;
      (** machine trap behind a [Crash] outcome, when there was one —
          the supervisor's retry ladder keys off this *)
  r_loc : S1_loc.Loc.t option;  (** provenance of the faulting instruction *)
}

(* Same structured-outcome discipline as the differential oracle: a Lisp
   condition is an [Error], an engine failure is a [Crash], and nothing
   escapes as a bare exception.  Machine traps additionally surface
   their kind and provenance loc so the supervisor can classify the
   fault (deadline vs. corruption vs. engine bug) without string
   matching. *)
let structured (f : unit -> exec) :
    Oracle.outcome * exec option * (Cpu.trap_kind * S1_loc.Loc.t option) option
    =
  match f () with
  | e -> (Oracle.Value e.e_value, Some e, None)
  | exception Rt.Lisp_error m -> (Oracle.Error m, None, None)
  | exception Rt.Thrown _ -> (Oracle.Error "uncaught throw", None, None)
  | exception S1_frontend.Convert.Convert_error { message; _ } ->
      (Oracle.Error ("convert: " ^ message), None, None)
  | exception Macroexp.Expansion_error { message; _ } ->
      (Oracle.Error ("macro: " ^ message), None, None)
  | exception Gen.Codegen_error m -> (Oracle.Crash ("codegen: " ^ m), None, None)
  | exception Cpu.Trap { kind; pc; message; loc } ->
      ( Oracle.Crash
          (Printf.sprintf "%s trap at pc %d: %s" (Cpu.trap_kind_name kind) pc
             message),
        None,
        Some (kind, loc) )
  | exception C.Strict_failure i ->
      (Oracle.Crash ("strict: " ^ C.incident_to_string i), None, None)
  | exception Stack_overflow -> (Oracle.Crash "compiler stack overflow", None, None)
  | exception e -> (Oracle.Crash (Printexc.to_string e), None, None)

(** Compile-or-load one file through the service: cache lookup by
    content address, cold compile + capture + store on miss, verified
    load + replay on hit.  Runs the program either way and never lets an
    exception escape. *)
let compile_file ?cache ?prepare ?fuel ?deadline ?degraded (cfg : cfg) ~file
    (src : string) : result =
  let t0 = Obs.snapshot () in
  let k = key_of cfg src in
  let cold () =
    let img = ref None in
    let outcome, exec, trap =
      structured (fun () ->
          let i, e =
            compile_cold cfg ?prepare ?fuel ?deadline ?degraded ~file ~key:k src
          in
          img := Some i;
          e)
    in
    match !img with
    | Some i ->
        let bytes = Image.save i in
        Option.iter (fun t -> Cache.store t k bytes) cache;
        (false, bytes, outcome, exec, trap)
    | None -> (false, "", outcome, exec, trap)
  in
  (* host-time spans (no counters) for where a hit's time goes *)
  let hit, bytes, outcome, exec, trap =
    match
      Option.bind cache (fun t -> Obs.with_span "serve.find" (fun () -> Cache.find ~file t k))
    with
    | Some bytes -> (
        match Obs.with_span "serve.decode" (fun () -> Image.load bytes) with
        | Ok img ->
            let outcome, exec, trap =
              structured (fun () ->
                  Obs.with_span "serve.execute" (fun () ->
                      execute cfg ?prepare ?fuel ?deadline img))
            in
            (true, bytes, outcome, exec, trap)
        | Error _ ->
            (* the cache verifies before serving, so this is unreachable;
               degrade to a from-source compile rather than fail *)
            cold ())
    | None -> cold ()
  in
  {
    r_file = file;
    r_key = k;
    r_hit = hit;
    r_image = bytes;
    r_outcome = outcome;
    r_exec = exec;
    r_counters = Obs.diff ~before:t0 ();
    r_trap = Option.map fst trap;
    r_loc = Option.bind trap snd;
  }

(* Batch ---------------------------------------------------------------- *)

(** Compile many files, [jobs] domains wide.  Results come back in input
    order regardless of scheduling, and each worker's counter deltas are
    merged into the calling domain's registry in input order, so every
    observable output is identical for any [jobs]. *)
let batch ?cache ?fuel ?(jobs = 1) (cfg : cfg) (files : string list) :
    result list =
  let files = Array.of_list files in
  let n = Array.length files in
  let results : result option array = Array.make n None in
  let next = Atomic.make 0 in
  let worker () =
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        let file = files.(i) in
        let r =
          match Cache.read_file file with
          | src -> compile_file ?cache ?fuel cfg ~file src
          | exception Sys_error m ->
              {
                r_file = file;
                r_key = "";
                r_hit = false;
                r_image = "";
                r_outcome = Oracle.Crash ("cannot read file: " ^ m);
                r_exec = None;
                r_counters = [];
                r_trap = None;
                r_loc = None;
              }
        in
        results.(i) <- Some r;
        loop ()
      end
    in
    loop ()
  in
  let jobs = max 1 (min jobs (max 1 n)) in
  let domains = List.init jobs (fun _ -> Domain.spawn worker) in
  List.iter Domain.join domains;
  let rs =
    Array.to_list
      (Array.map
         (function Some r -> r | None -> failwith "serve: unprocessed file")
         results)
  in
  List.iter
    (fun r -> List.iter (fun (k, v) -> Obs.incr ~n:v k) r.r_counters)
    rs;
  rs

(* Fuzzing the cache path ----------------------------------------------- *)

type fuzz_failure = {
  z_index : int;
  z_seed : int;
  z_kind : string;
  z_detail : string;
  z_program : string;
}

type fuzz_report = {
  f_seed : int;
  f_count : int;
  f_hits : int;
  f_failures : fuzz_failure list;
}

(** Differential testing over the cache: each seeded program is compiled
    cold through the service, then again so the second run must be served
    from the cache and executed from its image in a fresh world; the
    cache-loaded outcome must agree with the reference interpreter and
    match the cold outcome exactly. *)
let fuzz ?(seed = 1) ?(count = 100) ?cache_dir () : fuzz_report =
  let cache = Cache.create ?dir:cache_dir ~capacity:(max 16 count) () in
  let cfg = default_cfg in
  let hits = ref 0 in
  let failures = ref [] in
  for i = 0 to count - 1 do
    let pseed = seed + i in
    let prog = Genprog.generate ~seed:pseed in
    let src = Genprog.render prog in
    let file = Printf.sprintf "<fuzz-%d>" pseed in
    let record kind detail =
      failures :=
        { z_index = i; z_seed = pseed; z_kind = kind; z_detail = detail;
          z_program = src }
        :: !failures
    in
    let reference = Oracle.run_interp prog.Genprog.pr_forms in
    let r1 = compile_file ~cache ~fuel:Oracle.fuzz_fuel cfg ~file src in
    let r2 = compile_file ~cache ~fuel:Oracle.fuzz_fuel cfg ~file src in
    if r2.r_hit then incr hits
    else if r1.r_image <> "" then
      record "no-hit" "cold run cached an image but the warm run missed";
    if not (Oracle.agree reference r2.r_outcome) then
      record "divergence"
        (Printf.sprintf "interp=%s cached=%s"
           (Oracle.outcome_string reference)
           (Oracle.outcome_string r2.r_outcome));
    if Oracle.outcome_string r1.r_outcome <> Oracle.outcome_string r2.r_outcome
    then
      record "cold-warm"
        (Printf.sprintf "cold=%s warm=%s"
           (Oracle.outcome_string r1.r_outcome)
           (Oracle.outcome_string r2.r_outcome))
  done;
  {
    f_seed = seed;
    f_count = count;
    f_hits = !hits;
    f_failures = List.rev !failures;
  }

let fuzz_summary (r : fuzz_report) : string =
  let b = Buffer.create 256 in
  Printf.bprintf b
    "serve-fuzz: %d programs, seed %d, %d warm hits: %d failure%s\n" r.f_count
    r.f_seed r.f_hits
    (List.length r.f_failures)
    (if List.length r.f_failures = 1 then "" else "s");
  List.iter
    (fun z ->
      Printf.bprintf b "\n--- %s: program %d (seed %d)\n%s\nprogram:\n%s\n"
        z.z_kind z.z_index z.z_seed z.z_detail z.z_program)
    r.f_failures;
  Buffer.contents b
