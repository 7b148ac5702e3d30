(** The compile service: content-addressed caching in front of
    {!S1_core.Compiler}, one file at a time ({!Supervise} runs batches).

    Every path reads a top-level form through
    {!S1_frontend.Convert.toplevel}, does its world effects through
    {!S1_core.Compiler.perform} and installs each unit through
    {!S1_core.Compiler.install}; a compiled unit carries sentinels and
    its world recipe whichever path made it.

    Cold path: {!S1_core.Compiler.compile_form}, the from-source
    compile, whose returned reading (the form with its units) is the
    {!Image} action.

    Warm path: verify and decode the image, then {!replay} it: [perform]
    each action with loaders that install the unit it holds, in a world
    booted for that attempt alone, so nothing is snapshotted and a failed
    replay is simply dropped ({!execute_in} is the transactional form,
    for a caller that keeps its world).  Because the recipe
    replays the exact world-effect sequence of a from-source compile, the
    loaded code is byte-identical — same words, same addresses, same
    cycle counts, same annotate listing (rendered from the installed
    program: an image carries no listing text) — without running a single
    optimization pass.

    All compiler state is either per-instance ({!S1_core.Compiler.t}) or
    domain-local ({!S1_par.Dls}), so concurrent batch workers are
    hermetic; each file's counter delta is carried in its {!result}. *)

module Reader = S1_sexp.Reader
module Cpu = S1_machine.Cpu
module Rt = S1_runtime.Rt
module Node = S1_ir.Node
module Macroexp = S1_frontend.Macroexp
module Rules = S1_transform.Rules
module Gen = S1_codegen.Gen
module C = S1_core.Compiler
module Lattice = S1_core.Lattice
module Obs = S1_obs.Obs
module Remark = S1_obs.Remark
module Oracle = S1_fuzz.Oracle
module Fuzz = S1_fuzz.Fuzz

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

type exec = { e_value : string; e_output : string; e_cycles : int }

let cycles_of (c : C.t) : int = c.C.rt.Rt.cpu.Cpu.stats.Cpu.cycles

let exec_of (c : C.t) (last : int) : exec =
  { e_value = Rt.print_value c.C.rt last; e_output = Rt.output c.C.rt; e_cycles = cycles_of c }

(* Run [f] under a cumulative cycle watchdog when a deadline is set.
   The budget covers every nested simulator run — macroexpanders, DEFVAR
   initializers, toplevel effects — so a unit cannot dodge it by
   spreading work across many small calls. *)
let under_deadline (c : C.t) (deadline : int option) (f : unit -> 'a) : 'a =
  match deadline with
  | None -> f ()
  | Some cycles -> Rt.with_deadline c.C.rt ~cycles f

(* Compile and run a whole file cold, capturing the image as evaluation
   proceeds.  [degraded] stamps the image as a retry-ladder fallback (see
   {!Supervise}); it lands both in the payload and, as a DEGRADED remark,
   in the session's remark journal when remarks are on, so --remarks and
   --diff-runs surface the weakened compile.  An image carries no remarks
   or counters: a warm load reads neither. *)
let compile_cold (cfg : cfg) ?(prepare = fun (_ : C.t) -> ()) ?fuel ?deadline
    ?(degraded = "") ~file ~key (src : string) : Image.t * exec =
  reset_compile_state ();
  let c = compiler_of cfg in
  c.C.rt.Rt.fuel <- fuel;
  prepare c;
  let forms, tab = Reader.parse_string_located ~file src in
  c.C.locs <- Some tab;
  if degraded <> "" then
    Remark.analysis ~pass:"serve" ~rule:"DEGRADED"
      (Printf.sprintf "compiled at degraded rung %s after retry" degraded);
  let actions = ref [] in
  let last =
    under_deadline c deadline (fun () ->
        List.fold_left
          (fun _ form ->
            let v, action = C.compile_form c form in
            actions := action :: !actions;
            v)
          c.C.rt.Rt.nil forms)
  in
  let exec = exec_of c last in
  let img =
    {
      Image.i_file = file;
      i_key = key;
      i_flags = flags_of cfg;
      i_degraded = degraded;
      i_actions = List.rev !actions;
    }
  in
  (img, exec)

(* Warm replay ---------------------------------------------------------- *)

(** Replay a loaded image into [c]'s world: perform each action with
    loaders that install the unit it holds, and return the final value
    word.  Not transactional: an action that traps or raises leaves the
    world with every effect of the actions before it. *)
let replay (c : C.t) (img : Image.t) : int =
  let load u = (u, C.install c u) in
  List.fold_left
    (fun _ a -> fst (C.perform c ~fn:load ~expr:load a))
    c.C.rt.Rt.nil img.Image.i_actions

(** [replay] into a live world the caller keeps.  Transactional: if any
    action traps or raises mid-replay, the world is thawed back to its
    state frozen before the load ({!Rt.freeze}: static region, code
    store, obarray, macro table, gensym counter), so a failed load is a
    clean no-op {e byte for byte} and the caller can retry, e.g. fall
    back to a from-source compile, against an unpolluted world:
    re-interning the same names lands at the same static addresses and
    code origins.  Heap allocations made by the partial replay are not
    rewound; they become unreachable garbage once the static roots are
    restored. *)
let execute_in (c : C.t) (img : Image.t) : int =
  let before = Rt.freeze c.C.rt in
  try replay c img
  with e ->
    Rt.thaw c.C.rt before;
    raise e

(** Replay a loaded image into a {e fresh} world, booted for this call
    and dropped after it, so a failed replay needs no rollback and the
    world is never snapshotted: each attempt of the retry ladder goes
    through {!compile_file}, which boots its own. *)
let execute (cfg : cfg) ?(prepare = fun (_ : C.t) -> ()) ?fuel ?deadline
    (img : Image.t) : exec =
  let c = compiler_of cfg in
  c.C.rt.Rt.fuel <- fuel;
  prepare c;
  exec_of c (under_deadline c deadline (fun () -> replay c img))

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

(* The differential oracle's compiled outcome table
   ({!Oracle.compiled_failure}): nothing escapes as a bare exception.
   Machine traps additionally surface their kind and provenance loc so
   the supervisor can tell the fault apart (deadline vs. corruption vs.
   engine bug) without string matching. *)
let structured (f : unit -> exec) :
    Oracle.outcome * exec option * (Cpu.trap_kind * S1_loc.Loc.t option) option
    =
  match f () with
  | e -> (Oracle.Value e.e_value, Some e, None)
  | exception e ->
      ( Oracle.compiled_failure e,
        None,
        match e with Cpu.Trap { kind; loc; _ } -> Some (kind, loc) | _ -> None )

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

(* Fuzzing the cache path ----------------------------------------------- *)

let fuzz_mode =
  { Fuzz.name = "serve-fuzz"; units = "programs"; finding = "failure"; batch = false }

(** Differential testing over the cache: each seeded program is compiled
    cold through the service, then again so the second run must be served
    from the cache and executed from its image in a fresh world; the
    cache-loaded outcome must agree with the reference interpreter and
    match the cold outcome exactly.  A failure shrinks by re-running
    this cold+warm check on the rendered reduced forms. *)
let fuzz ?(seed = 1) ?(count = 100) ?cache_dir () : Fuzz.report =
  let cache = Cache.create ?dir:cache_dir ~capacity:(max 16 count) () in
  let cfg = default_cfg in
  let hits = ref 0 in
  (* whether the warm run hit, and the failures as (kind, detail) *)
  let cold_warm ~file forms =
    let src = S1_fuzz.Genprog.render_forms forms in
    let reference = Oracle.run_interp forms in
    let r1 = compile_file ~cache ~fuel:Oracle.fuzz_fuel cfg ~file src in
    let r2 = compile_file ~cache ~fuel:Oracle.fuzz_fuel cfg ~file src in
    let cold = Oracle.outcome_string r1.r_outcome
    and warm = Oracle.outcome_string r2.r_outcome in
    ( r2.r_hit,
      List.concat
        [
          (if r2.r_hit || r1.r_image = "" then []
           else [ ("no-hit", "cold run cached an image but the warm run missed") ]);
          (if Oracle.agree reference r2.r_outcome then []
           else
             [ ("divergence",
                Printf.sprintf "interp=%s cached=%s" (Oracle.outcome_string reference) warm) ]);
          (if cold = warm then []
           else [ ("cold-warm", Printf.sprintf "cold=%s warm=%s" cold warm) ]);
        ] )
  in
  let check ~seed forms =
    let file = Printf.sprintf "<fuzz-%d>" seed in
    let hit, found = cold_warm ~file forms in
    if hit then incr hits;
    Fuzz.issues ~probe:(fun forms -> snd (cold_warm ~file forms)) found
  in
  Fuzz.run ~mode:fuzz_mode ~seed ~count ~check ~tally:(fun () ->
      Printf.sprintf "%d warm hits" !hits)
