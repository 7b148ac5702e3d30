(** The seeded campaign driver: generate N seeded programs, check each
    one, shrink every finding, and report — for every campaign s1lc
    runs ([--fuzz], [--chaos], [--serve-fuzz], [--serve-chaos]).

    Seed derivation: program [i] of a run with master seed [S] is
    generated from seed [S + i] ({!programs}), so any finding of a
    per-program campaign is reproducible in one command —
    [s1lc --<mode> 1 --seed (S + i)] regenerates exactly the failing
    program and re-checks it.

    A campaign is a {!mode} (the words of its summary line) and a
    check: for one program, the findings it raises, each with a way to
    re-run that same check on reduced forms.  {!run} shrinks every
    finding with {!Shrink.shrink}, using that re-check as the predicate,
    and reports the shrunk program's detail.  The lattice campaign
    ({!lattice}) is this module's own; {!Chaos}, the compile service's
    cache fuzz and its chaos batch bring theirs.

    The report (schema [s1lisp.fuzz/2]) names its mode and contains no
    wall-clock fields: same seed and same campaign imply a
    byte-identical report. *)

module Sexp = S1_sexp.Sexp
module Obs = S1_obs.Obs
module Json = S1_obs.Obs.Json

(** The per-mode words of a campaign's summary line. *)
type mode = {
  name : string;  (** the s1lc flag without its dashes: "fuzz" *)
  units : string;  (** what a run counts: "programs" *)
  finding : string;  (** what a finding is called: "divergence" *)
  batch : bool;
      (** the check runs over the whole batch, so a finding reproduces
          only with the whole run, not with its program's seed alone *)
}

(** One thing a check found wrong with one program. *)
type issue = {
  kind : string;
  detail : string;
  recheck : Sexp.t list -> string option;
      (** the same check on reduced forms: [Some detail] while they
          still fail it this way *)
}

type finding = {
  f_index : int;  (** which program of the run *)
  f_seed : int;  (** the derived seed: [--<mode> 1 --seed f_seed] reproduces *)
  f_kind : string;
  f_detail : string;  (** of the shrunk program, when there is one *)
  f_program : string;  (** full generated program; "" for a batch-wide finding *)
  f_shrunk : string;  (** delta-debugged local minimum; "" when not shrunk *)
  f_shrink_steps : int;
}

type report = {
  r_mode : mode;
  r_seed : int;
  r_count : int;
  r_tally : string;  (** "8 lattice points", "200 warm hits" *)
  r_findings : finding list;
}

let schema = "s1lisp.fuzz/2"

(** The programs of a run: index, derived seed, program. *)
let programs ~seed ~count : (int * int * Genprog.program) Seq.t =
  Seq.init count (fun i -> (i, seed + i, Genprog.generate ~seed:(seed + i)))

(** Issues from a probe that reports (kind, detail) pairs: each re-runs
    the probe on reduced forms and holds while its kind recurs. *)
let issues ~(probe : Sexp.t list -> (string * string) list) found : issue list =
  List.map
    (fun (kind, detail) ->
      { kind; detail; recheck = (fun forms -> List.assoc_opt kind (probe forms)) })
    found

let run ~mode ~seed ~count ~(tally : unit -> string)
    ~(check : seed:int -> Sexp.t list -> issue list) : report =
  let findings = ref [] in
  Seq.iter
    (fun (index, pseed, prog) ->
      let forms = prog.Genprog.pr_forms in
      List.iter
        (fun i ->
          let still_fails forms = i.recheck forms <> None in
          let shrunk, steps = Shrink.shrink ~still_fails forms in
          findings :=
            {
              f_index = index;
              f_seed = pseed;
              f_kind = i.kind;
              f_detail = Option.value (i.recheck shrunk) ~default:i.detail;
              f_program = Genprog.render prog;
              f_shrunk = Genprog.render_forms shrunk;
              f_shrink_steps = steps;
            }
            :: !findings)
        (check ~seed:pseed forms))
    (programs ~seed ~count);
  { r_mode = mode; r_seed = seed; r_count = count; r_tally = tally ();
    r_findings = List.rev !findings }

(* The lattice campaign ------------------------------------------------------- *)

let lattice_mode = { name = "fuzz"; units = "programs"; finding = "divergence"; batch = false }

(** Differential fuzzing: every program through the interpreter and
    compiled at each of [configs].  A divergence shrinks against its
    own lattice point only: the reduced program must still split
    interpreter and compiled outcomes there. *)
let lattice ?(configs = Oracle.lattice) ?(compile_prep = fun forms -> forms) ~seed ~count ()
    : report =
  let detail cfg (d : Oracle.divergence) =
    Printf.sprintf "interpreter: %s\ncompiled:    %s%s"
      (Oracle.outcome_string d.Oracle.d_interp)
      (Oracle.outcome_string d.Oracle.d_compiled)
      (if cfg.Oracle.cfg_flags = "" then ""
       else "\nby hand: s1lc " ^ cfg.Oracle.cfg_flags ^ " ...")
  in
  let check ~seed:_ forms =
    Obs.incr "fuzz.programs";
    List.map
      (fun (d : Oracle.divergence) ->
        Obs.incr "fuzz.divergences";
        let cfg = List.find (fun c -> c.Oracle.cfg_name = d.Oracle.d_config) configs in
        let recheck forms =
          match Oracle.check ~configs:[ cfg ] ~compile_prep forms with
          | d :: _ -> Some (detail cfg d)
          | [] -> None
        in
        { kind = Oracle.kind_of d ^ " at " ^ d.Oracle.d_config; detail = detail cfg d;
          recheck })
      (Oracle.check ~configs ~compile_prep forms)
  in
  run ~mode:lattice_mode ~seed ~count ~check ~tally:(fun () ->
      Printf.sprintf "%d lattice points" (List.length configs))

(* Rendering ------------------------------------------------------------------ *)

let repro (r : report) (f : finding) : string =
  let count, seed = if r.r_mode.batch then (r.r_count, r.r_seed) else (1, f.f_seed) in
  Printf.sprintf "s1lc --%s %d --seed %d" r.r_mode.name count seed

let finding_json r (f : finding) : Json.t =
  Json.Obj
    [
      ("index", Json.Int f.f_index);
      ("seed", Json.Int f.f_seed);
      ("kind", Json.Str f.f_kind);
      ("detail", Json.Str f.f_detail);
      ("program", Json.Str f.f_program);
      ("shrunk", Json.Str f.f_shrunk);
      ("shrink_steps", Json.Int f.f_shrink_steps);
      ("repro", Json.Str (repro r f));
    ]

let json (r : report) : Json.t =
  Json.Obj
    [
      ("schema", Json.Str schema);
      ("mode", Json.Str r.r_mode.name);
      ("seed", Json.Int r.r_seed);
      (r.r_mode.units, Json.Int r.r_count);
      ("tally", Json.Str r.r_tally);
      ("findings", Json.Arr (List.map (finding_json r) r.r_findings));
    ]

let summary (r : report) : string =
  let b = Buffer.create 256 in
  let n = List.length r.r_findings in
  Printf.bprintf b "%s: %d %s, seed %d, %s: %d %s%s\n" r.r_mode.name r.r_count r.r_mode.units
    r.r_seed r.r_tally n r.r_mode.finding
    (if n = 1 then "" else "s");
  List.iter
    (fun f ->
      if f.f_program = "" then Printf.bprintf b "\n--- %s: %s\n" r.r_mode.finding f.f_kind
      else
        Printf.bprintf b "\n--- %s: program %d (seed %d), %s\n" r.r_mode.finding f.f_index
          f.f_seed f.f_kind;
      Printf.bprintf b "%s\n" f.f_detail;
      if f.f_shrunk <> "" then
        Printf.bprintf b "shrunk program (%d shrink steps):\n%s\n" f.f_shrink_steps f.f_shrunk
      else if f.f_program <> "" then Printf.bprintf b "program:\n%s\n" f.f_program;
      Printf.bprintf b "reproduce: %s\n" (repro r f))
    r.r_findings;
  Buffer.contents b
