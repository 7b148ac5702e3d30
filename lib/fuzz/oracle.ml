(** The differential oracle: evaluate one program under the reference
    interpreter and under compiled execution on the simulated S-1, at
    every point of the optimization lattice, and compare printed
    results.

    Agreement semantics (shared with the test suite's property tests): a
    generated program may still be erroneous (type confusion the grammar
    cannot exclude); errors in this dialect are "is an error"
    situations, not guaranteed signals, and the optimizer may
    legitimately delete an unused pure-but-failing computation.  So when
    the interpreter signals, any compiled outcome is acceptable; when
    the interpreter yields a value, the compiled program must yield the
    same printed value — a compiled error, simulator trap, or codegen
    crash on an interpreter success is a divergence. *)

module Sexp = S1_sexp.Sexp
module C = S1_core.Compiler
module Lattice = S1_core.Lattice
module Rt = S1_runtime.Rt
module I = S1_interp.Interp
module Rules = S1_transform.Rules
module GenO = S1_codegen.Gen
module Obs = S1_obs.Obs

type outcome =
  | Value of string  (** normal completion; printed final value *)
  | Error of string  (** Lisp-level error (wrong type, unbound, throw without catch) *)
  | Crash of string  (** OCaml-level failure: codegen crash, simulator trap, fuel *)

type config = {
  cfg_name : string;
  cfg_flags : string;  (** the s1lc flags reproducing this configuration by hand *)
  cfg_rules : Rules.config;
  cfg_options : GenO.options;
  cfg_cse : bool;
}

(* The lattice: full optimization, no optimization, each Gen.options
   ablation flipped individually, the §4.5 peephole extension, and the
   §4.3 CSE extension.  Each point is its s1lc flag string, parsed by
   the CLI's own parser, so the repro line is right by construction.
   Every future perf toggle belongs in this list — membership is what
   certifies it. *)
let lattice : config list =
  List.map
    (fun cfg_flags ->
      let p = Lattice.of_string cfg_flags in
      {
        cfg_name =
          (match cfg_flags with
          | "" -> "default"
          | f -> String.sub f 2 (String.length f - 2));
        cfg_flags;
        cfg_rules = p.Lattice.rules;
        cfg_options = p.Lattice.options;
        cfg_cse = p.Lattice.cse;
      })
    [ ""; "--no-opt"; "--no-tnbind"; "--no-pdl"; "--no-cache-specials"; "--no-inline-prims";
      "--peephole"; "--cse" ]

let find_config name = List.find_opt (fun c -> c.cfg_name = name) lattice

(* A miscompiled (or shrink-mangled) loop must surface as a finding or a
   skip, not a hang: cap both executions well above anything a generated
   program needs.  Generated programs are bounded by construction, but
   shrink candidates are arbitrary mutations — replacing (- N 1) with N
   turns a bounded recursion into an infinite one, and only fuel stops
   it. *)
let fuzz_fuel = 20_000_000 (* simulator cycles per top-level call *)
let interp_fuel = 2_000_000 (* interpreter evaluation steps per program *)

(* How a run that raised ends, by exception: the one table both engines'
   failures are read through, here and in the compile service.  A Lisp
   condition is an [Error], an engine failure a [Crash]; [engine] names
   whose stack overflowed.  [None] for an exception no engine raises by
   design. *)
let failure ~engine (e : exn) : outcome option =
  match e with
  | Rt.Lisp_error m -> Some (Error m)
  | Rt.Thrown _ -> Some (Error "uncaught throw")
  | S1_frontend.Convert.Convert_error { message; _ } -> Some (Error ("convert: " ^ message))
  | S1_frontend.Macroexp.Expansion_error { message; _ } -> Some (Error ("macro: " ^ message))
  | I.Fuel_exhausted -> Some (Error "interpreter fuel exhausted")
  | S1_codegen.Gen.Codegen_error m -> Some (Crash ("codegen: " ^ m))
  | S1_machine.Cpu.Trap { kind; pc; message; _ } ->
      Some
        (Crash
           (Printf.sprintf "%s trap at pc %d: %s" (S1_machine.Cpu.trap_kind_name kind) pc
              message))
  | C.Strict_failure i -> Some (Crash ("strict: " ^ C.incident_to_string i))
  | Stack_overflow -> Some (Crash (engine ^ " stack overflow"))
  | _ -> None

(** An interpreter failure's outcome.  The interpreter is the reference,
    so an exception outside {!failure}'s table is re-raised. *)
let interp_failure (e : exn) : outcome =
  match failure ~engine:"interpreter" e with Some o -> o | None -> raise e

(** A compiled failure's outcome; an exception outside the table is a
    crash. *)
let compiled_failure (e : exn) : outcome =
  match failure ~engine:"compiler" e with
  | Some o -> o
  | None -> Crash (Printexc.to_string e)

let run_interp (forms : Sexp.t list) : outcome =
  let it = I.boot () in
  it.I.fuel <- interp_fuel;
  match List.fold_left (fun _ f -> I.eval_sexp it f) it.I.rt.Rt.nil forms with
  | w -> Value (Rt.print_value it.I.rt w)
  | exception e -> interp_failure e

let run_compiled (cfg : config) (forms : Sexp.t list) : outcome =
  let c = C.create ~options:cfg.cfg_options ~rules:cfg.cfg_rules ~cse:cfg.cfg_cse () in
  c.C.rt.Rt.fuel <- Some fuzz_fuel;
  match C.eval_print c forms with s -> Value s | exception e -> compiled_failure e

(* Printed-value agreement.  Exact string equality, with one carve-out:
   this dialect's meta-evaluation canonicalizes associative float
   arithmetic — (+$F A B C) becomes (+$F (+$F C B) A), the paper's §7
   transcript — so compiled float results may differ from the
   interpreter's left-to-right fold by a few last-place roundings.
   That reordering is the specified behavior (the transform tests pin
   it), not a miscompilation, so two finite nonzero floats of the same
   sign agree when their relative difference is at most 2^-18: a
   36-bit single carries 27 significand bits and each rounding
   contributes at most 2^-27 relative error, so even hundreds of
   reassociated operations stay well inside the bound, while genuine
   bugs (stale operand, tagged word read as float) land far outside
   it.  Zeros must match exactly — a signed-zero regression
   (fuzz-found once already) stays visible — and integer strings never
   take this path, fixnum arithmetic being exact. *)
let values_agree (v1 : string) (v2 : string) : bool =
  let float_like s = String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s in
  v1 = v2
  || float_like v1 && float_like v2
     &&
     match (float_of_string_opt v1, float_of_string_opt v2) with
     | Some a, Some b ->
         Float.is_finite a && Float.is_finite b
         && a <> 0.0 && b <> 0.0
         && (a > 0.0) = (b > 0.0)
         && Float.abs (a -. b) <= ldexp (Float.max (Float.abs a) (Float.abs b)) (-18)
     | _ -> false

let agree (interp : outcome) (compiled : outcome) : bool =
  match (interp, compiled) with
  | Value v1, Value v2 -> values_agree v1 v2
  | Value _, (Error _ | Crash _) -> false
  | (Error _ | Crash _), _ -> true

type divergence = {
  d_config : string;
  d_interp : outcome;
  d_compiled : outcome;
}

let kind_of (d : divergence) : string =
  match d.d_compiled with
  | Value _ -> "mismatch"
  | Error _ -> "compiled-error"
  | Crash _ -> "compiled-crash"

let outcome_string = function
  | Value s -> s
  | Error m -> "<error: " ^ m ^ ">"
  | Crash m -> "<crash: " ^ m ^ ">"

(** Check one program against [configs] (default: the whole lattice).
    [compile_prep] transforms the forms handed to the compiled side only
    — the identity in production; tests inject a deliberate
    miscompilation through it to prove the oracle can see one. *)
let check ?(configs = lattice) ?(compile_prep = fun forms -> forms)
    (forms : Sexp.t list) : divergence list =
  let reference = run_interp forms in
  (match reference with
  | Error _ | Crash _ -> Obs.incr "fuzz.interp_errors"
  | Value _ -> ());
  List.filter_map
    (fun cfg ->
      let compiled = run_compiled cfg (compile_prep forms) in
      if agree reference compiled then None
      else Some { d_config = cfg.cfg_name; d_interp = reference; d_compiled = compiled })
    configs
