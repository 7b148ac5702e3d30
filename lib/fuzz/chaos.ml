(** Chaos fault injection: prove the crash-proofing actually proofs.

    Each seeded program gets one injected fault — an exception thrown
    from inside a pass, deliberate IR corruption between a pass and its
    verifier, a starvation-sized heap, or a starvation-sized fuel ration
    — and the harness asserts the machinery's contract:

    - a pass fault produces {e exactly one} [robust.pass_rollback]
      incident, no OCaml exception escapes [Compiler] entry points, and
      the degraded compilation still matches the reference interpreter
      (the {!Oracle} agreement semantics);
    - a resource fault surfaces as a structured outcome (value, Lisp
      error, or {!S1_machine.Cpu.Trap}) and the world remains usable
      afterwards.

    Seed derivation mirrors {!Fuzz}: program [i] of master seed [S] uses
    seed [S + i], so [s1lc --chaos 1 --seed (S + i)] reproduces any
    failure exactly. *)

module Sexp = S1_sexp.Sexp
module Reader = S1_sexp.Reader
module Mem = S1_machine.Mem
module Rt = S1_runtime.Rt
module Node = S1_ir.Node
module C = S1_core.Compiler
module Obs = S1_obs.Obs

(* The injected pass fault; carrying the pass name makes an escaped
   injection self-identifying in failure reports. *)
exception Injected of string

type fault =
  | Pass_raise of string  (** exception from inside the named pass *)
  | Corrupt of string  (** verifier-detectable IR damage after the named pass *)
  | Tiny_heap
  | Tiny_fuel

let fault_name = function
  | Pass_raise p -> "pass-raise:" ^ p
  | Corrupt p -> "corrupt:" ^ p
  | Tiny_heap -> "tiny-heap"
  | Tiny_fuel -> "tiny-fuel"

(* Every guarded pass is a target, through the compiler's one pass hook;
   only the four tree passes leave a tree to corrupt. *)
let tree_passes = [ "simplify"; "cse"; "repan"; "pdlnum" ]

let all_faults =
  List.map (fun p -> Pass_raise p) (tree_passes @ [ "tnbind"; "peephole" ])
  @ List.map (fun p -> Corrupt p) tree_passes
  @ [ Tiny_heap; Tiny_fuel ]

(* The lattice point a pass fault runs under: the pass must actually be
   scheduled for the injection to fire. *)
let config_for = function
  | Pass_raise "cse" | Corrupt "cse" -> Option.get (Oracle.find_config "cse")
  | Pass_raise "peephole" -> Option.get (Oracle.find_config "peephole")
  | _ -> Option.get (Oracle.find_config "default")

(* Structured evaluation: like {!Oracle.run_compiled}, but an exception
   outside {!Oracle.failure}'s table is reported as an untyped escape,
   precisely what crash-proofing promises cannot happen. *)
let eval_structured (c : C.t) (forms : Sexp.t list) : Oracle.outcome * string option =
  match C.eval_print c forms with
  | s -> (Oracle.Value s, None)
  | exception e -> (
      match Oracle.failure ~engine:"compiler" e with
      | Some o -> (o, None)
      | None ->
          let what = Printexc.to_string e in
          (Oracle.Crash what, Some what))

(* Verifier-detectable damage: a duplicated subtree (unique-id violation)
   for the structural stages, an uncoercible ISREP/WANTREP pair for the
   representation stages. *)
let corrupt pass (root : Node.node) : unit =
  match root.Node.kind with
  | Node.Lambda l when pass = "repan" || pass = "pdlnum" ->
      l.Node.l_body.Node.n_isrep <- Node.JUMP;
      l.Node.l_body.Node.n_wantrep <- Node.POINTER
  | Node.Lambda l ->
      let b = l.Node.l_body in
      Node.set_body l (Node.mk (Node.Progn [ b; b ]))
  | _ -> ()

(* A program guaranteed to exhaust a starved heap without touching the
   control stack (tail recursion), and a probe that must still work
   afterwards. *)
let heap_stress =
  "(DEFUN %CHAOS-BUILD (N A) (IF (ZEROP N) A (%CHAOS-BUILD (- N 1) (CONS N A))))\n\
   (%CHAOS-BUILD 100000 (QUOTE ()))"

let probe = "(CONS 1 2)"
let probe_expect = "(1 . 2)"

(* One program, one fault.  Returns failure details, [] when the
   contract held. *)
let check_one ~(fault : fault) (forms : Sexp.t list) : string list =
  match fault with
  | Pass_raise pass | Corrupt pass ->
      let cfg = config_for fault in
      let reference = Oracle.run_interp forms in
      let armed = ref true in
      let hook p root =
        if !armed && p = pass then begin
          armed := false;
          Obs.incr "chaos.faults";
          match fault with Corrupt _ -> corrupt pass root | _ -> raise (Injected pass)
        end
      in
      let before = Obs.count "robust.pass_rollback" in
      let compiled, unstructured =
        let c =
          C.create ~options:cfg.Oracle.cfg_options ~rules:cfg.Oracle.cfg_rules
            ~cse:cfg.Oracle.cfg_cse ()
        in
        c.C.pass_hook <- hook;
        c.C.rt.Rt.fuel <- Some Oracle.fuzz_fuel;
        eval_structured c forms
      in
      let fired = not !armed in
      let rollbacks = Obs.count "robust.pass_rollback" - before in
      let fails = ref [] in
      (match unstructured with
      | Some what -> fails := Printf.sprintf "untyped exception escaped: %s" what :: !fails
      | None -> ());
      if not (Oracle.agree reference compiled) then
        fails :=
          Printf.sprintf "diverged after rollback: interp=%s compiled=%s"
            (Oracle.outcome_string reference)
            (Oracle.outcome_string compiled)
          :: !fails;
      let expected = if fired then 1 else 0 in
      if rollbacks <> expected then
        fails :=
          Printf.sprintf "expected %d rollback incident(s), observed %d" expected rollbacks
          :: !fails;
      List.rev !fails
  | Tiny_heap | Tiny_fuel ->
      let c, restore =
        match fault with
        | Tiny_heap ->
            let config = { Mem.default_config with Mem.heap_words = 4096 } in
            (C.create ~config (), fun (c : C.t) -> c.C.rt.Rt.fuel <- None)
        | _ ->
            let c = C.create () in
            c.C.rt.Rt.fuel <- Some 50_000;
            (c, fun (c : C.t) -> c.C.rt.Rt.fuel <- None)
      in
      Obs.incr "chaos.faults";
      let fails = ref [] in
      let structured what (outcome, unstructured) =
        match unstructured with
        | Some e -> fails := Printf.sprintf "%s: untyped exception escaped: %s" what e :: !fails
        | None -> ignore outcome
      in
      structured "program" (eval_structured c forms);
      (* force the resource fault even when the generated program is too
         modest to hit the limit *)
      (match fault with
      | Tiny_heap -> structured "stress" (eval_structured c (Reader.parse_string heap_stress))
      | _ -> structured "stress" (eval_structured c (Reader.parse_string "(%CHAOS-SPIN)")));
      (* lift the starvation and demand a working world *)
      restore c;
      (match eval_structured c (Reader.parse_string probe) with
      | Oracle.Value v, None when v = probe_expect -> ()
      | outcome, _ ->
          fails :=
            Printf.sprintf "world unusable after fault: probe gave %s"
              (Oracle.outcome_string outcome)
            :: !fails);
      List.rev !fails

let mode =
  { Fuzz.name = "chaos"; units = "programs"; finding = "contract violation"; batch = false }

(** One fault per program, drawn from its seed alone, so a shrunk
    program keeps the fault the seed drew; a program's violations make
    one finding whose kind is the fault. *)
let run ~seed ~count () : Fuzz.report =
  let check ~seed forms =
    let fault = Prng.choose (Prng.create ((seed * 2) + 1)) all_faults in
    Obs.incr "chaos.programs";
    let found = function
      | [] -> []
      | fails -> [ (fault_name fault, String.concat "\n" fails) ]
    in
    let fails = check_one ~fault forms in
    if fails <> [] then Obs.incr ~n:(List.length fails) "chaos.failures";
    Fuzz.issues ~probe:(fun forms -> found (check_one ~fault forms)) (found fails)
  in
  Fuzz.run ~mode ~seed ~count ~check ~tally:(fun () ->
      Printf.sprintf "%d faults injected" count)

(* Batch faults ---------------------------------------------------------- *)

(* Fault plan for supervised batch runs ({!S1_serve.Supervise}): each
   unit of a chaos batch draws at most one fault, derived from (seed,
   index) alone so two runs with the same seed inject the identical
   fault sequence — the acceptance bar for the chaos smoke is that such
   runs produce byte-identical incident journals. *)

exception Worker_kill
(** Simulated worker-domain death: raised from inside a batch unit,
    deliberately outside the structured-outcome taxonomy so only the
    supervisor's crash isolation can contain it. *)

type batch_fault =
  | Bnone
  | Bkill  (** raise {!Worker_kill} from inside the unit *)
  | Bdeadline  (** starvation-sized cycle deadline on the first attempt *)
  | Bcorrupt  (** flip bytes in the unit's cached blob before lookup *)

let batch_fault_name = function
  | Bnone -> "unfaulted"
  | Bkill -> "worker-kill"
  | Bdeadline -> "deadline"
  | Bcorrupt -> "blob-corrupt"

(** The fault unit [index] draws under master [seed].  Roughly half the
    units run fault-free so the smoke can also assert non-interference:
    unfaulted units must come out byte-identical to a fault-free run. *)
let batch_fault_for ~seed ~index : batch_fault =
  let r = Prng.create ((seed * 0x9e3779b9) lxor (index * 2 + 1)) in
  if Prng.chance r 1 2 then Bnone
  else Prng.choose r [ Bkill; Bdeadline; Bcorrupt ]

(** Flip one byte in the middle of a cached blob on disk, in place —
    the torn/corrupt-write the cache's quarantine path must absorb.
    No-op if the blob does not exist. *)
let corrupt_blob (path : string) : unit =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error _ -> ()
  | bytes when String.length bytes = 0 -> ()
  | bytes ->
      let b = Bytes.of_string bytes in
      let i = Bytes.length b / 2 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x5a));
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_bytes oc b)
