(** Side-effects analysis (paper Table 1).

    "For each subtree, classify the possible side-effects produced by its
    execution, and the side-effects that might adversely affect such
    execution."

    The classification is the {!Node.effects} record, computed bottom-up
    from the primitive table, one node at a time from its children's
    ({!node}).  A call to an unknown (user-defined) function is assumed
    to do anything; a call to a known primitive gets
    the table's classification.  A [lambda] {e expression} itself has
    only an allocation effect (closure creation) — its body's effects
    happen at call time, not at evaluation time. *)

open S1_ir
open Node
module Prims = S1_frontend.Prims

let unknown_effects =
  { eff_alloc = true; eff_write = true; eff_unknown_call = true; eff_control = true;
    eff_special = true }

let special_only = { no_effects with eff_special = true }
let write_only = { no_effects with eff_write = true }
let alloc_only = { no_effects with eff_alloc = true }
let control_only = { no_effects with eff_control = true }

let join_node acc (c : node) = join_effects acc c.n_effects

(* One node's classification from its children's. *)
let node (n : node) : unit =
  let merged = fold_children join_node no_effects n in
  let eff =
    match n.kind with
    | Term _ -> no_effects
    | Var v -> if v.v_special || v.v_binder = None then special_only else no_effects
    | Setq (v, _) ->
        if v.v_special || v.v_binder = None then join_effects merged special_only
        else join_effects merged write_only
    | Lambda l ->
        (* Only defaults evaluated at binding time contribute; the body
           runs later.  Closure creation may allocate. *)
        join_effects (fold_defaults join_node no_effects l.l_params) alloc_only
    | Call (f, _) -> (
        match f.kind with
        | Term (S1_sexp.Sexp.Sym fname) -> (
            match Prims.find fname with
            | Some p ->
                let call_eff =
                  {
                    eff_alloc = p.Prims.may_alloc;
                    eff_write = not p.Prims.pure;
                    eff_unknown_call = false;
                    eff_control = p.Prims.transfers_control;
                    eff_special = false;
                  }
                in
                join_effects merged call_eff
            | None -> join_effects merged unknown_effects)
        | Lambda l ->
            (* Manifest lambda call: the body executes now. *)
            join_effects merged l.l_body.n_effects
        | _ -> join_effects merged unknown_effects)
    | Go _ | Return _ -> join_effects merged control_only
    | Catcher _ | Progbody _ ->
        (* the catch consumes control effects of its body; go/return
           targeting a progbody are internal *)
        if merged.eff_control then { merged with eff_control = false } else merged
    | If _ | Progn _ | Caseq _ -> merged
  in
  n.n_effects <- eff

(* Convenience judgements used by the optimizer ------------------------------ *)

(* May this expression be deleted if its value is unused?  (allocation may
   be eliminated but not duplicated — paper §5) *)
let deletable (n : node) =
  let e = n.n_effects in
  (not e.eff_write) && (not e.eff_unknown_call) && (not e.eff_control) && not e.eff_special

(* May this expression be duplicated / evaluated a different number of
   times?  Allocation must not be duplicated when the result is consed
   into visible structure, but duplicating a fresh allocation is safe only
   if eq-ness is not observable; we take the paper's conservative line:
   no duplication when it allocates. *)
let duplicable (n : node) = deletable n && not n.n_effects.eff_alloc

(* Does evaluation observe any state a side effect could touch: a
   variable (lexical or special) or anything behind an unknown call?
   Prim calls over read-free operands are read-free — (CAR (CONS 1 2))
   inspects only structure younger than the expression itself.  A
   lambda expression counts its body: closure creation copies captured
   values into the environment vector. *)
let rec reads_anything (n : node) =
  match n.kind with
  | Term _ -> false
  | Var _ -> true
  | Setq _ -> true
  | Call ({ kind = Term (S1_sexp.Sexp.Sym fname); _ }, _) -> (
      match Prims.find fname with
      | Some _ -> any_child_reads n
      | None -> true)
  | Call _ -> true
  | _ -> any_child_reads n

and any_child_reads n = fold_children (fun found c -> found || reads_anything c) false n

(* Does evaluation store into any state another expression could
   observe: a SETQ (lexical or special), a special rebinding, or
   anything behind an unknown call?  [eff_special] alone cannot answer
   this — it covers reads as well as writes of specials (and every
   free-variable reference) — so when only it is set we scan for the
   writing forms syntactically. *)
let rec scan_writes (m : node) =
  match m.kind with
  | Setq (v, e') -> v.v_special || v.v_binder = None || scan_writes e'
  | Lambda l ->
      (* only binding-time defaults evaluate now; the body later *)
      fold_defaults (fun found d -> found || scan_writes d) false l.l_params
  | Call ({ kind = Lambda l; _ }, args) ->
      (* an open-coded binding of a special rebinds it: a write *)
      List.exists (fun p -> p.p_var.v_special) l.l_params
      || List.exists scan_writes args || scan_writes l.l_body
  | _ -> fold_children (fun found c -> found || scan_writes c) false m

let writes_anything (n : node) =
  let e = n.n_effects in
  e.eff_write || e.eff_unknown_call || (e.eff_special && scan_writes n)

(* May evaluation of [a] be exchanged with evaluation of [b]?  Reads
   exchange freely with reads; a write only exchanges with an
   expression that observes nothing (a pure expression that merely
   reads a variable must not move across a SETQ of it — found by the
   differential fuzzer when assoc canonicalization reversed the
   operands of a multiply whose first operand was a SETQ and whose
   last read the same variable).  Control transfers and unknown calls
   exchange with nothing: which THROW wins is observable.  Write/write
   conflicts fall out of the write/observe test because every writing
   form also counts as observing (SETQ delivers the value it read or
   computed). *)
let commutable (a : node) (b : node) =
  let ctrl (n : node) = n.n_effects.eff_control || n.n_effects.eff_unknown_call in
  (not (ctrl a)) && (not (ctrl b))
  && ((not (writes_anything a)) || not (reads_anything b))
  && ((not (writes_anything b)) || not (reads_anything a))
