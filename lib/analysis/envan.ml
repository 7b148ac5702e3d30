(** Environment analysis (paper Table 1).

    "For each subtree, determine the sets of variables read and written
    within that subtree.  For each variable binding, attach a list of all
    referent nodes."

    The optimizer asks its questions of a variable, not of a subtree: is
    it bound, is it ever assigned, where is it read.  So the analysis
    keeps only the back-pointer lists ([v_refs], [v_setqs], [v_binder]),
    rebuilt over the whole tree by {!backrefs}; a subtree's read and
    written sets are the variables whose lists point into it. *)

open S1_ir
open Node

(* A variable's lists restart at its first occurrence in the walk; the
   lists it had before are kept in [before] to be compared afterwards. *)
let restart before v =
  if not v.v_seen then begin
    v.v_seen <- true;
    before := (v, v.v_setqs, v.v_binder) :: !before;
    v.v_refs <- [];
    v.v_setqs <- []
  end

let rec bind before binder = function
  | [] -> ()
  | p :: ps ->
      let v = p.p_var in
      restart before v;
      (match v.v_binder with Some b when b == binder -> () | _ -> v.v_binder <- Some binder);
      bind before binder ps

let same_binder a b =
  match (a, b) with Some x, Some y -> x == y | None, None -> true | _ -> false

(* Rebuild the back-pointers of every variable the tree mentions.  The
   optimizer reads a variable's facts at its references ([timeless]
   asks whether it is bound and never assigned), so when a variable's
   assignments or binder change, its references and assignments are
   marked changed: the next refresh re-derives the subtrees above them
   and the next sweep revisits them. *)
let backrefs (root : node) : unit =
  let before = ref [] in
  iter
    (fun n ->
      match n.kind with
      | Var v ->
          restart before v;
          add_ref v n
      | Setq (v, _) ->
          restart before v;
          add_setq v n
      | Lambda l -> bind before n l.l_params
      | _ -> ())
    root;
  List.iter
    (fun (v, setqs, binder) ->
      v.v_seen <- false;
      if not (List.equal ( == ) setqs v.v_setqs && same_binder binder v.v_binder) then
        mark_uses v)
    !before
