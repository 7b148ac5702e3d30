(** Environment analysis (paper Table 1).

    "For each subtree, determine the sets of variables read and written
    within that subtree.  For each variable binding, attach a list of all
    referent nodes."

    Fills [n_free] (variables read) and [n_written] (variables assigned)
    one node at a time from its children's sets ({!node}), and rebuilds
    every variable's back-pointer lists ([v_refs], [v_setqs],
    [v_binder]) over the whole tree ({!backrefs}). *)

open S1_ir
open Node

let union a b = List.fold_left (fun acc v -> if List.memq v acc then acc else v :: acc) a b
let remove vs a = List.filter (fun v -> not (List.memq v vs)) a

let node (n : node) : unit =
  let free = ref [] and written = ref [] in
  iter_children
    (fun c ->
      free := union !free c.n_free;
      written := union !written c.n_written)
    n;
  let free = !free and written = !written in
  match n.kind with
  | Var v ->
      n.n_free <- [ v ];
      n.n_written <- []
  | Setq (v, _) ->
      n.n_free <- free;
      n.n_written <- union [ v ] written
  | Lambda l ->
      let bound = List.map (fun p -> p.p_var) l.l_params in
      n.n_free <- remove bound free;
      n.n_written <- remove bound written
  | _ ->
      n.n_free <- free;
      n.n_written <- written

(* Rebuild the back-pointers of every variable the tree mentions.  The
   optimizer reads a variable's facts at its references ([timeless]
   asks whether it is bound and never assigned), so when a variable's
   assignments or binder change, its references and assignments are
   marked changed: the next refresh re-derives the subtrees above them
   and the next sweep revisits them. *)
let backrefs (root : node) : unit =
  let before : (int, var * node list * node option) Hashtbl.t = Hashtbl.create 16 in
  (* a variable's lists restart at its first occurrence in the walk *)
  let restart v =
    if not (List.exists (fun (v', _, _) -> v' == v) (Hashtbl.find_all before v.v_id)) then begin
      Hashtbl.add before v.v_id (v, v.v_setqs, v.v_binder);
      v.v_refs <- [];
      v.v_setqs <- []
    end
  in
  iter
    (fun n ->
      match n.kind with
      | Var v ->
          restart v;
          add_ref v n
      | Setq (v, _) ->
          restart v;
          add_setq v n
      | Lambda l ->
          List.iter
            (fun p ->
              restart p.p_var;
              p.p_var.v_binder <- Some n)
            l.l_params
      | _ -> ())
    root;
  let same_binder a b =
    match (a, b) with Some x, Some y -> x == y | None, None -> true | _ -> false
  in
  Hashtbl.iter
    (fun _ (v, setqs, binder) ->
      if not (List.equal ( == ) setqs v.v_setqs && same_binder binder v.v_binder) then
        mark_uses v)
    before
