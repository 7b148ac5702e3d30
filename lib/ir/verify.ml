(** Structural IR well-formedness checking.

    Run by the pass guard after every tree-transforming pass: a pass that
    produced a tree violating the invariants below is rolled back rather
    than allowed to feed garbage to code generation.  Checks are
    cumulative by stage — the representation checks only make sense once
    {!S1_rep.Repan} has annotated the tree, the pdl-nesting check once
    {!S1_rep.Pdlnum} has run.  (TN resolution is not a tree property:
    TNs are assigned inside code generation, whose own guard falls back
    to naive packing, so it is enforced there.)

    The verifier {e reports}, it never raises: diagnostics are typed
    values carrying the offending node and its source position, so the
    driver can log an incident and degrade, and [--strict] can turn the
    same data into a hard error. *)

open Node

type stage = After_simplify | After_cse | After_repan | After_pdlnum

(* Which cumulative check groups apply at a stage. *)
let reps_annotated = function After_repan | After_pdlnum -> true | _ -> false
let pdl_annotated = function After_pdlnum -> true | _ -> false

type diag = {
  d_rule : string;  (** stable kebab-case rule name *)
  d_node : int;  (** [n_id] of the offending node *)
  d_loc : S1_loc.Loc.t option;
  d_msg : string;
}

let diag_to_string d =
  let where = match d.d_loc with Some l -> S1_loc.Loc.to_string l ^ ": " | None -> "" in
  Printf.sprintf "%s[%s] node %d: %s" where d.d_rule d.d_node d.d_msg

(* Stamp arrays, domain-local and reused from run to run: a slot holds
   the number of the run that last stamped it, so a run starts clean
   without clearing anything.  Node slots are indexed from the census's
   lowest node id, variable slots from its lowest parameter id, so the
   arrays grow to the largest tree verified, not with the id wells. *)
type stamps = {
  mutable run : int;
  mutable seen : int array;  (** node visited *)
  mutable path : int array;  (** node is an ancestor of the one visited *)
  mutable bound : int array;  (** variable bound by some lambda of the tree *)
  mutable depth : int array;  (** lambdas binding it around the visit, once bound *)
}

let stamps_key =
  S1_par.Dls.create (fun () -> { run = 0; seen = [||]; path = [||]; bound = [||]; depth = [||] })

let fit a n = if Array.length a >= n then a else Array.make (max n (2 * Array.length a)) 0

(* One preorder walk checks every rule; each rule's diagnostics come out
   in preorder and the groups in the order below, unique ids first.

   - Unique node ids: a pass that splices one node into two positions has
     created accidental sharing — rewrites through one path would
     silently edit the other.
   - Lexical scope discipline: every Var/Setq of a lexical variable must
     sit inside the subtree of the Lambda that binds it; every Go must
     name a tag of an enclosing progbody, every Return must have one.
     Tags and progbodies deliberately pass through Lambda boundaries:
     open-coded lambdas legitimately jump into their enclosing function.
     The root itself may be an open fragment, so a variable is only
     flagged when some Lambda in this tree claims it, which is known
     once the walk is done: out-of-scope references wait until then.
   - Representation consistency (after Repan): the generator interposes
     a coercion wherever ISREP and WANTREP differ, so every annotated
     pair must be one it knows how to coerce.
   - Pdl-number lifetimes (after Pdlnum): a node authorized to deliver a
     stack-allocated number names the ancestor whose extent certifies
     it; an authorizer that is not an ancestor means the lifetime
     reasoning is broken and a dangling stack pointer could escape. *)
let run ~(stage : stage) (root : node) : diag list =
  let k = census root and st = S1_par.Dls.get stamps_key in
  let lo = k.cn_lo and vlo = k.cn_vlo in
  let nn = k.cn_hi - lo + 1 and nv = max 0 (k.cn_vhi - vlo + 1) in
  st.run <- st.run + 1;
  st.seen <- fit st.seen nn;
  st.path <- fit st.path nn;
  st.bound <- fit st.bound nv;
  st.depth <- fit st.depth nv;
  let r = st.run and seen = st.seen and path = st.path and bound = st.bound
  and depth = st.depth in
  let reps = reps_annotated stage and pdl = pdl_annotated stage in
  let diag rule (n : node) m = { d_rule = rule; d_node = n.n_id; d_loc = n.n_loc; d_msg = m } in
  let uniq = ref [] and rep = ref [] and nest = ref [] in
  (* each scope diagnostic with the slot of the variable whose binding
     decides whether it stands, -1 when it stands regardless *)
  let scope = ref [] in
  let check_var rule n v =
    let i = v.v_id - vlo in
    if (not v.v_special) && i >= 0 && i < nv && not (bound.(i) = r && depth.(i) > 0) then
      scope :=
        ( diag rule n
            (Printf.sprintf "variable %s (v%d) referenced outside its binding lambda" v.v_name
               v.v_id),
          i )
        :: !scope
  in
  let enter p =
    let i = p.p_var.v_id - vlo in
    if bound.(i) <> r then (bound.(i) <- r; depth.(i) <- 0);
    depth.(i) <- depth.(i) + 1
  in
  let leave p =
    let i = p.p_var.v_id - vlo in
    depth.(i) <- depth.(i) - 1
  in
  let pbs = ref [] in
  let rec walk n =
    let i = n.n_id - lo in
    if seen.(i) = r then
      uniq := diag "unique-id" n (Printf.sprintf "node id %d appears twice" n.n_id) :: !uniq
    else seen.(i) <- r;
    (match n.kind with
    | Var v -> check_var "scope-var" n v
    | Setq (v, _) -> check_var "scope-setq" n v
    | Go t ->
        let tagged pb = List.mem (Ptag t) pb.pb_items in
        if not (List.exists tagged !pbs) then
          scope :=
            (diag "scope-go" n (Printf.sprintf "GO to tag %s with no enclosing progbody tag" t), -1)
            :: !scope
    | Return _ when !pbs = [] ->
        scope := (diag "scope-return" n "RETURN outside any progbody", -1) :: !scope
    | _ -> ());
    if reps && not (convertible ~from_:n.n_isrep ~to_:n.n_wantrep) then
      rep :=
        diag "rep-convertible" n
          (Printf.sprintf "ISREP %s is not coercible to WANTREP %s" (rep_name n.n_isrep)
             (rep_name n.n_wantrep))
        :: !rep;
    (let a = n.n_pdlokp - lo in
     if pdl && n.n_pdlokp >= 0 && not (a >= 0 && a < nn && path.(a) = r) then
       nest :=
         diag "pdl-nesting" n (Printf.sprintf "pdl authorizer %d is not an ancestor" n.n_pdlokp)
         :: !nest);
    let on_path = path.(i) in
    path.(i) <- r;
    (match n.kind with
    | Lambda l ->
        (* params scope over the defaults and the body; defaults of later
           params may reference earlier ones, checked permissively by
           bringing all params into scope first *)
        List.iter enter l.l_params;
        iter_children walk n;
        List.iter leave l.l_params
    | Progbody pb ->
        let outer = !pbs in
        pbs := pb :: outer;
        iter_children walk n;
        pbs := outer
    | _ -> iter_children walk n);
    path.(i) <- on_path
  in
  walk root;
  let scope = List.filter_map (fun (d, i) -> if i < 0 || bound.(i) = r then Some d else None) !scope in
  List.rev_append !uniq (List.rev_append scope (List.rev_append !rep (List.rev !nest)))
