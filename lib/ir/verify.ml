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

(* Mirrors {!S1_rep.Repan.convertible} — the code generator can coerce
   exactly these ISREP/WANTREP pairs ([deliver_operand]).  Duplicated
   here because [lib/ir] sits below [lib/rep] in the dependency order;
   keep the two tables in sync. *)
let raw_number_rep = function SWFLO | DWFLO | SWFIX | HWFLO -> true | _ -> false

let convertible ~from_ ~to_ =
  match (from_, to_) with
  | a, b when a = b -> true
  | POINTER, r when raw_number_rep r -> true
  | r, POINTER when raw_number_rep r -> true
  | SWFIX, SWFLO | SWFLO, SWFIX -> true
  | _, NONE -> true
  | (POINTER | SWFLO | SWFIX | BIT), JUMP -> true
  | BIT, (POINTER | SWFLO | SWFIX) -> to_ = POINTER
  | _ -> false

let run ~(stage : stage) (root : node) : diag list =
  let diags = ref [] in
  let add rule (n : node) fmt =
    Printf.ksprintf
      (fun m -> diags := { d_rule = rule; d_node = n.n_id; d_loc = n.n_loc; d_msg = m } :: !diags)
      fmt
  in

  (* Unique node ids: a pass that splices one node into two positions has
     created accidental sharing — rewrites through one path would
     silently edit the other. *)
  let seen : (int, unit) Hashtbl.t = Hashtbl.create 256 in
  iter
    (fun n ->
      if Hashtbl.mem seen n.n_id then add "unique-id" n "node id %d appears twice" n.n_id
      else Hashtbl.add seen n.n_id ())
    root;

  (* Lexical scope discipline: every Var/Setq of a lexical variable must
     sit inside the subtree of the Lambda that binds it; every Go must
     name a tag of an enclosing progbody, every Return must have one.
     Tags and progbodies deliberately pass through Lambda boundaries:
     open-coded lambdas legitimately jump into their enclosing function.
     The root itself may be an open fragment, so variables with no binder
     anywhere in the tree are only flagged when some Lambda in this tree
     claims them. *)
  let bound_here : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  iter
    (fun n ->
      match n.kind with
      | Lambda l -> List.iter (fun p -> Hashtbl.replace bound_here p.p_var.v_id ()) l.l_params
      | _ -> ())
    root;
  let in_scope : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let enter v = Hashtbl.replace in_scope v.v_id (1 + Option.value ~default:0 (Hashtbl.find_opt in_scope v.v_id)) in
  let leave v =
    match Hashtbl.find_opt in_scope v.v_id with
    | Some 1 | None -> Hashtbl.remove in_scope v.v_id
    | Some k -> Hashtbl.replace in_scope v.v_id (k - 1)
  in
  let check_var rule n v =
    if v.v_special || not (Hashtbl.mem bound_here v.v_id) then ()
    else if not (Hashtbl.mem in_scope v.v_id) then
      add rule n "variable %s (v%d) referenced outside its binding lambda" v.v_name v.v_id
  in
  let rec walk tags inprog n =
    match n.kind with
    | Term _ -> ()
    | Var v -> check_var "scope-var" n v
    | Setq (v, e) ->
        check_var "scope-setq" n v;
        walk tags inprog e
    | Lambda l ->
        (* params scope over the defaults and the body; defaults of later
           params may reference earlier ones, checked permissively by
           bringing all params into scope first *)
        List.iter (fun p -> enter p.p_var) l.l_params;
        List.iter (fun p -> Option.iter (walk tags inprog) p.p_default) l.l_params;
        walk tags inprog l.l_body;
        List.iter (fun p -> leave p.p_var) l.l_params
    | Call (f, args) ->
        walk tags inprog f;
        List.iter (walk tags inprog) args
    | If (p, x, y) ->
        walk tags inprog p;
        walk tags inprog x;
        walk tags inprog y
    | Progn xs -> List.iter (walk tags inprog) xs
    | Caseq (key, clauses, default) ->
        walk tags inprog key;
        List.iter (fun (_, b) -> walk tags inprog b) clauses;
        Option.iter (walk tags inprog) default
    | Catcher (tag, body) ->
        walk tags inprog tag;
        walk tags inprog body
    | Progbody pb ->
        let tags' =
          List.filter_map (function Ptag t -> Some t | Pstmt _ -> None) pb.pb_items @ tags
        in
        List.iter (function Ptag _ -> () | Pstmt s -> walk tags' (inprog + 1) s) pb.pb_items
    | Go t ->
        if not (List.mem t tags) then add "scope-go" n "GO to tag %s with no enclosing progbody tag" t
    | Return e ->
        if inprog = 0 then add "scope-return" n "RETURN outside any progbody";
        walk tags inprog e
  in
  walk [] 0 root;

  (* Representation consistency (after Repan): the generator interposes a
     coercion wherever ISREP and WANTREP differ, so every annotated pair
     must be one it knows how to coerce. *)
  if reps_annotated stage then
    iter
      (fun n ->
        let from_ = n.n_isrep and to_ = n.n_wantrep in
        if not (convertible ~from_ ~to_) then
          add "rep-convertible" n "ISREP %s is not coercible to WANTREP %s" (rep_name from_)
            (rep_name to_))
      root;

  (* Pdl-number lifetimes (after Pdlnum): a node authorized to deliver a
     stack-allocated number names the ancestor whose extent certifies it;
     an authorizer that is not an ancestor means the lifetime reasoning
     is broken and a dangling stack pointer could escape. *)
  if pdl_annotated stage then begin
    let rec nest (path : int list) n =
      if n.n_pdlokp >= 0 && not (List.mem n.n_pdlokp path) then
        add "pdl-nesting" n "pdl authorizer %d is not an ancestor" n.n_pdlokp;
      iter_children (nest (n.n_id :: path)) n
    in
    nest [] root
  end;

  List.rev !diags
