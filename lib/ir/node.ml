(** The compiler's internal tree.

    Each node corresponds to one of the small set of source-level
    constructs of the paper's Table 2 — term (quoted constant), variable,
    caseq, catcher, go, if, lambda, progbody, progn, return, setq, call —
    so the tree can always be back-translated into valid source code
    ({!Backtrans}).  "Each node of the tree has extra data slots; these
    are filled in by successive phases of the compiler" (§4): the
    mutable decoration fields below, all initialized empty and owned by
    the phase named in their comment.

    There is no central symbol table (paper §4.1): each distinct variable
    is a {!var} record carrying back-pointers to its binder and to every
    reference and assignment. *)

module Sexp = S1_sexp.Sexp

(** Internal value representations (the paper's Table 3). *)
type rep =
  | SWFIX  (** 36-bit raw integer *)
  | DWFIX  (** 72-bit raw integer *)
  | HWFLO
  | SWFLO
  | DWFLO
  | TWFLO
  | HWCPLX
  | SWCPLX
  | DWCPLX
  | TWCPLX
  | POINTER  (** Lisp pointer *)
  | BIT  (** 1-bit integer *)
  | JUMP  (** value delivered as a conditional jump *)
  | NONE  (** value not used *)

let rep_name = function
  | SWFIX -> "SWFIX"
  | DWFIX -> "DWFIX"
  | HWFLO -> "HWFLO"
  | SWFLO -> "SWFLO"
  | DWFLO -> "DWFLO"
  | TWFLO -> "TWFLO"
  | HWCPLX -> "HWCPLX"
  | SWCPLX -> "SWCPLX"
  | DWCPLX -> "DWCPLX"
  | TWCPLX -> "TWCPLX"
  | POINTER -> "POINTER"
  | BIT -> "BIT"
  | JUMP -> "JUMP"
  | NONE -> "NONE"

let all_reps =
  [ SWFIX; DWFIX; HWFLO; SWFLO; DWFLO; TWFLO; HWCPLX; SWCPLX; DWCPLX; TWCPLX; POINTER; BIT;
    JUMP; NONE ]

(* Representations a raw machine value can have, and their tags. *)
let raw_number_rep = function SWFLO | DWFLO | SWFIX | HWFLO -> true | _ -> false

(* Can a value of representation [from_] be converted to [to_] at run
   time?  POINTER <-> raw numbers convert (deref / allocate); JUMP and
   NONE are contexts, not values.  Representation analysis chooses only
   such pairs, the code generator coerces exactly these
   ([deliver_operand]), and the verifier rejects any other. *)
let convertible ~from_ ~to_ =
  match (from_, to_) with
  | a, b when a = b -> true
  | POINTER, r when raw_number_rep r -> true
  | r, POINTER when raw_number_rep r -> true
  | SWFIX, SWFLO | SWFLO, SWFIX -> true
  | _, NONE -> true
  | (POINTER | SWFLO | SWFIX | BIT), JUMP -> true  (* test against NIL / zero *)
  | BIT, (POINTER | SWFLO | SWFIX) -> to_ = POINTER
  | _ -> false

(** Side-effect classification (filled by the side-effects analysis). *)
type effects = {
  eff_alloc : bool;  (** may allocate heap storage *)
  eff_write : bool;  (** may write memory visible elsewhere (setq on shared vars, rplaca) *)
  eff_unknown_call : bool;  (** may call user-defined code *)
  eff_control : bool;  (** may exit non-locally (go/return/throw) *)
  eff_special : bool;  (** reads or writes dynamically scoped variables *)
}

let no_effects =
  { eff_alloc = false; eff_write = false; eff_unknown_call = false; eff_control = false;
    eff_special = false }

(* [b]'s effects are among [a]'s *)
let covers a b =
  (a.eff_alloc || not b.eff_alloc)
  && (a.eff_write || not b.eff_write)
  && (a.eff_unknown_call || not b.eff_unknown_call)
  && (a.eff_control || not b.eff_control)
  && (a.eff_special || not b.eff_special)

(* An operand that covers the other is the join itself: the decorations
   share effect records instead of copying one per join. *)
let join_effects a b =
  if covers a b then a
  else if covers b a then b
  else {
    eff_alloc = a.eff_alloc || b.eff_alloc;
    eff_write = a.eff_write || b.eff_write;
    eff_unknown_call = a.eff_unknown_call || b.eff_unknown_call;
    eff_control = a.eff_control || b.eff_control;
    eff_special = a.eff_special || b.eff_special;
  }

type var = {
  v_name : string;
  v_id : int;
  mutable v_special : bool;
  mutable v_binder : node option;  (** the LAMBDA node that binds it, if any *)
  mutable v_refs : node list;  (** VAR nodes referencing it (env analysis) *)
  mutable v_setqs : node list;  (** SETQ nodes assigning it (env analysis) *)
  mutable v_captured : bool;  (** referenced from an inner closure: heap-allocate *)
  mutable v_decl : rep option;  (** user type declaration, treated as advice (§2) *)
  mutable v_rep : rep;  (** chosen representation (representation analysis) *)
  mutable v_seen : bool;
      (** scratch flag of [Envan.backrefs]: met earlier in its
          walk; false between calls *)
}

and node = {
  n_id : int;
  mutable kind : kind;
  mutable n_loc : S1_loc.Loc.t option;
      (** origin in the source text (provenance; stamped at conversion,
          inherited from the enclosing form by rewrite-created nodes) *)
  (* --- analysis decorations (Table 1's environment analysis lives in
     each variable's back-pointers, not here) --- *)
  mutable n_effects : effects;
  mutable n_complexity : int;  (** object-code size estimate *)
  mutable n_tail : bool;  (** evaluated in tail position of its function *)
  mutable n_dirty : bool;
      (** changed since the last analysis refresh (rewritten, created, or a
          variable it uses changed); after a refresh, set on every node
          whose subtree held a change: the region the next optimizer
          sweep revisits (§4.2's incremental re-analysis flags) *)
  (* --- machine-dependent decorations --- *)
  mutable n_wantrep : rep;  (** representation desired by context (top-down pass) *)
  mutable n_isrep : rep;  (** representation delivered (bottom-up pass) *)
  mutable n_pdlokp : int;  (** node id that authorized a pdl number, or -1 *)
  mutable n_pdlnump : bool;  (** might deliver a pdl number *)
}

and kind =
  | Term of Sexp.t  (** quoted constant *)
  | Var of var  (** variable reference *)
  | If of node * node * node
  | Lambda of lam  (** value is a function (a lexical closure) *)
  | Call of node * node list  (** function invocation *)
  | Progn of node list
  | Setq of var * node
  | Caseq of node * (Sexp.t list * node) list * node option  (** keys, clauses, default *)
  | Catcher of node * node  (** tag expression, body *)
  | Progbody of pb
  | Go of string  (** jump to a tag of an enclosing progbody *)
  | Return of node  (** exit the nearest enclosing progbody *)

and lam = {
  mutable l_params : param list;
  mutable l_body : node;
  mutable l_strategy : strategy;  (** binding annotation (§4.4) *)
  mutable l_captures : var list;  (** free lexical variables of a closure (binding annotation) *)
  l_name : string;  (** for listings and closures *)
}

and param = { p_var : var; p_default : node option; p_kind : param_kind }
and param_kind = Required | Optional | Rest

and pb = { pb_uid : int; pb_items : pb_item list }
and pb_item = Ptag of string | Pstmt of node

(** How a lambda-expression is compiled (the binding annotation phase):
    - [Open]: called from exactly one place as a manifest [let]; its body
      is wired inline and parameters become plain variables.
    - [Jump]: all call sites known and tail-recursive; calls compile as
      parameter-passing gotos.
    - [Fast]: all call sites known but not all tail; a special fast
      linkage with no argument-count checking.
    - [Full_closure]: must construct a run-time closure object.
    - [Toplevel]: a DEFUN body with the standard checked linkage. *)
and strategy = Unknown | Open | Jump | Fast | Full_closure | Toplevel

(* One structural write made under a pass guard, with the value it
   overwrote. *)
type undo = U_kind of node * kind | U_body of lam * node | U_params of lam * param list

(* The undo trail of an open pass guard: the node well's mark when it
   opened (nodes above it are the pass's own, so their writes need no
   undoing) and the overwritten values, newest first. *)
type trail = { tr_mark : int; mutable tr_undo : undo list }

(* The id wells and the dynamically scoped origin/budget/trail are
   domain-local so concurrent batch compilations ([lib/serve]) draw from
   independent wells; [reset_counters] re-zeroes the current domain's
   wells so a hermetic per-file compilation numbers its nodes
   deterministically regardless of what compiled before it. *)
type counters = {
  mutable ct_node : int;
  mutable ct_var : int;
  mutable ct_pb : int;
  mutable ct_tag : int;  (** progbody tag renamings ({!Freshen}) *)
  mutable ct_origin : S1_loc.Loc.t option;
  mutable ct_budget : (string * int * int ref) option;
  mutable ct_trail : trail option;
}

let counters_key : counters S1_par.Dls.t =
  S1_par.Dls.create (fun () ->
      { ct_node = 0; ct_var = 0; ct_pb = 0; ct_tag = 0; ct_origin = None; ct_budget = None;
        ct_trail = None })

let ctrs () = S1_par.Dls.get counters_key

let reset_counters () =
  let c = ctrs () in
  c.ct_node <- 0;
  c.ct_var <- 0;
  c.ct_pb <- 0;
  c.ct_tag <- 0

(* The provenance origin in dynamic scope: [mk] stamps every fresh node
   with it, so nodes created during conversion carry the source position
   of the form being converted, and nodes created by the optimizer carry
   the position of the form being rewritten (the transform driver keeps
   it pointed at the rewrite site). *)
let set_origin l = (ctrs ()).ct_origin <- l
let origin () = (ctrs ()).ct_origin

let with_origin l f =
  let c = ctrs () in
  let saved = c.ct_origin in
  c.ct_origin <- l;
  Fun.protect ~finally:(fun () -> c.ct_origin <- saved) f

(* Node-construction budget: a runaway pass (a rewrite loop that grows
   the tree instead of reducing it) is stopped by bounding how many nodes
   it may create, the tree-building analogue of simulator fuel.  The
   budget is dynamically scoped so only guarded pass bodies pay for the
   check's bookkeeping semantics; [None] means unlimited.  The pass
   guard opens its undo trail in the same scope. *)
exception Budget_exhausted of { pass : string; budget : int }

let with_budget ~trail ~pass n f =
  let c = ctrs () in
  let saved = c.ct_budget and saved_trail = c.ct_trail in
  c.ct_budget <- Some (pass, n, ref n);
  c.ct_trail <- Some trail;
  Fun.protect
    ~finally:(fun () ->
      c.ct_budget <- saved;
      c.ct_trail <- saved_trail)
    f

let charge_budget () =
  match (ctrs ()).ct_budget with
  | None -> ()
  | Some (pass, total, left) ->
      decr left;
      if !left < 0 then raise (Budget_exhausted { pass; budget = total })

(* Structural writes ------------------------------------------------------ *)

(* Every write to a node's [kind] or a lambda's body or parameters goes
   through these setters, so a pass guard can undo exactly what its pass
   wrote: the walk back from the trail's end restores the tree the pass
   started from. *)
let open_trail () = { tr_mark = (ctrs ()).ct_node; tr_undo = [] }

let push_undo u = match (ctrs ()).ct_trail with Some tr -> tr.tr_undo <- u :: tr.tr_undo | None -> ()

let set_kind n k =
  (match (ctrs ()).ct_trail with
  | Some tr when n.n_id <= tr.tr_mark -> tr.tr_undo <- U_kind (n, n.kind) :: tr.tr_undo
  | _ -> ());
  n.kind <- k

let set_body l b =
  push_undo (U_body (l, l.l_body));
  l.l_body <- b

let set_params l ps =
  push_undo (U_params (l, l.l_params));
  l.l_params <- ps

let undo tr =
  List.iter
    (function
      | U_kind (n, k) -> n.kind <- k
      | U_body (l, b) -> l.l_body <- b
      | U_params (l, ps) -> l.l_params <- ps)
    tr.tr_undo;
  tr.tr_undo <- []

let mk kind =
  let c = ctrs () in
  charge_budget ();
  c.ct_node <- c.ct_node + 1;
  {
    n_id = c.ct_node;
    kind;
    n_loc = c.ct_origin;
    n_effects = no_effects;
    n_complexity = 0;
    n_tail = false;
    n_dirty = true;
    n_wantrep = POINTER;
    n_isrep = POINTER;
    n_pdlokp = -1;
    n_pdlnump = false;
  }

let mkvar ?(special = false) name =
  let c = ctrs () in
  c.ct_var <- c.ct_var + 1;
  {
    v_name = name;
    v_id = c.ct_var;
    v_special = special;
    v_binder = None;
    v_refs = [];
    v_setqs = [];
    v_captured = false;
    v_decl = None;
    v_rep = POINTER;
    v_seen = false;
  }

let mk_pb items =
  let c = ctrs () in
  c.ct_pb <- c.ct_pb + 1;
  { pb_uid = c.ct_pb; pb_items = items }

(* Constructors --------------------------------------------------------- *)

let term s = mk (Term s)
let var v = mk (Var v)
let if_ p x y = mk (If (p, x, y))
let call f args = mk (Call (f, args))
let progn = function [ x ] -> x | xs -> mk (Progn xs)
let setq v e = mk (Setq (v, e))

let lambda ?(name = "LAMBDA") params body =
  mk (Lambda { l_params = params; l_body = body; l_strategy = Unknown; l_captures = [];
               l_name = name })

let required v = { p_var = v; p_default = None; p_kind = Required }

(* Queries ---------------------------------------------------------------- *)

let is_constant n = match n.kind with Term _ -> true | _ -> false

let constant_value n = match n.kind with Term s -> Some s | _ -> None

(* Fold [f] over a node's children, in evaluation order, without
   building a list: the tree walks run on every optimizer sweep.  With a
   top-level [f], neither the fold nor its helpers allocate. *)
let rec fold_defaults f acc = function
  | [] -> acc
  | { p_default = Some d; _ } :: ps -> fold_defaults f (f acc d) ps
  | { p_default = None; _ } :: ps -> fold_defaults f acc ps

let rec fold_clauses f acc = function
  | [] -> acc
  | (_, body) :: cs -> fold_clauses f (f acc body) cs

let rec fold_items f acc = function
  | [] -> acc
  | Ptag _ :: items -> fold_items f acc items
  | Pstmt s :: items -> fold_items f (f acc s) items

let fold_children f acc n =
  match n.kind with
  | Term _ | Go _ | Var _ -> acc
  | If (p, x, y) -> f (f (f acc p) x) y
  | Lambda l -> f (fold_defaults f acc l.l_params) l.l_body
  | Call (fn, args) -> List.fold_left f (f acc fn) args
  | Progn xs -> List.fold_left f acc xs
  | Setq (_, e) | Return e -> f acc e
  | Caseq (key, clauses, default) -> (
      let acc = fold_clauses f (f acc key) clauses in
      match default with Some d -> f acc d | None -> acc)
  | Catcher (tag, body) -> f (f acc tag) body
  | Progbody pb -> fold_items f acc pb.pb_items

(* The same walk for effect.  It calls [f] directly: threading [f]
   through the fold costs a second indirect call per child, and the
   optimizer's sweeps and the code generator's walks run on this. *)
let rec iter_defaults f = function
  | [] -> ()
  | { p_default = Some d; _ } :: ps ->
      f d;
      iter_defaults f ps
  | { p_default = None; _ } :: ps -> iter_defaults f ps

let rec iter_clauses f = function
  | [] -> ()
  | (_, body) :: cs ->
      f body;
      iter_clauses f cs

let rec iter_items f = function
  | [] -> ()
  | Ptag _ :: items -> iter_items f items
  | Pstmt s :: items ->
      f s;
      iter_items f items

let iter_children f n =
  match n.kind with
  | Term _ | Go _ | Var _ -> ()
  | If (p, x, y) ->
      f p;
      f x;
      f y
  | Lambda l ->
      iter_defaults f l.l_params;
      f l.l_body
  | Call (fn, args) ->
      f fn;
      List.iter f args
  | Progn xs -> List.iter f xs
  | Setq (_, e) | Return e -> f e
  | Caseq (key, clauses, default) -> (
      f key;
      iter_clauses f clauses;
      match default with Some d -> f d | None -> ())
  | Catcher (tag, body) ->
      f tag;
      f body
  | Progbody pb -> iter_items f pb.pb_items

(* Preorder; the fold threads [f] through as its accumulator, so no
   closure is built per node. *)
let rec iter_step f n =
  f n;
  fold_children iter_step f n

let iter f n =
  let (_ : node -> unit) = iter_step f n in
  ()

(* Fill missing provenance from the nearest located ancestor, so that by
   code-generation time every node maps to {e some} source line (nodes
   synthesized by the optimizer inherit the position of the form they
   were derived from). *)
let propagate_locs root =
  let rec go inherited n =
    (match n.n_loc with
    | None -> n.n_loc <- inherited
    | Some _ -> ());
    iter_children (go n.n_loc) n
  in
  go None root

let rec size n = fold_children (fun acc c -> acc + size c) 1 n

(* One walk, allocating only its result: what a deep copy of the tree
   ({!Freshen.copy}) draws from each id well — a node per node, a
   variable per lambda parameter, a progbody and a tag per progbody and
   tag — and the node and parameter id ranges the verifier indexes its
   stamps by (an empty range when there are no parameters). *)
type census = {
  mutable cn_nodes : int;
  mutable cn_params : int;
  mutable cn_pbs : int;
  mutable cn_tags : int;
  mutable cn_lo : int;
  mutable cn_hi : int;
  mutable cn_vlo : int;
  mutable cn_vhi : int;
}

let census root =
  let c =
    { cn_nodes = 0; cn_params = 0; cn_pbs = 0; cn_tags = 0; cn_lo = max_int; cn_hi = 0;
      cn_vlo = max_int; cn_vhi = 0 }
  in
  let param p =
    let id = p.p_var.v_id in
    c.cn_params <- c.cn_params + 1;
    if id < c.cn_vlo then c.cn_vlo <- id;
    if id > c.cn_vhi then c.cn_vhi <- id
  in
  let item = function Ptag _ -> c.cn_tags <- c.cn_tags + 1 | Pstmt _ -> () in
  let rec go n =
    c.cn_nodes <- c.cn_nodes + 1;
    if n.n_id < c.cn_lo then c.cn_lo <- n.n_id;
    if n.n_id > c.cn_hi then c.cn_hi <- n.n_id;
    (match n.kind with
    | Lambda l -> List.iter param l.l_params
    | Progbody pb ->
        c.cn_pbs <- c.cn_pbs + 1;
        List.iter item pb.pb_items
    | _ -> ());
    iter_children go n
  in
  go root;
  c

(* Advance the wells past the ids a deep copy of the counted tree would
   draw, as if it had been copied. *)
let reserve k =
  let c = ctrs () in
  c.ct_node <- c.ct_node + k.cn_nodes;
  c.ct_var <- c.ct_var + k.cn_params;
  c.ct_pb <- c.ct_pb + k.cn_pbs;
  c.ct_tag <- c.ct_tag + k.cn_tags

(* Variable bookkeeping ---------------------------------------------------- *)

let add_ref v n = if not (List.memq n v.v_refs) then v.v_refs <- n :: v.v_refs
let add_setq v n = if not (List.memq n v.v_setqs) then v.v_setqs <- n :: v.v_setqs

(* A variable's facts changed: its references and assignments are
   marked for re-analysis and re-examination by the optimizer. *)
let mark_uses v =
  List.iter (fun n -> n.n_dirty <- true) v.v_refs;
  List.iter (fun n -> n.n_dirty <- true) v.v_setqs
