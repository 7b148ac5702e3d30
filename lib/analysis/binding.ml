(** Binding annotation (paper §4.4).

    "The binding annotation phase examines each lambda-expression in the
    tree and determines how that lambda-expression is to be compiled."

    Strategies assigned here (see {!Node.strategy}):

    - A lambda in the function position of a call whose arguments match
      its parameters compiles {b Open}: it is a [let], wired inline.
    - A lambda bound to an (unassigned) Open-lambda parameter all of
      whose references are in function position compiles {b Jump} when
      every such call is tail-recursive — "it may be possible to compile
      all such calls as, in effect, parameter-passing goto statements,
      and no closure need be constructed at run time" — or {b Fast}
      (known-callers subroutine linkage without argument-count checking)
      otherwise.
    - Anything else becomes a {b Full_closure}: "a closure object must be
      explicitly constructed at run time, containing the current lexical
      environment and a pointer to the code."

    The phase also "determines which variables can be stack-allocated and
    which must (because they are referred to by closures) be
    heap-allocated": [v_captured] marks variables crossing a closure
    boundary, and every Full_closure lambda gets its capture list. *)

open S1_ir
open Node

(* A lambda in function position of a plain let-style call (all required
   parameters, exact arity) is Open; manifest calls with &optional/&rest
   stay Full_closure and go through the general calling convention. *)
let call_args_match (l : lam) (args : node list) =
  List.length args = List.length l.l_params
  && List.for_all (fun p -> p.p_kind = Required) l.l_params

(* First walk: reset every lambda's strategy, mark the Open ones, and
   collect the Var nodes used as the function of a call, with the call
   node itself.  [args] are the arguments when [n] is a call's function.
   The walk's state is its fold accumulator. *)
type prep = {
  mutable pr_lambdas : (node * lam * strategy) list;  (** with the strategy before the reset *)
  mutable pr_fnpos : (node * node) list;  (** function-position Var node, its call *)
}

let rec prepare_node st args n =
  (match n.kind with
  | Lambda l ->
      st.pr_lambdas <- (n, l, l.l_strategy) :: st.pr_lambdas;
      (if l.l_strategy <> Toplevel then
         l.l_strategy <-
           (match args with Some args when call_args_match l args -> Open | _ -> Unknown));
      l.l_captures <- []
  | Call (({ kind = Var _; _ } as f), _) -> st.pr_fnpos <- (f, n) :: st.pr_fnpos
  | _ -> ());
  match n.kind with
  | Call (f, args) ->
      prepare_node st (Some args) f;
      ignore (List.fold_left prepare_child st args)
  | _ -> ignore (fold_children prepare_child st n)

and prepare_child st c =
  prepare_node st None c;
  st

let prepare root =
  let st = { pr_lambdas = []; pr_fnpos = [] } in
  prepare_node st None root;
  st

(* Jump/Fast detection: parameters of Open lambdas whose initializer is a
   manifest lambda and whose every use is a call. *)
let mark_local_functions fnpos (l : lam) args =
  let rec pair ps args =
    match (ps, args) with
    | p :: ps', arg :: args' ->
        (match (p.p_kind, arg.kind) with
        | Required, Lambda inner
          when inner.l_strategy = Unknown && p.p_var.v_setqs = []
               && List.length p.p_var.v_refs > 0
               && List.for_all (fun r -> List.mem_assq r fnpos) p.p_var.v_refs ->
            let calls = List.map (fun r -> List.assq r fnpos) p.p_var.v_refs in
            let arities_ok =
              List.for_all
                (fun c ->
                  match c.kind with
                  | Call (_, cargs) ->
                      List.length cargs = List.length inner.l_params
                      && List.for_all (fun p -> p.p_kind = Required) inner.l_params
                  | _ -> false)
                calls
            in
            if arities_ok then
              if List.for_all (fun c -> c.n_tail) calls then inner.l_strategy <- Jump
              else inner.l_strategy <- Fast
        | _ -> ());
        pair ps' args'
    | _ -> ()
  in
  pair l.l_params args

(* Second walk, preorder with the stack of enclosing lambdas: local
   functions, closures, and capture analysis.  A call is visited before
   the lambdas it binds and a lambda before its body, so every strategy
   a step reads is final by then.  Everything still Unknown is a real
   closure.  A reference that crosses a Full_closure boundary on the way
   up to its binder captures the variable into every boundary crossed.
   The walk collects the uses of newly captured variables. *)
type walk = {
  w_fnpos : (node * node) list;
  mutable w_stack : (node * lam) list;  (** enclosing lambdas, innermost first *)
  mutable w_newly : node list;
}

(* Walk [stack] up to [binder]; [crossed] gathers the Full_closure
   lambdas passed on the way. *)
let rec capture w v binder crossed = function
  | [] -> () (* binder not on stack: freshened fragment; ignore *)
  | (ln, l) :: rest ->
      if ln == binder then begin
        if crossed <> [] then begin
          if not v.v_captured then w.w_newly <- v.v_refs @ v.v_setqs @ w.w_newly;
          v.v_captured <- true;
          List.iter
            (fun bl -> if not (List.memq v bl.l_captures) then bl.l_captures <- v :: bl.l_captures)
            crossed
        end
      end
      else capture w v binder (if l.l_strategy = Full_closure then l :: crossed else crossed) rest

let note_var w v =
  if not v.v_special then
    match v.v_binder with None -> () | Some binder -> capture w v binder [] w.w_stack

let rec annotate_node w n =
  (match n.kind with
  | Call ({ kind = Lambda l; _ }, args) when l.l_strategy = Open ->
      mark_local_functions w.w_fnpos l args
  | Lambda l when l.l_strategy = Unknown -> l.l_strategy <- Full_closure
  | Var v | Setq (v, _) -> note_var w v
  | _ -> ());
  match n.kind with
  | Lambda l ->
      let stack = w.w_stack in
      ignore (fold_defaults annotate_child w l.l_params);
      w.w_stack <- (n, l) :: stack;
      annotate_node w l.l_body;
      w.w_stack <- stack
  | _ -> ignore (fold_children annotate_child w n)

and annotate_child w c =
  annotate_node w c;
  w

let annotate fnpos root =
  let w = { w_fnpos = fnpos; w_stack = []; w_newly = [] } in
  annotate_node w root;
  w.w_newly

(* Annotate the whole tree.  Returns the nodes whose analysis inputs
   this run changed: every lambda whose strategy moved (complexity
   analysis, which runs before this pass, priced it by the old one) and
   the uses of every newly captured variable. *)
let run (root : node) : node list =
  let st = prepare root in
  let captured = annotate st.pr_fnpos root in
  List.fold_left
    (fun acc (n, l, before) -> if l.l_strategy <> before then n :: acc else acc)
    captured st.pr_lambdas
