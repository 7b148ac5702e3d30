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
   node itself.  Returns each lambda with its strategy before the reset,
   and that table. *)
let prepare root =
  let lambdas = ref [] and fnpos = Hashtbl.create 32 in
  let rec go ?args n =
    (match n.kind with
    | Lambda l ->
        lambdas := (n, l, l.l_strategy) :: !lambdas;
        (if l.l_strategy <> Toplevel then
           l.l_strategy <-
             (match args with Some args when call_args_match l args -> Open | _ -> Unknown));
        l.l_captures <- []
    | Call (({ kind = Var _; _ } as f), _) -> Hashtbl.replace fnpos f.n_id n
    | _ -> ());
    match n.kind with
    | Call (f, args) ->
        go ~args f;
        List.iter (fun a -> go a) args
    | _ -> iter_children (fun c -> go c) n
  in
  go root;
  (!lambdas, fnpos)

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
               && List.for_all (fun r -> Hashtbl.mem fnpos r.n_id) p.p_var.v_refs ->
            let calls = List.map (fun r -> Hashtbl.find fnpos r.n_id) p.p_var.v_refs in
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
   Returns the uses of newly captured variables. *)
let annotate fnpos root =
  let newly = ref [] in
  let rec go n (stack : (node * lam) list) =
    let note_var v =
      if not v.v_special then
        match v.v_binder with
        | None -> ()
        | Some binder ->
            let rec scan acc = function
              | [] -> () (* binder not on stack: freshened fragment; ignore *)
              | (ln, l) :: rest ->
                  if ln == binder then begin
                    if acc <> [] then begin
                      if not v.v_captured then newly := v.v_refs @ v.v_setqs @ !newly;
                      v.v_captured <- true;
                      List.iter
                        (fun bl ->
                          if not (List.memq v bl.l_captures) then
                            bl.l_captures <- v :: bl.l_captures)
                        acc
                    end
                  end
                  else
                    scan (if l.l_strategy = Full_closure then l :: acc else acc) rest
            in
            scan [] stack
    in
    (match n.kind with
    | Call ({ kind = Lambda l; _ }, args) when l.l_strategy = Open ->
        mark_local_functions fnpos l args
    | Lambda l when l.l_strategy = Unknown -> l.l_strategy <- Full_closure
    | Var v | Setq (v, _) -> note_var v
    | _ -> ());
    match n.kind with
    | Lambda l ->
        List.iter (fun p -> Option.iter (fun d -> go d stack) p.p_default) l.l_params;
        go l.l_body ((n, l) :: stack)
    | _ -> iter_children (fun c -> go c stack) n
  in
  go root [];
  !newly

(* Annotate the whole tree.  Returns the nodes whose analysis inputs
   this run changed: every lambda whose strategy moved (complexity
   analysis, which runs before this pass, priced it by the old one) and
   the uses of every newly captured variable. *)
let run (root : node) : node list =
  let lambdas, fnpos = prepare root in
  let captured = annotate fnpos root in
  List.fold_left
    (fun acc (n, l, before) -> if l.l_strategy <> before then n :: acc else acc)
    captured lambdas
