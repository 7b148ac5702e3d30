(** Complexity analysis (paper Table 1).

    "Make a preliminary estimate of the size of the object code for each
    subtree (this is primarily to aid the optimizer in deciding whether
    to substitute copies of the initializing expression for several
    occurrences of a variable)." *)

open S1_ir
open Node

(* One node's estimate from its children's.  A lambda is priced by the
   strategy binding annotation gave it on the previous refresh (binding
   annotation runs after this pass). *)
let add_node acc (c : node) = acc + c.n_complexity

let node (n : node) : unit =
  let kids = fold_children add_node 0 n in
  let own =
    match n.kind with
    | Term _ -> 1
    | Var v -> if v.v_special || v.v_binder = None then 3 else 1
    | Setq _ -> 1
    | If _ -> 2
    | Progn _ -> 0
    | Lambda l -> (
        (* open/jump lambdas are free; real closures cost construction *)
        match l.l_strategy with
        | Open | Jump -> 0
        | Fast -> 1
        | Unknown | Full_closure | Toplevel -> 4 + List.length l.l_params)
    | Call (f, args) -> (
        match f.kind with
        | Term (S1_sexp.Sexp.Sym fname) when S1_frontend.Prims.is_primitive fname ->
            1 + List.length args
        | Lambda _ -> List.length args
        | _ -> 3 + List.length args)
    | Caseq (_, clauses, _) -> 2 + List.length clauses
    | Catcher _ -> 4
    | Progbody _ -> 1
    | Go _ -> 1
    | Return _ -> 1
  in
  n.n_complexity <- kids + own
