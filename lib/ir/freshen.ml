(** Deep copying of subtrees with freshly renamed bound variables.

    Used by procedure integration and by argument substitution ("all
    variables ... have effectively been uniformly renamed to prevent
    scoping problems", paper §5).  Free variables of the copied tree stay
    shared; bound variables, progbody tags, and everything else get
    fresh identities. *)

open Node

type env = { vars : (int, var) Hashtbl.t; mutable tags : (string * string) list }

let fresh_var env v =
  let v' = mkvar ~special:v.v_special v.v_name in
  v'.v_rep <- v.v_rep;
  v'.v_decl <- v.v_decl;
  Hashtbl.replace env.vars v.v_id v';
  v'

let lookup_var env v = match Hashtbl.find_opt env.vars v.v_id with Some v' -> v' | None -> v

let fresh_tag env t =
  let c = ctrs () in
  c.ct_tag <- c.ct_tag + 1;
  let t' = Printf.sprintf "%s~%d" t c.ct_tag in
  env.tags <- (t, t') :: env.tags;
  t'

let lookup_tag env t = match List.assoc_opt t env.tags with Some t' -> t' | None -> t

let rec copy_with env n =
  let go = copy_with env in
  let kind =
    match n.kind with
    | Term s -> Term s
    | Var v -> Var (lookup_var env v)
    | If (p, x, y) -> If (go p, go x, go y)
    | Lambda l ->
        (* Parameters bind: rename them first so defaults and body see the
           fresh variables.  A default expression may refer to earlier
           parameters (paper §2), which this ordering honours. *)
        let params =
          List.map
            (fun p ->
              let v' = fresh_var env p.p_var in
              (p, v'))
            l.l_params
        in
        let params =
          List.map
            (fun (p, v') ->
              { p_var = v'; p_default = Option.map go p.p_default; p_kind = p.p_kind })
            params
        in
        Lambda { l_params = params; l_body = go l.l_body; l_strategy = l.l_strategy;
                 l_captures = []; l_name = l.l_name }
    | Call (f, args) -> Call (go f, List.map go args)
    | Progn xs -> Progn (List.map go xs)
    | Setq (v, e) -> Setq (lookup_var env v, go e)
    | Caseq (key, clauses, default) ->
        Caseq (go key, List.map (fun (ks, b) -> (ks, go b)) clauses, Option.map go default)
    | Catcher (tag, body) -> Catcher (go tag, go body)
    | Progbody pb ->
        (* Tags bind within the progbody: rename before copying statements. *)
        let saved = env.tags in
        List.iter (function Ptag t -> ignore (fresh_tag env t) | Pstmt _ -> ()) pb.pb_items;
        let items =
          List.map
            (function Ptag t -> Ptag (lookup_tag env t) | Pstmt s -> Pstmt (go s))
            pb.pb_items
        in
        let pb' = mk_pb items in
        env.tags <- saved;
        Progbody pb'
    | Go t -> Go (lookup_tag env t)
    | Return e -> Return (go e)
  in
  mk kind

let copy n = copy_with { vars = Hashtbl.create 16; tags = [] } n
