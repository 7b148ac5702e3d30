(** Representation analysis (paper §6.2).

    Two passes over each function body:

    - {b top-down}: "every internal tree node is annotated with a desired
      representation, called the WANTREP for the node.  The WANTREP for a
      node is determined by its context within its parent node and by the
      WANTREP of the parent.  For an if expression (if p x y), the
      WANTREP for p is JUMP ... For (+$f x y), the WANTREP for x and y is
      SWFLO."
    - {b bottom-up}: "every internal tree node is annotated with a
      deliverable representation, called the ISREP ... The ISREP for
      (+$f x y) is always SWFLO."

    Where ISREP and WANTREP disagree, the code generator interposes a
    coercion ("the compiler is prepared to do a type coercion on every
    intermediate value of the program").

    "The clean top-down/bottom-up nature of the process is spoiled by
    variables ... In practice, a little heuristic guesswork suffices: if
    not all the references to a variable agree as to what type is
    desirable for it, the type POINTER can always be used."  We iterate
    wantrep/isrep with a variable-unification step until fixpoint. *)

module Sexp = S1_sexp.Sexp
open S1_ir
open Node
module Prims = S1_frontend.Prims

(* Whether the code generator will compile prims inline (Gen.options
   inline_prims, threaded in by {!run}).  When it won't, every prim is a
   native call through the runtime: arguments go through the calling
   convention and the result arrives as a tagged POINTER in A, whatever
   raw rep the prim table declares — claiming SWFLO here made the
   generator read the tagged word as a raw float (found by the
   differential fuzzer under --no-inline-prims). *)
let inline_prims : bool ref S1_par.Dls.t = S1_par.Dls.create (fun () -> ref true)

(* The representation a prim's result is delivered in when compiled
   inline (generic prims deliver POINTER via the runtime).  Inline-ness
   depends on arity as well as the global switch — a 3-ary (- a b c) is
   a native call even with inlining on — so both judgements consult the
   shared Prims.inlinable table the generator uses. *)
let prim_isrep fname ~nargs ~want =
  if not (!(S1_par.Dls.get inline_prims) && Prims.inlinable fname nargs) then POINTER
  else
    match Prims.find fname with
    | Some { Prims.res_rep = Some BIT; _ } -> if want = JUMP then JUMP else POINTER
    | Some { Prims.res_rep = Some r; _ } -> r
    | _ -> POINTER

let prim_argrep fname ~nargs =
  if not (!(S1_par.Dls.get inline_prims) && Prims.inlinable fname nargs) then None
  else
    match Prims.find fname with
    | Some { Prims.arg_rep = Some r; _ } -> Some r
    | _ -> None

(* Top-down WANTREP --------------------------------------------------------- *)

let rec want (n : node) (w : rep) : unit =
  n.n_wantrep <- w;
  match n.kind with
  | Term _ | Var _ | Go _ -> ()
  | Setq (v, e) -> want e v.v_rep
  | If (p, x, y) ->
      want p JUMP;
      want x w;
      want y w
  | Progn xs ->
      let rec go = function
        | [] -> ()
        | [ last ] -> want last w
        | x :: rest ->
            want x NONE;
            go rest
      in
      go xs
  | Lambda l ->
      List.iter (fun p -> Option.iter (fun d -> want d p.p_var.v_rep) p.p_default) l.l_params;
      (* a separate function returns through the calling convention *)
      want l.l_body POINTER
  | Call ({ kind = Lambda l; _ } as f, args) when l.l_strategy = Open ->
      f.n_wantrep <- NONE;
      List.iter2 (fun p a -> want a p.p_var.v_rep) l.l_params args;
      want l.l_body w
  | Call (f, args) -> (
      match f.kind with
      | Term (Sexp.Sym fname) -> (
          f.n_wantrep <- NONE;
          match prim_argrep fname ~nargs:(List.length args) with
          | Some r -> List.iter (fun a -> want a r) args
          | None -> List.iter (fun a -> want a POINTER) args)
      | Var v when not v.v_special -> (
          (* Jump/Fast local function: parameters keep their var reps *)
          f.n_wantrep <- NONE;
          match local_lambda v with
          | Some l -> (
              try List.iter2 (fun p a -> want a p.p_var.v_rep) l.l_params args
              with Invalid_argument _ -> List.iter (fun a -> want a POINTER) args)
          | None ->
              want f POINTER;
              List.iter (fun a -> want a POINTER) args)
      | _ ->
          want f POINTER;
          List.iter (fun a -> want a POINTER) args)
  | Caseq (key, clauses, default) ->
      want key POINTER;
      List.iter (fun (_, b) -> want b w) clauses;
      Option.iter (fun d -> want d w) default
  | Catcher (tag, body) ->
      want tag POINTER;
      want body POINTER
  | Progbody pb ->
      List.iter (function Ptag _ -> () | Pstmt s -> want s NONE) pb.pb_items
  | Return e -> want e POINTER

(* The lambda a local-function variable is bound to, when its binder is
   an Open lambda binding it to a manifest Jump/Fast lambda. *)
and local_lambda (v : var) : lam option =
  match v.v_binder with
  | Some { kind = Lambda bl; _ } when bl.l_strategy = Open -> (
      (* find the argument position in the binding call: we stash it via
         the refs walk below instead; cheap approach: search binder's
         parent is unavailable, so look at param defaults? Not needed:
         Jump/Fast lambdas are identified by strategy on the arg.  We
         find the lambda by scanning the program tree lazily — instead
         the caller falls back to POINTER when we return None. *)
      ignore bl;
      None)
  | _ -> None

(* Bottom-up ISREP ------------------------------------------------------------ *)

let rec isrep (n : node) : rep =
  let r =
    match n.kind with
    | Term c -> (
        match (n.n_wantrep, c) with
        | SWFLO, Sexp.Float (_, (Sexp.Single | Sexp.Half)) -> SWFLO
        | SWFIX, Sexp.Int _ -> SWFIX
        | SWFLO, Sexp.Int _ -> SWFLO
        | _ -> POINTER)
    | Var v -> v.v_rep
    | Setq (_, e) ->
        ignore (isrep e);
        (* value delivered from what was stored *)
        (match n.kind with Setq (v, _) -> v.v_rep | _ -> POINTER)
    | If (p, x, y) ->
        ignore (isrep p);
        let rx = isrep x and ry = isrep y in
        if n.n_wantrep = NONE then NONE
        else if rx = ry then rx
        else if rx = n.n_wantrep && convertible ~from_:ry ~to_:n.n_wantrep then rx
        else if ry = n.n_wantrep && convertible ~from_:rx ~to_:n.n_wantrep then ry
        else POINTER
    | Progn xs ->
        let rec go acc = function
          | [] -> acc
          | [ last ] -> isrep last
          | x :: rest ->
              ignore (isrep x);
              go acc rest
        in
        go POINTER xs
    | Lambda l ->
        List.iter (fun p -> Option.iter (fun d -> ignore (isrep d)) p.p_default) l.l_params;
        ignore (isrep l.l_body);
        POINTER
    | Call ({ kind = Lambda l; _ }, args) when l.l_strategy = Open ->
        List.iter (fun a -> ignore (isrep a)) args;
        isrep l.l_body
    | Call (f, args) -> (
        List.iter (fun a -> ignore (isrep a)) args;
        match f.kind with
        | Term (Sexp.Sym fname) ->
            prim_isrep fname ~nargs:(List.length args) ~want:n.n_wantrep
        | _ ->
            ignore (isrep f);
            POINTER)
    | Caseq (key, clauses, default) ->
        ignore (isrep key);
        List.iter (fun (_, b) -> ignore (isrep b)) clauses;
        Option.iter (fun d -> ignore (isrep d)) default;
        POINTER
    | Catcher (tag, body) ->
        ignore (isrep tag);
        ignore (isrep body);
        POINTER
    | Progbody pb ->
        List.iter (function Ptag _ -> () | Pstmt s -> ignore (isrep s)) pb.pb_items;
        POINTER
    | Go _ -> NONE
    | Return e ->
        ignore (isrep e);
        NONE
  in
  n.n_isrep <- r;
  r

(* Variable-representation unification ------------------------------------------ *)

(* Choose SWFLO/SWFIX for a lexical variable when (a) it has a type
   declaration, or (b) its binding initializer delivers the raw rep and
   every reference context wants it. *)
let unify_variable_reps (root : node) : bool =
  let changed = ref false in
  (* collect binding initializers of Open-lambda parameters *)
  let init_rep : (int, rep) Hashtbl.t = Hashtbl.create 16 in
  iter
    (fun n ->
      match n.kind with
      | Call ({ kind = Lambda l; _ }, args) when l.l_strategy = Open ->
          (try List.iter2 (fun p a -> Hashtbl.replace init_rep p.p_var.v_id a.n_isrep)
                 l.l_params args
           with Invalid_argument _ -> ())
      | _ -> ())
    root;
  iter
    (fun n ->
      match n.kind with
      | Lambda l ->
          List.iter
            (fun p ->
              let v = p.p_var in
              if v.v_special || v.v_captured || v.v_rep <> POINTER then ()
              else
                let decl = v.v_decl in
                let wanted =
                  (* every reference context asks for the same raw rep *)
                  match v.v_refs with
                  | [] -> None
                  | refs ->
                      let reps =
                        List.sort_uniq compare (List.map (fun r -> r.n_wantrep) refs)
                      in
                      (match reps with
                      | [ (SWFLO | SWFIX) as r ] -> Some r
                      | [ (SWFLO | SWFIX) as r; NONE ] | [ NONE; ((SWFLO | SWFIX) as r) ] ->
                          Some r
                      | _ -> None)
                in
                let init_ok r =
                  match Hashtbl.find_opt init_rep v.v_id with
                  | Some ir -> ir = r
                  | None -> l.l_strategy = Open (* defaults: no init found -> no *)
                          && false
                in
                let chosen =
                  (* only single-word raw representations are carried
                     unboxed by the code generator today; wider declared
                     types stay POINTER (documented in EXPERIMENTS.md) *)
                  match decl with
                  | Some ((SWFLO | SWFIX) as r) -> Some r
                  | _ -> (
                      match wanted with
                      | Some r when v.v_setqs = [] && init_ok r -> Some r
                      | _ -> None)
                in
                (match chosen with
                | Some r when v.v_rep <> r ->
                    v.v_rep <- r;
                    changed := true
                | _ -> ()))
            l.l_params
      | _ -> ())
    root;
  !changed

(* Decision reporting ------------------------------------------------------------- *)

module Remark = S1_obs.Remark

(* After the fixpoint settles, walk the tree once and explain every
   representation decision: which prims open-code and which fall back to
   native calls (and why), which parameters got raw reps and which stayed
   boxed (and what blocked them), and which If joins forced POINTER
   because the arms disagree.  The walk is preorder, so remark order is
   deterministic for a given tree. *)
let report (root : node) : unit =
  if Remark.enabled () then begin
    (* binding initializers, as unify_variable_reps saw them *)
    let init_rep : (int, rep) Hashtbl.t = Hashtbl.create 16 in
    iter
      (fun n ->
        match n.kind with
        | Call ({ kind = Lambda l; _ }, args) when l.l_strategy = Open -> (
            try
              List.iter2
                (fun p a -> Hashtbl.replace init_rep p.p_var.v_id a.n_isrep)
                l.l_params args
            with Invalid_argument _ -> ())
        | _ -> ())
      root;
    iter
      (fun n ->
        match n.kind with
        | Call ({ kind = Term (Sexp.Sym fname); _ }, args) -> (
            let nargs = List.length args in
            match Prims.find fname with
            | Some { Prims.res_rep = Some r; _ } ->
                if !(S1_par.Dls.get inline_prims) && Prims.inlinable fname nargs then
                  Remark.passed ~pass:"repan" ~rule:"OPEN-CODE" ~node:n.n_id ?loc:n.n_loc
                    ~args:[ ("fn", Remark.Str fname); ("rep", Remark.Str (rep_name r)) ]
                    (Printf.sprintf "%s compiles inline, delivering raw %s" fname
                       (rep_name r))
                else
                  Remark.missed ~pass:"repan" ~rule:"OPEN-CODE" ~node:n.n_id ?loc:n.n_loc
                    ~args:[ ("fn", Remark.Str fname); ("arity", Remark.Int nargs) ]
                    (if not !(S1_par.Dls.get inline_prims) then
                       Printf.sprintf
                         "%s goes out-of-line (prim inlining disabled); result boxed to \
                          POINTER"
                         fname
                     else
                       Printf.sprintf
                         "%s has no inline template at %d arguments; native call returns \
                          a boxed POINTER"
                         fname nargs)
            | _ -> ())
        | Lambda l ->
            List.iter
              (fun p ->
                let v = p.p_var in
                if v.v_special || v.v_refs = [] then ()
                else if raw_number_rep v.v_rep then
                  Remark.passed ~pass:"repan" ~rule:"REP-UNBOX" ~node:n.n_id ?loc:n.n_loc
                    ~args:
                      [ ("var", Remark.Str v.v_name);
                        ("rep", Remark.Str (rep_name v.v_rep)) ]
                    (Printf.sprintf "variable %s carried unboxed as %s" v.v_name
                       (rep_name v.v_rep))
                else begin
                  let ref_reps =
                    List.sort_uniq compare (List.map (fun r -> r.n_wantrep) v.v_refs)
                  in
                  let raw_wanted =
                    List.filter_map
                      (fun r -> if raw_number_rep r then Some r else None)
                      ref_reps
                  in
                  let declined why extra =
                    Remark.missed ~pass:"repan" ~rule:"REP-UNBOX" ~node:n.n_id ?loc:n.n_loc
                      ~args:(("var", Remark.Str v.v_name) :: extra)
                      (Printf.sprintf "variable %s stays boxed: %s" v.v_name why)
                  in
                  match raw_wanted with
                  | [] -> () (* no reference asks for a raw rep: nothing missed *)
                  | first_raw :: _ ->
                      if v.v_captured then declined "captured by a closure" []
                      else if
                        List.exists
                          (fun r -> (not (raw_number_rep r)) && r <> NONE)
                          ref_reps
                        || List.length raw_wanted > 1
                      then
                        declined "reference contexts disagree on a representation"
                          [ ( "wanted",
                              Remark.Str
                                (String.concat "," (List.map rep_name ref_reps)) ) ]
                      else if v.v_setqs <> [] then
                        declined "assigned (SETQ) — unboxing would need a store rewrite"
                          []
                      else (
                        match Hashtbl.find_opt init_rep v.v_id with
                        | Some ir when ir <> first_raw ->
                            declined
                              (Printf.sprintf
                                 "initializer delivers %s but references want %s"
                                 (rep_name ir) (rep_name first_raw))
                              []
                        | None -> declined "binding initializer not analyzable" []
                        | Some _ -> ())
                end)
              l.l_params
        | If (_, x, y)
          when n.n_isrep = POINTER
               && n.n_wantrep <> NONE && n.n_wantrep <> JUMP
               && x.n_isrep <> y.n_isrep
               && (raw_number_rep x.n_isrep || raw_number_rep y.n_isrep) ->
            Remark.missed ~pass:"repan" ~rule:"REP-JOIN" ~node:n.n_id ?loc:n.n_loc
              ~args:
                [ ("then_rep", Remark.Str (rep_name x.n_isrep));
                  ("else_rep", Remark.Str (rep_name y.n_isrep)) ]
              "conditional arms deliver different representations; value boxed to POINTER"
        | _ -> ())
      root
  end

(* Entry point -------------------------------------------------------------------- *)

let run ?(inline = true) (root : node) : unit =
  S1_par.Dls.get inline_prims := inline;
  S1_obs.Obs.with_span "repan" (fun () ->
      (* reset *)
      iter (fun n -> n.n_wantrep <- POINTER) root;
      let rec fix k =
        want root POINTER;
        ignore (isrep root);
        if k > 0 && unify_variable_reps root then fix (k - 1)
      in
      fix 4;
      report root;
      (* representation choices, per kind: one counter per variable rep
         and one per delivered (ISREP) value rep *)
      iter
        (fun n ->
          match n.kind with
          | Lambda l ->
              List.iter
                (fun p -> S1_obs.Obs.incr ("rep.var." ^ rep_name p.p_var.v_rep))
                l.l_params
          | _ -> if n.n_isrep <> NONE then S1_obs.Obs.incr ("rep.isrep." ^ rep_name n.n_isrep))
        root)
