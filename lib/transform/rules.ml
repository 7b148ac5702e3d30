(** Source-level transformation rules (paper §5).

    Every rule rewrites the tree in place (back-translatable before and
    after) and reports to the transcript under the compiler-internal
    names the paper's §7 transcript shows ([META-SUBSTITUTE],
    [META-CALL-LAMBDA], [META-EVALUATE-ASSOC-COMMUT-CALL],
    [CONSIDER-REVERSING-ARGUMENTS], …).

    The three central rules are the paper's decomposition of
    beta-conversion:

    1. [((lambda () body))  ==>  body]                    (META-CALL-LAMBDA)
    2. drop an unreferenced parameter whose argument has no side effects
       (heap allocation may be {e eliminated} but must not be
       {e duplicated})                                    (META-CALL-LAMBDA)
    3. substitute an argument expression for occurrences of its
       parameter, under side-effect conditions            (META-SUBSTITUTE)

    Constant propagation, procedure integration, and boolean
    short-circuiting all fall out of these (§5). *)

module Sexp = S1_sexp.Sexp
open S1_ir
open Node
module Prims = S1_frontend.Prims
module Effects = S1_analysis.Effects

type config = {
  beta : bool;  (** the three lambda rules *)
  fold : bool;  (** compile-time expression evaluation *)
  ifopt : bool;  (** conditional simplification and distribution *)
  assoc : bool;  (** associative/commutative canonicalization *)
  identities : bool;  (** identity-operand elimination *)
  deadcode : bool;  (** dead code elimination (if/caseq constants, progn) *)
  sinc : bool;  (** sin$f -> sinc$f strength reduction *)
  integrate : bool;  (** procedure integration (lambda substitution) *)
  typed_specialize : bool;  (** generic op -> type-specific op from declarations *)
  max_integrate_size : int;  (** complexity bound for duplicating a procedure *)
  max_duplicate_size : int;  (** complexity bound for duplicating an if arm *)
}

let default_config =
  { beta = true; fold = true; ifopt = true; assoc = true; identities = true; deadcode = true;
    sinc = true; integrate = true; typed_specialize = true; max_integrate_size = 40;
    max_duplicate_size = 8 }

let nothing =
  { beta = false; fold = false; ifopt = false; assoc = false; identities = false;
    deadcode = false; sinc = false; integrate = false; typed_specialize = false;
    max_integrate_size = 0; max_duplicate_size = 0 }

type ctx = { cfg : config; ts : Transcript.t }

module Remark = S1_obs.Remark

(* Remark messages embed source forms; keep them one-line short. *)
let short s = if String.length s <= 48 then s else String.sub s 0 45 ^ "..."

(* Count a rule firing both globally and per source line, so hot rewrite
   sites show up in --timings/--metrics alongside hot rules. *)
let count_fire rule (n : node) =
  S1_obs.Obs.incr ("rule." ^ rule);
  match n.n_loc with
  | Some l -> S1_obs.Obs.incr ("rule_at." ^ S1_loc.Loc.line_key l)
  | None -> ()

(* Someone reads the rewrite journals: the remarks registry or the §7
   transcript.  Back-translating a tree costs more than most rewrites,
   so the before/after text is built only then. *)
let journaling ts = Remark.enabled () || Transcript.enabled ts

let fire ctx rule (n : node) (new_kind : kind) =
  let before = if journaling ctx.ts then Some (Backtrans.to_string n) else None in
  set_kind n new_kind;
  n.n_dirty <- true;
  count_fire rule n;
  Option.iter
    (fun before ->
      Remark.passed ~pass:"simplify" ~rule ~node:n.n_id ?loc:n.n_loc
        (Printf.sprintf "optimized %s" (short before));
      Transcript.record ctx.ts ~node:n.n_id ?loc:n.n_loc ~before
        ~after:(Backtrans.to_string n) ~rule ())
    before;
  true

(* Constant truthiness of a quoted term. *)
let term_truth (s : Sexp.t) =
  match s with Sexp.Sym "NIL" | Sexp.List [] -> Some false | _ -> Some true

(* A "timeless" expression can be evaluated at any time with the same
   result: constants, never-assigned lexical variables, and applications
   of primitives the table marks timeless (pure, reading no mutable
   storage). *)
let rec timeless (n : node) =
  match n.kind with
  | Term _ -> true
  | Var v -> (not v.v_special) && v.v_binder <> None && v.v_setqs = []
  (* note: v_setqs may be stale within a sweep, but only toward over-
     approximation (a dropped setq keeps blocking until re-analysis) —
     rules never remove setq nodes while introducing new references *)
  | Call ({ kind = Term (Sexp.Sym f); _ }, args) ->
      (match Prims.find f with Some p -> p.Prims.timeless | None -> false)
      && List.for_all timeless args
  | If (p, x, y) -> timeless p && timeless x && timeless y
  | _ -> false

(* ---------------------------------------------------------------- *)
(* Beta conversion: META-CALL-LAMBDA and META-SUBSTITUTE              *)
(* ---------------------------------------------------------------- *)

(* Is this manifest-lambda call a plain LET (all required, arity match)? *)
let plain_let (l : lam) (args : node list) =
  List.length l.l_params = List.length args
  && List.for_all (fun p -> p.p_kind = Required) l.l_params

(* Reference counts and assignments are recomputed by scanning the
   actual tree: rules earlier in the same sweep may have created or
   destroyed references, and the cached back-pointer lists only refresh
   between sweeps.  Returns the number of references and whether any
   SETQ assigns [v]. *)
let occurrences root v =
  let refs = ref 0 and assigned = ref false in
  iter
    (fun n ->
      match n.kind with
      | Var v' when v' == v -> incr refs
      | Setq (v', _) when v' == v -> assigned := true
      | _ -> ())
    root;
  (!refs, !assigned)

let substitutable ctx root (p : param) (arg : node) =
  let v = p.p_var in
  let refs, assigned = occurrences root v in
  (* every `No carries its reason out as a Missed remark at the binding
     call: the negative space of beta-conversion *)
  let declined why extra =
    Remark.missed ~pass:"simplify" ~rule:"META-SUBSTITUTE" ~node:root.n_id ?loc:root.n_loc
      ~args:(("var", Remark.Str v.v_name) :: extra)
      why;
    `No
  in
  if v.v_special then declined "cannot substitute: variable is special (dynamic binding)" []
  else if assigned then declined "cannot substitute: variable is assigned (SETQ)" []
  else if refs = 0 then `Unused
  else if timeless arg && (refs = 1 || arg.n_complexity <= 2) then
    (* multi-reference substitution only for trivially cheap expressions,
       lest we duplicate work *)
    `Everywhere
  else
    let integration_ok =
      (* "Integration of procedures that are referred to in only one
         place" (§5): lambda arguments substitute only under the
         single-reference rule, gated by the integrate toggle; multi-
         reference local functions stay bound and compile as Jump/Fast
         lambdas. *)
      match arg.kind with Lambda _ -> ctx.cfg.integrate | _ -> true
    in
    (* Single-reference substitution of a pure (possibly allocating)
       argument, provided the reference is not under an inner lambda
       (evaluation count) and the argument cannot observe the body's
       effects (it is pure, so only control/timing matter). *)
    if not integration_ok then
      declined "procedure integration disabled" [ ("refs", Remark.Int refs) ]
    else if refs <> 1 then
      declined "referenced more than once and the argument is too complex to duplicate"
        [ ("refs", Remark.Int refs); ("complexity", Remark.Int arg.n_complexity) ]
    else if not (Effects.deletable arg) then declined "argument has side effects" []
    else if arg.n_effects.eff_special then declined "argument reads special variables" []
    else begin
      (* the one reference must not sit inside a nested lambda *)
      let under_lambda = ref false in
      let rec scan n inside =
        (match n.kind with
        | Var v' when v' == v && inside -> under_lambda := true
        | _ -> ());
        match n.kind with
        | Lambda l ->
            List.iter
              (fun p -> Option.iter (fun d -> scan d inside) p.p_default)
              l.l_params;
            scan l.l_body true
        | _ -> iter_children (fun c -> scan c inside) n
      in
      iter_children (fun c -> scan c false) root;
      if !under_lambda then
        declined "the reference sits under an inner lambda (evaluation count would change)"
          []
      else `Everywhere
    end

let subst_refs v arg body =
  let count = ref 0 in
  iter
    (fun n ->
      match n.kind with
      | Var v' when v' == v ->
          incr count;
          set_kind n
            (match arg.kind with
            | Term t -> Term t
            | Var v2 -> Var v2
            | _ -> (Freshen.copy arg).kind);
          n.n_dirty <- true
      | _ -> ())
    body;
  !count

let rule_beta ctx (n : node) =
  if not ctx.cfg.beta then false
  else
    match n.kind with
    (* Rule 1: ((lambda () body)) => body *)
    | Call ({ kind = Lambda { l_params = []; l_body; _ }; _ }, []) ->
        fire ctx "META-CALL-LAMBDA" n l_body.kind
    | Call (({ kind = Lambda l; _ } as f), args) when plain_let l args ->
        (* Try substitution (rule 3) and unused-parameter elimination
           (rule 2) pairwise. *)
        let changed = ref false in
        let keep =
          List.map2
            (fun p arg ->
              match substitutable ctx n p arg with
              | `No -> Some (p, arg)
              | `Unused ->
                  if Effects.deletable arg then begin
                    changed := true;
                    None
                  end
                  else Some (p, arg)
              | `Everywhere ->
                  if subst_refs p.p_var arg l.l_body > 0 then changed := true;
                  p.p_var.v_refs <- [];
                  if Effects.deletable arg then begin
                    changed := true;
                    None
                  end
                  else Some (p, arg))
            l.l_params args
        in
        if not !changed then false
        else begin
          let before = if journaling ctx.ts then Some (Backtrans.to_string n) else None in
          let kept = List.filter_map Fun.id keep in
          let params = List.map fst kept and args' = List.map snd kept in
          set_params l params;
          (* the let's lambda lost parameters: it changed too *)
          f.n_dirty <- true;
          set_kind n (if params = [] && args' = [] then l.l_body.kind else Call (f, args'));
          n.n_dirty <- true;
          count_fire "META-SUBSTITUTE" n;
          Option.iter
            (fun before ->
              Transcript.record ctx.ts ~node:n.n_id ?loc:n.n_loc ~before
                ~after:(Backtrans.to_string n) ~rule:"META-SUBSTITUTE" ())
            before;
          true
        end
    | _ -> false

(* ---------------------------------------------------------------- *)
(* Compile-time expression evaluation: META-EVALUATE                  *)
(* ---------------------------------------------------------------- *)

let rule_fold ctx (n : node) =
  if not ctx.cfg.fold then false
  else
    match n.kind with
    | Call ({ kind = Term (Sexp.Sym fname); _ }, args)
      when List.for_all is_constant args -> (
        match Prims.find fname with
        | Some { Prims.fold = Some f; Prims.pure = true; _ } -> (
            let consts = List.filter_map constant_value args in
            match f consts with
            | Some result -> fire ctx "META-EVALUATE" n (Term result)
            | None ->
                (* the folder refuses rather than misfold: fixnum overflow,
                   a domain error, or operand types the rule leaves to the
                   runtime (§5: "the compiler must be careful not to
                   evaluate expressions the runtime would trap") *)
                Remark.missed ~pass:"simplify" ~rule:"META-EVALUATE" ~node:n.n_id
                  ?loc:n.n_loc
                  ~args:[ ("fn", Remark.Str fname) ]
                  "constant operands but the folder declined (overflow, domain, or type \
                   rule)";
                false)
        | _ -> false)
    | _ -> false

(* ---------------------------------------------------------------- *)
(* Conditionals                                                       *)
(* ---------------------------------------------------------------- *)

let rule_if_constant ctx (n : node) =
  if not ctx.cfg.deadcode then false
  else
    match n.kind with
    | If ({ kind = Term t; _ }, x, y) -> (
        match term_truth t with
        | Some true -> fire ctx "DEAD-CODE-ELIMINATION" n x.kind
        | Some false -> fire ctx "DEAD-CODE-ELIMINATION" n y.kind
        | None -> false)
    | _ -> false

let rule_if_simplify ctx (n : node) =
  if not ctx.cfg.ifopt then false
  else
    match n.kind with
    (* (if (not p) x y) => (if p y x) *)
    | If ({ kind = Call ({ kind = Term (Sexp.Sym ("NOT" | "NULL")); _ }, [ q ]); _ }, x, y) ->
        fire ctx "SIMPLIFY-CONDITIONAL" n (If (q, y, x))
    (* (if v (if v x y) z) => (if v x z): nothing runs between the two
       tests, so the inner one is decided by the outer — safe even for
       special variables. *)
    | If (({ kind = Var v; _ } as p), { kind = If ({ kind = Var v'; _ }, x, _); _ }, z)
      when v == v' ->
        fire ctx "SIMPLIFY-CONDITIONAL" n (If (p, x, z))
    (* (if v x (if v y z)) => (if v x z) *)
    | If (({ kind = Var v; _ } as p), x, { kind = If ({ kind = Var v'; _ }, _, z); _ })
      when v == v' ->
        fire ctx "SIMPLIFY-CONDITIONAL" n (If (p, x, z))
    (* (if v v y) => (or-like); when v is boolean-used this is fine as is *)
    | _ -> false

(* (if (if x y z) v w): the §5 distribution.  Cheap arms are duplicated
   outright; otherwise introduce the (lambda (f g) ...) pattern "to avoid
   space-wasting duplication of the code for v and w". *)
let rule_if_of_if ctx (n : node) =
  if not ctx.cfg.ifopt then false
  else
    match n.kind with
    | If ({ kind = If (x, y, z); _ }, v, w) ->
        if
          v.n_complexity <= ctx.cfg.max_duplicate_size
          && w.n_complexity <= ctx.cfg.max_duplicate_size
          && Effects.duplicable v && Effects.duplicable w
        then
          let inner_then = mk (If (y, Freshen.copy v, Freshen.copy w)) in
          let inner_else = mk (If (z, Freshen.copy v, Freshen.copy w)) in
          fire ctx "META-DISTRIBUTE-IF" n (If (x, inner_then, inner_else))
        else begin
          Remark.analysis ~pass:"simplify" ~rule:"META-DISTRIBUTE-IF" ~node:n.n_id
            ?loc:n.n_loc
            ~args:
              [
                ("then_complexity", Remark.Int v.n_complexity);
                ("else_complexity", Remark.Int w.n_complexity);
                ("max_duplicate_size", Remark.Int ctx.cfg.max_duplicate_size);
              ]
            "arms too complex (or effectful) to duplicate; distributing through thunks";
          let fv = mkvar "F" and gv = mkvar "G" in
          let callf () = call (var fv) [] and callg () = call (var gv) [] in
          let inner_then = mk (If (y, callf (), callg ())) in
          let inner_else = mk (If (z, callf (), callg ())) in
          let body = mk (If (x, inner_then, inner_else)) in
          let wrapper =
            lambda ~name:"IF-DIST" [ required fv; required gv ] body
          in
          (match wrapper.kind with
          | Lambda wl ->
              fv.v_binder <- Some wrapper;
              gv.v_binder <- Some wrapper;
              ignore wl
          | _ -> ());
          let thunk name body_node =
            lambda ~name [] body_node
          in
          fire ctx "META-DISTRIBUTE-IF" n
            (Call (wrapper, [ thunk "F-THUNK" v; thunk "G-THUNK" w ]))
        end
    | _ -> false

(* Semi-canonicalizing hoists (paper §5, "not in themselves useful"). *)
let rule_if_hoist ctx (n : node) =
  if not ctx.cfg.ifopt then false
  else
    match n.kind with
    | If ({ kind = Progn items; _ }, x, y) when items <> [] -> (
        match List.rev items with
        | last :: front_rev ->
            let inner = mk (If (last, x, y)) in
            fire ctx "META-HOIST-PREDICATE" n (Progn (List.rev (inner :: front_rev)))
        | [] -> false)
    | If ({ kind = Call (({ kind = Lambda l; _ } as f), args); _ }, x, y)
      when plain_let l args ->
        let inner = mk (If (l.l_body, x, y)) in
        set_body l inner;
        fire ctx "META-HOIST-PREDICATE" n (Call (f, args))
    | _ -> false

(* ---------------------------------------------------------------- *)
(* Associative/commutative canonicalization                           *)
(* ---------------------------------------------------------------- *)

let rule_assoc ctx (n : node) =
  if not ctx.cfg.assoc then false
  else
    match n.kind with
    | Call (({ kind = Term (Sexp.Sym fname); _ } as f), args) -> (
        match Prims.find fname with
        | Some p when p.Prims.associative && List.length args >= 3 ->
            let rec pairs = function
              | [] -> true
              | x :: rest -> List.for_all (Effects.commutable x) rest && pairs rest
            in
            (* the rewrite reverses evaluation order, so every pair of
               operands must be exchangeable *)
            if not (pairs args) then begin
              Remark.missed ~pass:"simplify" ~rule:"META-EVALUATE-ASSOC-COMMUT-CALL"
                ~node:n.n_id ?loc:n.n_loc
                ~args:
                  [ ("fn", Remark.Str fname); ("operands", Remark.Int (List.length args)) ]
                "operands cannot be reordered: side effects make a pair non-commutable";
              false
            end
            else
              (* (+$f a b c) => (+$f (+$f c b) a), matching the paper's
                 §7 transcript exactly: fold from the right, reversed. *)
              (match List.rev args with
              | last :: prev :: rest ->
                  let seed = call (Freshen.copy f) [ last; prev ] in
                  let nested =
                    List.fold_left (fun acc a -> call (Freshen.copy f) [ acc; a ]) seed rest
                  in
                  (match nested.kind with
                  | Call (_, _) -> fire ctx "META-EVALUATE-ASSOC-COMMUT-CALL" n nested.kind
                  | _ -> false)
              | _ -> false)
        | Some p
          when p.Prims.associative && p.Prims.identity <> None && List.length args = 1
               && Effects.deletable n ->
            (* (+ x) => x *)
            fire ctx "META-EVALUATE-ASSOC-COMMUT-CALL" n (List.hd args).kind
        | Some p when p.Prims.associative && p.Prims.identity <> None && args = [] ->
            fire ctx "META-EVALUATE-ASSOC-COMMUT-CALL" n (Term (Option.get p.Prims.identity))
        | _ -> false)
    | _ -> false

let rule_reverse_args ctx (n : node) =
  if not ctx.cfg.assoc then false
  else
    match n.kind with
    | Call (({ kind = Term (Sexp.Sym fname); _ } as f), [ a; b ])
      when is_constant b && not (is_constant a) -> (
        match Prims.find fname with
        | Some p when p.Prims.commutative ->
            (* constants first, to promote compile-time evaluation *)
            fire ctx "CONSIDER-REVERSING-ARGUMENTS" n (Call (f, [ b; a ]))
        | _ -> false)
    | _ -> false

let rule_identity ctx (n : node) =
  if not ctx.cfg.identities then false
  else
    match n.kind with
    | Call ({ kind = Term (Sexp.Sym fname); _ }, [ a; b ]) -> (
        match Prims.find fname with
        | Some { Prims.identity = Some id; _ } ->
            if is_constant a && constant_value a = Some id then
              fire ctx "META-IDENTITY-OPERAND" n b.kind
            else if is_constant b && constant_value b = Some id then
              fire ctx "META-IDENTITY-OPERAND" n a.kind
            else false
        | _ -> false)
    | _ -> false

(* ---------------------------------------------------------------- *)
(* Progn and caseq                                                    *)
(* ---------------------------------------------------------------- *)

let rule_progn ctx (n : node) =
  if not ctx.cfg.deadcode then false
  else
    match n.kind with
    | Progn [] -> fire ctx "META-PROGN-SIMPLIFY" n (Term Sexp.nil)
    | Progn [ x ] -> fire ctx "META-PROGN-SIMPLIFY" n x.kind
    | Progn items ->
        let flattened = ref false in
        let items' =
          List.concat_map
            (fun item ->
              match item.kind with
              | Progn inner ->
                  flattened := true;
                  inner
              | _ -> [ item ])
            items
        in
        let rec drop = function
          | [] -> []
          | [ last ] -> [ last ]
          | x :: rest ->
              if Effects.deletable x then begin
                flattened := true;
                drop rest
              end
              else x :: drop rest
        in
        let items'' = drop items' in
        if !flattened then
          fire ctx "META-PROGN-SIMPLIFY" n
            (match items'' with [ one ] -> one.kind | many -> Progn many)
        else false
    | _ -> false

let rule_caseq_constant ctx (n : node) =
  if not ctx.cfg.deadcode then false
  else
    match n.kind with
    | Caseq ({ kind = Term k; _ }, clauses, default) ->
        let matches key = Sexp.equal key k in
        let rec pick = function
          | [] -> (
              match default with
              | Some d -> fire ctx "DEAD-CODE-ELIMINATION" n d.kind
              | None -> fire ctx "DEAD-CODE-ELIMINATION" n (Term Sexp.nil))
          | (keys, body) :: rest ->
              if List.exists matches keys then fire ctx "DEAD-CODE-ELIMINATION" n body.kind
              else pick rest
        in
        pick clauses
    | _ -> false

(* ---------------------------------------------------------------- *)
(* sin$f -> sinc$f (machine-inspired, machine-independent)            *)
(* ---------------------------------------------------------------- *)

let one_over_two_pi = S1_machine.Float36.single_of_float (1.0 /. (2.0 *. Float.pi))

let rule_sinc ctx (n : node) =
  if not ctx.cfg.sinc then false
  else
    match n.kind with
    | Call ({ kind = Term (Sexp.Sym ("SIN$F" | "COS$F" as fname)); _ }, [ x ]) ->
        let target = if fname = "SIN$F" then "SINC$F" else "COSC$F" in
        (* constant second, as in the paper's §7; the
           CONSIDER-REVERSING-ARGUMENTS rule then puts it first *)
        let scaled =
          call
            (term (Sexp.Sym "*$F"))
            [ x; term (Sexp.Float (one_over_two_pi, Sexp.Single)) ]
        in
        fire ctx "META-SIN-TO-SINC" n (Call (term (Sexp.Sym target), [ scaled ]))
    | _ -> false

(* ---------------------------------------------------------------- *)
(* Declared-type specialization (the bracketed data-type analysis)    *)
(* ---------------------------------------------------------------- *)

let declared_rep (n : node) : rep option =
  match n.kind with
  | Term (Sexp.Float (_, (Sexp.Single | Sexp.Half))) -> Some SWFLO
  | Term (Sexp.Int _) -> Some SWFIX
  | Var v -> (
      match v.v_decl with
      | Some r -> if v.v_setqs = [] || true then Some r else None
      | None -> None)
  | Call ({ kind = Term (Sexp.Sym f); _ }, _) -> (
      match Prims.find f with Some { Prims.res_rep = Some r; _ } -> Some r | _ -> None)
  | _ -> None

let rule_type_specialize ctx (n : node) =
  if not ctx.cfg.typed_specialize then false
  else
    match n.kind with
    | Call ({ kind = Term (Sexp.Sym fname); _ }, args)
      when args <> [] && List.for_all (fun a -> declared_rep a = Some SWFLO) args -> (
        match Prims.find fname with
        | Some { Prims.single_float = Some f'; _ } ->
            fire ctx "META-TYPE-SPECIALIZE" n (Call (term (Sexp.Sym f'), args))
        | _ -> false)
    | _ -> false

(* ---------------------------------------------------------------- *)

(* The transcript names rules fire under (the paper's §7 spelling).  The
   metrics export pre-seeds a "rule.<NAME>" counter for each, so the JSON
   schema lists every rule even in compiles where none fire. *)
let transcript_rule_names =
  [
    "META-CALL-LAMBDA";
    "META-SUBSTITUTE";
    "META-EVALUATE";
    "META-EVALUATE-ASSOC-COMMUT-CALL";
    "META-IDENTITY-OPERAND";
    "META-PROGN-SIMPLIFY";
    "META-DISTRIBUTE-IF";
    "META-HOIST-PREDICATE";
    "META-SIN-TO-SINC";
    "META-TYPE-SPECIALIZE";
    "CONSIDER-REVERSING-ARGUMENTS";
    "SIMPLIFY-CONDITIONAL";
    "DEAD-CODE-ELIMINATION";
  ]

(* The node kind a rule's pattern matches at the top.  A rule returns
   false, and does nothing else, on a node of any other kind, so the
   simplifier tries it only on nodes of its shape. *)
type shape = On_call | On_if | On_progn | On_caseq

let shape_of (k : kind) =
  match k with
  | Call _ -> Some On_call
  | If _ -> Some On_if
  | Progn _ -> Some On_progn
  | Caseq _ -> Some On_caseq
  | _ -> None

(* The order rules are tried at a node. *)
let all_rules : (string * shape * (ctx -> node -> bool)) list =
  [
    ("beta", On_call, rule_beta);
    ("fold", On_call, rule_fold);
    ("if-constant", On_if, rule_if_constant);
    ("if-simplify", On_if, rule_if_simplify);
    ("if-of-if", On_if, rule_if_of_if);
    ("if-hoist", On_if, rule_if_hoist);
    ("assoc", On_call, rule_assoc);
    ("reverse-args", On_call, rule_reverse_args);
    ("identity", On_call, rule_identity);
    ("progn", On_progn, rule_progn);
    ("caseq-constant", On_caseq, rule_caseq_constant);
    ("sinc", On_call, rule_sinc);
    ("type-specialize", On_call, rule_type_specialize);
  ]
