(** Seeded generator of well-formed, terminating S-1 Lisp programs.

    The grammar is typed (fixnum / flonum / boolean / value) so that
    generated programs are overwhelmingly well-defined — divergences the
    oracle reports should be compiler bugs, not type-confusion noise —
    and deliberately aims at the paper's constructs: nested LET and
    direct LAMBDA application (the three beta rules), IF-of-IF and
    AND/OR combinations (the §5 distribution and short-circuit
    derivation), fixnum/flonum arithmetic under type declarations
    (META-TYPE-SPECIALIZE, representation analysis, pdl numbers),
    special variables (deep binding and the lookup cache), closures,
    DOTIMES loops (PROG/GO), CATCH/THROW, and bounded tail and non-tail
    recursion.

    Termination is by construction: the call graph of generated DEFUNs
    is a DAG except for self-recursion, and every self-recursive
    function decrements an explicit fixnum counter tested against zero,
    called with a small literal.  Loops are DOTIMES with literal
    counts.  No other looping construct is emitted. *)

module Sexp = S1_sexp.Sexp

type ty = Int | Flo | Bool | Val

type fn = {
  fn_name : string;
  fn_params : ty list;
  fn_ret : ty;
  fn_bounded : bool;
      (** first parameter is a recursion counter: call sites must pass a
          small non-negative literal *)
}

type env = {
  vars : (string * ty) list;  (** lexical variables in scope *)
  ro : string list;
      (** variables that must never be SETQ'd: DOTIMES indices and
          recursion counters, whose mutation would break the termination
          guarantee *)
  specials : string list;  (** DEFVAR'd dynamic variables (fixnum-valued) *)
  funs : fn list;  (** previously defined functions (callable) *)
  catches : (string * ty) list;  (** enclosing catch tags and their types *)
  fresh : int ref;  (** program-wide name counter *)
}

type program = { pr_seed : int; pr_forms : Sexp.t list }

(* Construction helpers ------------------------------------------------------ *)

let sym = Sexp.sym
let int_ i = Sexp.Int i
let list = Sexp.list
let quote = Sexp.quote

(* Flonum literals are quarters: exactly representable in every float
   width, so reading, printing, and 36-bit rounding are all identity. *)
let flo_lit quarters = Sexp.Float (float_of_int quarters /. 4.0, Sexp.Single)

let fresh env prefix =
  let n = !(env.fresh) in
  env.fresh := n + 1;
  Printf.sprintf "%s%d" prefix n

let vars_of_ty env ty = List.filter (fun (_, t) -> t = ty) env.vars

(* FIXNUM declarations let META-TYPE-SPECIALIZE rewrite arithmetic into
   +&/-&/*&, which trust the declaration: inline code wraps on overflow
   and the native builtins reject bignum arguments outright.  The
   interpreter ignores declarations and promotes to bignums, so a
   program whose declared-fixnum values escape fixnum range diverges
   through its own fault, not the compiler's.  Keep every integer value
   at rest in [-999, 999] by construction — clamping binding inits,
   SETQ values, call arguments and results, and multiply operands —
   so no intermediate computation can reach the 2^30 fixnum boundary:
   sums fan out by at most 3 per level over at most 4 levels (≤ ~250k)
   and products take at most three clamped operands (≤ 999^3 < 2^30). *)
let clamp_bound = 999

let clamp_int e =
  match e with
  | Sexp.Int _ | Sexp.Sym _ -> e (* literals and at-rest variables are already small *)
  | _ -> list [ sym "MIN"; int_ clamp_bound; list [ sym "MAX"; int_ (-clamp_bound); e ] ]

let declare_for (bindings : (string * ty) list) : Sexp.t list =
  let flos = List.filter_map (fun (n, t) -> if t = Flo then Some (sym n) else None) bindings in
  let ints = List.filter_map (fun (n, t) -> if t = Int then Some (sym n) else None) bindings in
  let items =
    (if flos = [] then [] else [ list (sym "FLONUM" :: flos) ])
    @ if ints = [] then [] else [ list (sym "FIXNUM" :: ints) ]
  in
  if items = [] then [] else [ list (sym "DECLARE" :: items) ]

(* Expression generation ------------------------------------------------------ *)

let rec expr (r : Prng.t) (env : env) (ty : ty) (d : int) : Sexp.t =
  match ty with
  | Int -> int_expr r env d
  | Flo -> flo_expr r env d
  | Bool -> bool_expr r env d
  | Val -> val_expr r env d

and leaf r env ty =
  match ty with
  | Int -> (
      match vars_of_ty env Int with
      | [] -> int_ (Prng.range r (-99) 99)
      | vs ->
          if Prng.chance r 1 2 then int_ (Prng.range r (-99) 99)
          else sym (fst (Prng.choose r vs)))
  | Flo -> (
      match vars_of_ty env Flo with
      | [] -> flo_lit (Prng.range r (-160) 160)
      | vs ->
          if Prng.chance r 1 2 then flo_lit (Prng.range r (-160) 160)
          else sym (fst (Prng.choose r vs)))
  | Bool -> if Prng.bool r then sym "T" else Sexp.nil
  | Val ->
      Prng.frequency r
        [
          (2, quote (sym (Prng.choose r [ "A"; "B"; "C"; "RED"; "GREEN" ])));
          (2, int_ (Prng.range r (-99) 99));
          (1, Sexp.nil);
          (1, quote (list [ int_ (Prng.range r 0 9); sym "X" ]));
        ]

(* A LET over fresh typed bindings, with type declarations, evaluating
   [body_ty].  Exercises beta conversion and binding annotation. *)
and let_expr r env body_ty d =
  let n = Prng.range r 1 2 in
  let bindings =
    List.init n (fun _ ->
        let ty = if Prng.chance r 1 3 then Flo else body_ty_binding r body_ty in
        (fresh env "X", ty))
  in
  let inits =
    List.map
      (fun (_, ty) ->
        let e = expr r env ty (d - 1) in
        if ty = Int then clamp_int e else e)
      bindings
  in
  let env' = { env with vars = bindings @ env.vars } in
  let body = expr r env' body_ty (d - 1) in
  list
    (sym "LET"
     :: list (List.map2 (fun (name, _) init -> list [ sym name; init ]) bindings inits)
     :: (declare_for bindings @ [ body ]))

and body_ty_binding r = function
  | Val -> Prng.choose r [ Int; Val ]
  | Bool -> Int
  | t -> t

(* Direct lambda application ((LAMBDA (p...) body) a...): the raw
   material of the three META-CALL-LAMBDA / META-SUBSTITUTE rules. *)
and lambda_call r env body_ty d =
  let n = Prng.range r 1 2 in
  let params = List.init n (fun _ -> (fresh env "X", if Prng.chance r 1 3 then Flo else Int)) in
  let args =
    List.map
      (fun (_, ty) ->
        let e = expr r env ty (d - 1) in
        if ty = Int then clamp_int e else e)
      params
  in
  let env' = { env with vars = params @ env.vars } in
  let body = expr r env' body_ty (d - 1) in
  list
    (list
       (sym "LAMBDA"
        :: list (List.map (fun (p, _) -> sym p) params)
        :: (declare_for params @ [ body ]))
    :: args)

(* (FUNCALL (LAMBDA ...) ...) or a LET-bound closure capturing the
   current scope. *)
and closure_call r env body_ty d =
  let p = fresh env "G" in
  let env' = { env with vars = (p, Int) :: env.vars } in
  let body = expr r env' body_ty (d - 1) in
  let lam = list [ sym "LAMBDA"; list [ sym p ]; body ] in
  let arg = clamp_int (expr r env Int (d - 1)) in
  if Prng.bool r then list [ sym "FUNCALL"; lam; arg ]
  else
    let g = fresh env "G" in
    list
      [ sym "LET"; list [ list [ sym g; lam ] ]; list [ sym "FUNCALL"; sym g; arg ] ]

(* (CATCH 'Kn body) where the body may THROW to Kn at the same type. *)
and catch_expr r env ty d =
  let tag = fresh env "K" in
  let env' = { env with catches = (tag, ty) :: env.catches } in
  list [ sym "CATCH"; quote (sym tag); expr r env' ty (d - 1) ]

and throw_expr r env (tag, ty) d = list [ sym "THROW"; quote (sym tag); expr r env ty (d - 1) ]

(* (LET ((A 0)) (DOTIMES (I k) (SETQ A ...)) A): bounded iteration
   through the PROG/GO machinery. *)
and dotimes_expr r env d =
  let acc = fresh env "X" and i = fresh env "I" in
  let env' = { env with vars = (acc, Int) :: (i, Int) :: env.vars; ro = i :: env.ro } in
  let step = int_expr r env' (d - 1) in
  list
    [
      sym "LET";
      list [ list [ sym acc; int_ (Prng.range r (-9) 9) ] ];
      list
        [
          sym "DOTIMES";
          list [ sym i; int_ (Prng.range r 1 5) ];
          list [ sym "SETQ"; sym acc; clamp_int (list [ sym "+"; sym acc; step ]) ];
        ];
      sym acc;
    ]

and call_fn r env ty d =
  let candidates = List.filter (fun f -> f.fn_ret = ty) env.funs in
  match candidates with
  | [] -> None
  | _ ->
      let f = Prng.choose r candidates in
      let args =
        List.mapi
          (fun i pty ->
            if i = 0 && f.fn_bounded then int_ (Prng.range r 0 8)
            else
              let e = expr r env pty (d - 1) in
              if pty = Int then clamp_int e else e)
          f.fn_params
      in
      let call = list (sym f.fn_name :: args) in
      Some (if ty = Int then clamp_int call else call)

and int_expr r env d =
  if d <= 0 then leaf r env Int
  else
    let throws = List.filter (fun (_, t) -> t = Int) env.catches in
    Prng.frequency r
      [
        (2, `Leaf);
        (4, `Arith);
        (1, `Unary);
        (1, `MinMax);
        (3, `If);
        (2, `Let);
        (1, `Progn);
        (1, `Lambda);
        (1, `Closure);
        (1, `Catch);
        ((if throws = [] then 0 else 1), `Throw);
        ((if env.specials = [] then 0 else 1), `Special);
        ((if env.specials = [] then 0 else 1), `SpecialBind);
        ((if call_possible env Int then 2 else 0), `Call);
        (1, `Dotimes);
        (1, `ThroughCons);
      ]
    |> function
    | `Leaf -> leaf r env Int
    | `Arith ->
        let op = Prng.choose r [ "+"; "-"; "*" ] in
        let n = Prng.range r 2 3 in
        if op = "*" then
          (* clamped operands keep the product below 999^3 < 2^30;
             clamping the result restores the at-rest invariant *)
          clamp_int
            (list (sym op :: List.init n (fun _ -> clamp_int (int_expr r env (d - 1)))))
        else list (sym op :: List.init n (fun _ -> int_expr r env (d - 1)))
    | `Unary ->
        let op = Prng.choose r [ "1+"; "1-"; "ABS" ] in
        list [ sym op; int_expr r env (d - 1) ]
    | `MinMax ->
        let op = Prng.choose r [ "MIN"; "MAX" ] in
        let n = Prng.range r 2 3 in
        list (sym op :: List.init n (fun _ -> int_expr r env (d - 1)))
    | `If -> list [ sym "IF"; bool_expr r env (d - 1); int_expr r env (d - 1); int_expr r env (d - 1) ]
    | `Let -> let_expr r env Int d
    | `Progn -> (
        match
          List.filter (fun (nm, _) -> not (List.mem nm env.ro)) (vars_of_ty env Int)
        with
        | [] -> leaf r env Int
        | vs ->
            let v = fst (Prng.choose r vs) in
            list
              [
                sym "PROGN";
                list [ sym "SETQ"; sym v; clamp_int (int_expr r env (d - 1)) ];
                int_expr r env (d - 1);
              ])
    | `Lambda -> lambda_call r env Int d
    | `Closure -> closure_call r env Int d
    | `Catch -> catch_expr r env Int d
    | `Throw -> throw_expr r env (Prng.choose r throws) d
    | `Special -> sym (Prng.choose r env.specials)
    | `SpecialBind ->
        let s = Prng.choose r env.specials in
        if Prng.bool r then
          (* dynamic rebinding for the extent of the body *)
          list
            [
              sym "LET";
              list [ list [ sym s; clamp_int (int_expr r env (d - 1)) ] ];
              int_expr r env (d - 1);
            ]
        else list [ sym "SETQ"; sym s; clamp_int (int_expr r env (d - 1)) ]
    | `Call -> ( match call_fn r env Int d with Some e -> e | None -> leaf r env Int)
    | `Dotimes -> dotimes_expr r env d
    | `ThroughCons ->
        list
          [ sym "CAR"; list [ sym "CONS"; int_expr r env (d - 1); val_expr r env (d - 2) ] ]

and flo_expr r env d =
  if d <= 0 then leaf r env Flo
  else
    Prng.frequency r
      [
        (3, `Leaf);
        (4, `Arith);
        (1, `Mixed);
        (1, `OfInt);
        (2, `If);
        (2, `Let);
        (1, `MinMax);
        ((if call_possible env Flo then 2 else 0), `Call);
        (1, `Catch);
      ]
    |> function
    | `Leaf -> leaf r env Flo
    | `Arith ->
        let op = Prng.choose r [ "+"; "-"; "*" ] in
        let n = Prng.range r 2 3 in
        list (sym op :: List.init n (fun _ -> flo_expr r env (d - 1)))
    | `Mixed ->
        (* float contagion: one fixnum operand *)
        let op = Prng.choose r [ "+"; "-"; "*" ] in
        list [ sym op; flo_expr r env (d - 1); int_expr r env (d - 1) ]
    | `OfInt -> list [ sym "FLOAT"; int_expr r env (d - 1) ]
    | `If ->
        list [ sym "IF"; bool_expr r env (d - 1); flo_expr r env (d - 1); flo_expr r env (d - 1) ]
    | `Let -> let_expr r env Flo d
    | `MinMax ->
        let op = Prng.choose r [ "MIN"; "MAX" ] in
        list [ sym op; flo_expr r env (d - 1); flo_expr r env (d - 1) ]
    | `Call -> ( match call_fn r env Flo d with Some e -> e | None -> leaf r env Flo)
    | `Catch -> catch_expr r env Flo d

and bool_expr r env d =
  if d <= 0 then leaf r env Bool
  else
    Prng.frequency r
      [
        (1, `Leaf);
        (4, `Cmp);
        (1, `CmpFlo);
        (2, `Pred);
        (2, `Not);
        (3, `AndOr);
        (1, `If);
      ]
    |> function
    | `Leaf -> leaf r env Bool
    | `Cmp ->
        let op = Prng.choose r [ "<"; "<="; ">"; ">="; "=" ] in
        list [ sym op; int_expr r env (d - 1); int_expr r env (d - 1) ]
    | `CmpFlo ->
        let op = Prng.choose r [ "<"; "=" ] in
        list [ sym op; flo_expr r env (d - 1); flo_expr r env (d - 1) ]
    | `Pred ->
        let op = Prng.choose r [ "ZEROP"; "MINUSP"; "PLUSP"; "ODDP"; "EVENP" ] in
        list [ sym op; int_expr r env (d - 1) ]
    | `Not -> list [ sym "NOT"; bool_expr r env (d - 1) ]
    | `AndOr ->
        let op = Prng.choose r [ "AND"; "OR" ] in
        let n = Prng.range r 2 3 in
        list (sym op :: List.init n (fun _ -> bool_expr r env (d - 1)))
    | `If ->
        list
          [ sym "IF"; bool_expr r env (d - 1); bool_expr r env (d - 1); bool_expr r env (d - 1) ]

and val_expr r env d =
  if d <= 0 then leaf r env Val
  else
    Prng.frequency r
      [
        (2, `Leaf);
        (2, `Int);
        (1, `Flo);
        (2, `Cons);
        (1, `List);
        (1, `CarCdr);
        (1, `If);
        (1, `Let);
      ]
    |> function
    | `Leaf -> leaf r env Val
    | `Int -> int_expr r env d
    | `Flo -> flo_expr r env d
    | `Cons -> list [ sym "CONS"; val_expr r env (d - 1); val_expr r env (d - 1) ]
    | `List ->
        let n = Prng.range r 1 3 in
        list (sym "LIST" :: List.init n (fun _ -> val_expr r env (d - 1)))
    | `CarCdr ->
        let op = Prng.choose r [ "CAR"; "CDR" ] in
        list [ sym op; list [ sym "CONS"; val_expr r env (d - 1); val_expr r env (d - 1) ] ]
    | `If ->
        list [ sym "IF"; bool_expr r env (d - 1); val_expr r env (d - 1); val_expr r env (d - 1) ]
    | `Let -> let_expr r env Val d

and call_possible env ty = List.exists (fun f -> f.fn_ret = ty) env.funs

(* Top-level form generation -------------------------------------------------- *)

(* A self-recursive DEFUN over an explicit counter: tail-recursive
   (accumulator) or non-tail (combine after the recursive call). *)
let gen_recursive_defun r env name =
  let n = "N" and acc = fresh env "X" in
  let tail = Prng.bool r in
  let env' = { env with vars = [ (n, Int); (acc, Int) ]; ro = [ n ] } in
  let body =
    if tail then
      (* (IF (<= N 0) ACC (F (- N 1) (<op> ACC step))) *)
      list
        [
          sym "IF";
          list [ sym "<="; sym n; int_ 0 ];
          sym acc;
          list
            [
              sym name;
              list [ sym "-"; sym n; int_ 1 ];
              (* clamping the accumulator update keeps the declared-
                 fixnum ACC in range across all 8 iterations while the
                 self-call stays in tail position *)
              clamp_int
                (list
                   [
                     sym (Prng.choose r [ "+"; "*" ]);
                     sym acc;
                     clamp_int (int_expr r env' 2);
                   ]);
            ];
        ]
    else
      (* (IF (<= N 0) base (<op> (F (- N 1) ACC) extra)) *)
      list
        [
          sym "IF";
          list [ sym "<="; sym n; int_ 0 ];
          int_expr r env' 2;
          list
            [
              sym (Prng.choose r [ "+"; "*"; "MAX" ]);
              clamp_int (list [ sym name; list [ sym "-"; sym n; int_ 1 ]; sym acc ]);
              clamp_int (int_expr r env' 2);
            ];
        ]
  in
  let form =
    list
      (sym "DEFUN" :: sym name
      :: list [ sym n; sym acc ]
      :: (declare_for [ (n, Int); (acc, Int) ] @ [ body ]))
  in
  (form, { fn_name = name; fn_params = [ Int; Int ]; fn_ret = Int; fn_bounded = true })

let gen_plain_defun r env name =
  let nparams = Prng.range r 1 3 in
  let params =
    List.init nparams (fun _ -> (fresh env "P", if Prng.chance r 1 3 then Flo else Int))
  in
  let ret = Prng.frequency r [ (4, Int); (2, Flo); (1, Val) ] in
  let env' = { env with vars = params; catches = [] } in
  let body = expr r env' ret 3 in
  let form =
    list
      (sym "DEFUN" :: sym name
      :: list (List.map (fun (p, _) -> sym p) params)
      :: (declare_for params @ [ body ]))
  in
  (form, { fn_name = name; fn_params = List.map snd params; fn_ret = ret; fn_bounded = false })

let generate ~seed : program =
  let r = Prng.create seed in
  let fresh = ref 0 in
  let nspecials = Prng.range r 0 2 in
  let specials = List.init nspecials (fun i -> Printf.sprintf "*S%d*" i) in
  let defvars =
    List.map
      (fun s -> list [ sym "DEFVAR"; sym s; int_ (Prng.range r (-20) 20) ])
      specials
  in
  let env0 = { vars = []; ro = []; specials; funs = []; catches = []; fresh } in
  let nfuns = Prng.range r 1 3 in
  let env_final, defuns_rev =
    List.fold_left
      (fun (env, acc) i ->
        let name = Printf.sprintf "F%d" i in
        let form, f =
          if Prng.chance r 1 3 then gen_recursive_defun r env name
          else gen_plain_defun r env name
        in
        ({ env with funs = f :: env.funs }, form :: acc))
      (env0, [])
      (List.init nfuns Fun.id)
  in
  let top_ty = Prng.frequency r [ (4, Int); (2, Flo); (1, Bool); (2, Val) ] in
  let top = expr r { env_final with vars = [] } top_ty 4 in
  { pr_seed = seed; pr_forms = defvars @ List.rev defuns_rev @ [ top ] }

let render_forms (forms : Sexp.t list) : string =
  String.concat "\n" (List.map Sexp.to_string forms)

let render (p : program) : string = render_forms p.pr_forms
