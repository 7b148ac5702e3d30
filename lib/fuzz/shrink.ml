(** Greedy delta-debugging shrinker for counterexample programs.

    Given a program (a list of top-level forms) and a predicate "does it
    still fail", reduce to a local minimum: first try dropping whole
    top-level forms, then repeatedly try to replace each subexpression
    with one of its own subexpressions or a trivial atom.  Candidates
    that break well-formedness are rejected by the predicate itself (an
    ill-formed program makes the interpreter signal, which the oracle
    does not count as a divergence), so no grammar knowledge is needed
    here beyond "don't touch head symbols".

    Deterministic: candidate order is structural, no randomness, so the
    same failing program always shrinks to the same minimum. *)

module Sexp = S1_sexp.Sexp
module Obs = S1_obs.Obs

(* Subterm positions within one form, as paths of child indices.  Head
   symbols of applications/special forms are not positions — replacing
   them almost never type-checks and bloats the search. *)
let rec positions (path : int list) (s : Sexp.t) : (int list * Sexp.t) list =
  (List.rev path, s)
  ::
  (match s with
  | Sexp.List xs ->
      List.concat
        (List.mapi
           (fun i x ->
             match x with
             | Sexp.Sym _ when i = 0 -> []
             | _ -> positions (i :: path) x)
           xs)
  | _ -> [])

let rec replace_at (s : Sexp.t) (path : int list) (repl : Sexp.t) : Sexp.t =
  match path with
  | [] -> repl
  | i :: rest -> (
      match s with
      | Sexp.List xs -> Sexp.List (List.mapi (fun j x -> if j = i then replace_at x rest repl else x) xs)
      | _ -> s)

(* Candidate replacements for a subterm, biggest reduction first: its
   own (non-head) subexpressions, then trivial atoms. *)
let replacements (s : Sexp.t) : Sexp.t list =
  let children =
    match s with
    | Sexp.List (Sexp.Sym _ :: args) -> args
    | Sexp.List xs -> xs
    | _ -> []
  in
  let atoms = [ Sexp.Int 0; Sexp.nil ] in
  List.filter
    (fun c -> not (Sexp.equal c s))
    (children @ List.filter (fun a -> not (List.mem a children)) atoms)

let size_of_form (s : Sexp.t) : int =
  let rec sz = function
    | Sexp.List xs -> 1 + List.fold_left (fun a x -> a + sz x) 0 xs
    | _ -> 1
  in
  sz s

let size (forms : Sexp.t list) : int = List.fold_left (fun a f -> a + size_of_form f) 0 forms

(** [shrink ~still_fails forms] returns the reduced program and the
    number of accepted reduction steps.  [max_checks] bounds the number
    of oracle invocations (each one boots interpreter and compiler
    worlds, so the budget matters). *)
let shrink ~(still_fails : Sexp.t list -> bool) ?(max_checks = 400)
    (forms : Sexp.t list) : Sexp.t list * int =
  let checks = ref 0 in
  let steps = ref 0 in
  let try_candidate current candidate =
    if !checks >= max_checks then false
    else begin
      incr checks;
      size candidate < size current && still_fails candidate
    end
  in
  (* Phase 1: drop whole top-level forms (keeping at least one). *)
  let drop_pass forms =
    let rec go kept = function
      | [] -> List.rev kept
      | f :: rest ->
          let candidate = List.rev_append kept rest in
          if candidate <> [] && try_candidate (List.rev_append kept (f :: rest)) candidate
          then begin
            incr steps;
            Obs.incr "fuzz.shrink_steps";
            go kept rest
          end
          else go (f :: kept) rest
    in
    go [] forms
  in
  (* Phase 2: one pass of subterm replacement over every form; returns
     (changed?, forms'). *)
  let subterm_pass forms =
    let changed = ref false in
    let forms = Array.of_list forms in
    let n = Array.length forms in
    for i = 0 to n - 1 do
      let continue_ = ref true in
      while !continue_ && !checks < max_checks do
        continue_ := false;
        let pos = positions [] forms.(i) in
        (* outermost-first: big cuts early *)
        let try_all =
          List.exists
            (fun (path, sub) ->
              path <> []
              && List.exists
                   (fun repl ->
                     let form' = replace_at forms.(i) path repl in
                     let candidate =
                       List.mapi (fun j f -> if j = i then form' else f) (Array.to_list forms)
                     in
                     if try_candidate (Array.to_list forms) candidate then begin
                       forms.(i) <- form';
                       incr steps;
                       Obs.incr "fuzz.shrink_steps";
                       changed := true;
                       true
                     end
                     else false)
                   (replacements sub))
            pos
        in
        if try_all then continue_ := true
      done
    done;
    (!changed, Array.to_list forms)
  in
  let forms = drop_pass forms in
  let rec fix forms =
    let changed, forms' = subterm_pass forms in
    if changed && !checks < max_checks then fix (drop_pass forms') else forms'
  in
  let shrunk = fix forms in
  (shrunk, !steps)
