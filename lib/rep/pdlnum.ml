(** Pdl-number annotation (paper §6.3).

    When a raw machine number must be converted to pointer form, a
    lifetime analysis decides whether stack allocation suffices:

    - {b PDLOKP} (top-down): is the node's consumer willing to accept a
      pdl number (an "unsafe" pointer into the stack)?  Passing a pointer
      to a procedure or to a safe (non-storing) primitive is fine;
      storing it into heap structure ([rplaca], [cons], ...), a special
      variable, or returning it from the function is not.  The property
      points at the node that authorized it, bounding the required
      lifetime: in [(atan (if p x y) 3.0)], [x]'s PDLOKP points at the
      [atan] node, not the [if].
    - {b PDLNUMP} (bottom-up): might this node itself produce a fresh
      number needing a box?

    A node with both flags set, POINTER wantrep, and a raw numeric ISREP
    gets a stack slot instead of a heap box; the code generator feeds the
    slot to [MOVP] exactly as in Table 4.

    The analysis also remembers {e which} consumer forbade the stack box
    (the escape table below), so [--remarks] can say "this float went to
    the heap because it is returned from the function" rather than just
    that it did. *)

module Sexp = S1_sexp.Sexp
open S1_ir
open Node
module Prims = S1_frontend.Prims
module Remark = S1_obs.Remark

(* Why a node's value may not be a pdl number: the consumer that lets it
   escape the frame.  Only the PDL-ALLOCATE Missed remark renders one. *)
type escape =
  | Returned
  | Stored_in of string  (** the special or captured variable assigned *)
  | Bound_to of string  (** the special or captured variable bound *)
  | Stored_by of string  (** the storing primitive *)
  | Callee
  | Tail_argument
  | Crosses_catch
  | Prog_statement
  | Return_form

let escape_text = function
  | Returned -> "returned from the function"
  | Stored_in v -> "stored into the special or captured variable " ^ v
  | Bound_to v -> "bound to the captured or special variable " ^ v
  | Stored_by f -> "argument to the storing primitive " ^ f
  | Callee -> "callee position"
  | Tail_argument -> "argument to a tail call (frame reclaimed first)"
  | Crosses_catch -> "crosses a CATCH boundary"
  | Prog_statement -> "PROG statement (control may GO out)"
  | Return_form -> "returned via RETURN"

(* Top-down: [auth] is the id of the authorizing node, or -1; [why]
   names the consumer responsible whenever [auth] is -1, and [reasons],
   when remarks are on, keeps it by node id for them. *)
let rec okp reasons (n : node) (auth : int) (why : escape) : unit =
  n.n_pdlokp <- auth;
  (match reasons with Some t when auth < 0 -> Hashtbl.replace t n.n_id why | _ -> ());
  match n.kind with
  | Term _ | Var _ | Go _ -> ()
  | Setq (v, e) ->
      (* storing into a captured or special variable lets the pointer
         escape the frame *)
      if v.v_special || v.v_captured then okp reasons e (-1) (Stored_in v.v_name)
      else okp reasons e auth why
  | If (p, x, y) ->
      (* "it always of itself authorizes the predicate computation to
         produce a pdl number, because the conditional test performed by
         if is a safe operation"; the arms inherit the parent's
         authorization. *)
      okp reasons p n.n_id why;
      okp reasons x auth why;
      okp reasons y auth why
  | Progn xs ->
      let rec go = function
        | [] -> ()
        | [ last ] -> okp reasons last auth why
        | x :: rest ->
            okp reasons x n.n_id why (* value dropped: trivially safe *);
            go rest
      in
      go xs
  | Lambda l ->
      List.iter
        (fun p -> Option.iter (fun d -> okp reasons d n.n_id why) p.p_default)
        l.l_params;
      (* returning from a function is not safe *)
      okp reasons l.l_body (-1) Returned
  | Call ({ kind = Lambda l; _ }, args) when l.l_strategy = Open ->
      (* binding a local variable keeps the pointer in this frame: safe,
         authorized by the binding call as long as the variable is not
         captured *)
      List.iter2
        (fun p a ->
          if p.p_var.v_captured || p.p_var.v_special then
            okp reasons a (-1) (Bound_to p.p_var.v_name)
          else okp reasons a n.n_id why)
        l.l_params args;
      okp reasons l.l_body auth why
  | Call (f, args) -> (
      let prim = match f.kind with Term (Sexp.Sym fname) -> Prims.find fname | _ -> None in
      match prim with
      | Some { Prims.stores_args = true; name; _ } ->
          (* the primitive stores its arguments into visible structure (or
             otherwise lets them outlive the call): they must be safe *)
          let why = Stored_by name in
          List.iter (fun arg -> okp reasons arg (-1) why) args
      | Some _ -> List.iter (fun arg -> okp reasons arg n.n_id why) args
      | None ->
          okp reasons f (-1) Callee;
          (* "passing a pointer to a procedure is safe": arguments are
             valid for the callee's extent by convention — except for a
             tail call, whose frame (and pdl slots) are reclaimed before
             the callee runs *)
          if n.n_tail then List.iter (fun arg -> okp reasons arg (-1) Tail_argument) args
          else List.iter (fun arg -> okp reasons arg n.n_id why) args)
  | Caseq (key, clauses, default) ->
      okp reasons key n.n_id why;
      List.iter (fun (_, b) -> okp reasons b auth why) clauses;
      Option.iter (fun d -> okp reasons d auth why) default
  | Catcher (tag, body) ->
      okp reasons tag (-1) Crosses_catch;
      okp reasons body (-1) Crosses_catch
  | Progbody pb ->
      List.iter
        (function
          | Ptag _ -> () | Pstmt s -> okp reasons s (-1) Prog_statement)
        pb.pb_items
  | Return e -> okp reasons e (-1) Return_form

(* Bottom-up PDLNUMP: might this node deliver a freshly created number? *)
let rec nump (n : node) : bool =
  let kids_default () = iter_children (fun c -> ignore (nump c)) n in
  let v =
    match n.kind with
    | Term _ | Var _ | Go _ ->
        kids_default ();
        false
    | Setq (_, e) -> nump e
    | If (p, x, y) ->
        ignore (nump p);
        let a = nump x and b = nump y in
        a || b
    | Progn xs ->
        let rec go = function
          | [] -> false
          | [ last ] -> nump last
          | x :: rest ->
              ignore (nump x);
              go rest
        in
        go xs
    | Call ({ kind = Lambda l; _ }, args) when l.l_strategy = Open ->
        List.iter (fun a -> ignore (nump a)) args;
        nump l.l_body
    | Call (f, args) -> (
        List.iter (fun a -> ignore (nump a)) args;
        match f.kind with
        | Term (Sexp.Sym fname) -> (
            match Prims.find fname with
            | Some { Prims.res_rep = Some (SWFLO | DWFLO | HWFLO); _ } -> true
            | _ -> false)
        | _ ->
            ignore (nump f);
            false)
    | _ ->
        kids_default ();
        false
  in
  n.n_pdlnump <- v;
  v

(* Would the code generator box this node's value?  A fresh raw float
   delivered where a POINTER is wanted; Gen.annotate gives exactly such
   a node a pdl slot when its [n_pdlokp] authorizes one. *)
let boxes_a_float (n : node) =
  n.n_pdlnump && n.n_wantrep = POINTER && (n.n_isrep = SWFLO || n.n_isrep = HWFLO)

let run (root : node) : unit =
  S1_obs.Obs.with_span "pdlnum" (fun () ->
      (* node id -> why its PDLOKP is -1: the escaping consumer *)
      let reasons = if Remark.enabled () then Some (Hashtbl.create 64) else None in
      okp reasons root (-1) Returned;
      ignore (nump root);
      (* nodes where both analyses agree a stack box would be legal: the
         code generator turns the POINTER-wanted numeric ones into pdl
         slots (counted there as pdl.stack_boxes) *)
      iter
        (fun n -> if n.n_pdlokp >= 0 && n.n_pdlnump then S1_obs.Obs.incr "pdl.candidates")
        root;
      (* the declines: fresh floats whose lifetime escapes the frame must
         take a heap box no matter what the options say *)
      Option.iter
        (fun reasons ->
          iter
            (fun n ->
              if boxes_a_float n && n.n_pdlokp < 0 then
                let why =
                  match Hashtbl.find_opt reasons n.n_id with
                  | Some w -> escape_text w
                  | None -> "lifetime not bounded by a safe consumer"
                in
                Remark.missed ~pass:"pdlnum" ~rule:"PDL-ALLOCATE" ~node:n.n_id ?loc:n.n_loc
                  ~args:[ ("consumer", Remark.Str why) ]
                  "fresh float is heap-boxed: its lifetime escapes the frame")
            root)
        reasons)
