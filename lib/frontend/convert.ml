(** Conversion of macro-expanded source into the internal tree.

    Scope resolution happens here: every binding creates a fresh
    {!Node.var} and references are resolved lexically, so distinct
    variables sharing a name are already distinct records ("two variables
    with the same name may be distinct because of scoping rules", §4.1).
    A reference with no lexical binding is a {e dynamic} (special)
    reference, resolved by deep binding at run time; one shared record
    per free name keeps its references together.

    A symbol in function position that is not lexically bound denotes the
    global function of that name and is represented as a symbol constant
    in the function slot of the [call] node (Table 2's "calling a user-
    or system-defined function" case). *)

module Sexp = S1_sexp.Sexp
module Reader = S1_sexp.Reader
module Loc = S1_loc.Loc
open S1_ir

(* Typed diagnostic: [loc] is the position of the form being converted
   when the reader supplied one ({!Node.current_origin} tracks it during
   the walk), so batch mode can report file:line:col instead of a
   backtrace. *)
exception Convert_error of { message : string; loc : Loc.t option }

let err fmt =
  Printf.ksprintf
    (fun s -> raise (Convert_error { message = s; loc = Node.origin () }))
    fmt

type env = {
  lexical : (string * Node.var) list;
  globals : (string, Node.var) Hashtbl.t;  (** shared records for free names *)
  specials : string -> bool;  (** globally proclaimed special names *)
  locs : Sexp.t -> Loc.t option;  (** source positions of forms (provenance) *)
}

let lookup env name = List.assoc_opt name env.lexical

let global_var env name =
  match Hashtbl.find_opt env.globals name with
  | Some v -> v
  | None ->
      let v = Node.mkvar ~special:true name in
      Hashtbl.replace env.globals name v;
      v

(* Parse declarations attached to a body by the macro expander. *)
type decls = { d_specials : string list; d_types : (string * Node.rep) list }

let empty_decls = { d_specials = []; d_types = [] }

let rep_of_type_name = function
  | "FIXNUM" | "INTEGER" -> Some Node.SWFIX
  | "SINGLE-FLOAT" | "FLONUM" | "FLOAT" -> Some Node.SWFLO
  | "DOUBLE-FLOAT" -> Some Node.DWFLO
  | "SHORT-FLOAT" | "HALF-FLOAT" -> Some Node.HWFLO
  | _ -> None

let parse_declare decls = function
  | Sexp.List (Sexp.Sym "SPECIAL" :: names) ->
      {
        decls with
        d_specials =
          List.filter_map (function Sexp.Sym n -> Some n | _ -> None) names
          @ decls.d_specials;
      }
  | Sexp.List (Sexp.Sym "TYPE" :: Sexp.Sym ty :: names) -> (
      match rep_of_type_name ty with
      | Some rep ->
          {
            decls with
            d_types =
              List.filter_map (function Sexp.Sym n -> Some (n, rep) | _ -> None) names
              @ decls.d_types;
          }
      | None -> decls)
  | Sexp.List (Sexp.Sym ty :: names) when rep_of_type_name ty <> None -> (
      match rep_of_type_name ty with
      | Some rep ->
          {
            decls with
            d_types =
              List.filter_map (function Sexp.Sym n -> Some (n, rep) | _ -> None) names
              @ decls.d_types;
          }
      | None -> decls)
  | _ -> decls

let split_declares body =
  match body with
  | Sexp.List (Sexp.Sym "%DECLARE-BODY" :: rest) -> (
      match List.rev rest with
      | last :: decl_forms_rev ->
          let decls =
            List.fold_left
              (fun acc d ->
                match d with
                | Sexp.List (Sexp.Sym "DECLARE" :: items) -> List.fold_left parse_declare acc items
                | _ -> acc)
              empty_decls (List.rev decl_forms_rev)
          in
          (decls, last)
      | [] -> (empty_decls, Sexp.nil))
  | _ -> (empty_decls, body)

(* Lambda lists ----------------------------------------------------------- *)

type raw_param = { rp_name : string; rp_default : Sexp.t option; rp_kind : Node.param_kind }

let parse_lambda_list params =
  let mode = ref Node.Required in
  let out = ref [] in
  List.iter
    (fun p ->
      match p with
      | Sexp.Sym "&OPTIONAL" -> mode := Node.Optional
      | Sexp.Sym "&REST" -> mode := Node.Rest
      | Sexp.Sym name ->
          let default = if !mode = Node.Optional then Some Sexp.nil else None in
          out := { rp_name = name; rp_default = default; rp_kind = !mode } :: !out
      | Sexp.List [ Sexp.Sym name; default ] when !mode = Node.Optional ->
          out := { rp_name = name; rp_default = Some default; rp_kind = !mode } :: !out
      | other -> err "malformed lambda list entry: %s" (Sexp.to_string other))
    params;
  let ps = List.rev !out in
  (* validity: required* optional* rest? *)
  let rec check seen = function
    | [] -> ()
    | { rp_kind = Node.Required; _ } :: rest ->
        if seen > 0 then err "required parameter after &optional/&rest" else check 0 rest
    | { rp_kind = Node.Optional; _ } :: rest ->
        if seen > 1 then err "&optional after &rest" else check 1 rest
    | { rp_kind = Node.Rest; _ } :: rest -> (
        match rest with [] -> check 2 [] | _ -> err "parameters after &rest")
  in
  check 0 ps;
  ps

(* Conversion ---------------------------------------------------------------- *)

(* Keep {!Node.current_origin} pointed at the position of the form being
   converted while its nodes are built: forms without their own position
   inherit the nearest located ancestor's.  Restored on exit so a sibling
   does not inherit a position from deep inside the previous subtree. *)
let rec conv env (s : Sexp.t) : Node.node =
  match env.locs s with
  | None -> conv_here env s
  | Some l ->
      let saved = Node.origin () in
      Node.set_origin (Some l);
      let n = conv_here env s in
      Node.set_origin saved;
      n

and conv_here env (s : Sexp.t) : Node.node =
  match s with
  | Sexp.Sym name -> (
      match lookup env name with
      | Some v -> Node.var v
      | None ->
          if name = "T" || name = "NIL" then Node.term (Sexp.Sym name)
          else Node.var (global_var env name))
  | Sexp.Int _ | Sexp.Big _ | Sexp.Ratio _ | Sexp.Float _ | Sexp.Str _ | Sexp.Char _ ->
      Node.term s
  | Sexp.List [] -> Node.term Sexp.nil
  | Sexp.Dotted _ -> err "dotted list in code: %s" (Sexp.to_string s)
  | Sexp.List (head :: rest) -> conv_form env head rest s

and conv_form env head rest original =
  match (head, rest) with
  | Sexp.Sym "QUOTE", [ q ] -> Node.term q
  | Sexp.Sym "IF", [ p; x; y ] -> Node.if_ (conv env p) (conv env x) (conv env y)
  | Sexp.Sym "PROGN", xs -> (
      match xs with [] -> Node.term Sexp.nil | _ -> Node.progn (List.map (conv env) xs))
  | Sexp.Sym "%DECLARE-BODY", _ ->
      (* declarations in a non-binding position: honour specials, drop types *)
      let _, body = split_declares original in
      conv env body
  | Sexp.Sym "SETQ", [ Sexp.Sym name; e ] ->
      let v =
        match lookup env name with Some v -> v | None -> global_var env name
      in
      Node.setq v (conv env e)
  | Sexp.Sym "LAMBDA", (Sexp.List params :: body) -> conv_lambda env "LAMBDA" params body
  | Sexp.Sym "FUNCTION", [ Sexp.Sym name ] -> (
      match lookup env name with
      | Some v -> Node.var v
      | None ->
          Node.call
            (Node.term (Sexp.Sym "SYMBOL-FUNCTION"))
            [ Node.term (Sexp.Sym name) ])
  | Sexp.Sym "FUNCTION", [ (Sexp.List (Sexp.Sym "LAMBDA" :: _) as lam) ] -> conv env lam
  | Sexp.Sym "CASEQ", (key :: clauses) ->
      let default = ref None in
      let cls =
        List.filter_map
          (fun c ->
            match c with
            | Sexp.List [ Sexp.Sym "T"; body ] ->
                default := Some (conv env body);
                None
            | Sexp.List [ Sexp.List keys; body ] -> Some (keys, conv env body)
            | other -> err "malformed CASEQ clause: %s" (Sexp.to_string other))
          clauses
      in
      Node.mk (Node.Caseq (conv env key, cls, !default))
  | Sexp.Sym "CATCH", [ tag; body ] -> Node.mk (Node.Catcher (conv env tag, conv env body))
  | Sexp.Sym "%PROGBODY", items ->
      let items =
        List.map
          (function
            | Sexp.Sym tag -> Node.Ptag tag
            | stmt -> Node.Pstmt (conv env stmt))
          items
      in
      Node.mk (Node.Progbody (Node.mk_pb items))
  | Sexp.Sym "GO", [ Sexp.Sym tag ] -> Node.mk (Node.Go tag)
  | Sexp.Sym "RETURN", [ e ] -> Node.mk (Node.Return (conv env e))
  | Sexp.Sym "DECLARE", _ -> Node.term Sexp.nil
  | Sexp.Sym fname, args -> (
      match lookup env fname with
      | Some v -> Node.call (Node.var v) (List.map (conv env) args)
      | None -> Node.call (Node.term (Sexp.Sym fname)) (List.map (conv env) args))
  | (Sexp.List _ as f), args -> Node.call (conv env f) (List.map (conv env) args)
  | f, _ -> err "cannot call %s" (Sexp.to_string f)

and conv_lambda env name params body =
  let raw = parse_lambda_list params in
  let body_form =
    match body with [ b ] -> b | bs -> Sexp.List (Sexp.Sym "PROGN" :: bs)
  in
  let decls, body_form = split_declares body_form in
  (* Build parameters left to right; each default expression sees the
     parameters to its left (paper §2). *)
  let lex = ref env.lexical in
  let params =
    List.map
      (fun rp ->
        let special = env.specials rp.rp_name || List.mem rp.rp_name decls.d_specials in
        let v = Node.mkvar ~special rp.rp_name in
        (match List.assoc_opt rp.rp_name decls.d_types with
        | Some rep -> v.Node.v_decl <- Some rep
        | None -> ());
        let default =
          Option.map (fun d -> conv { env with lexical = !lex } d) rp.rp_default
        in
        lex := (rp.rp_name, v) :: !lex;
        { Node.p_var = v; p_default = default; p_kind = rp.rp_kind })
      raw
  in
  let body_node = conv { env with lexical = !lex } body_form in
  let lam_node = Node.lambda ~name params body_node in
  List.iter (fun p -> p.Node.p_var.Node.v_binder <- Some lam_node) params;
  lam_node

let make_env ?(specials = fun _ -> false) ?locs () =
  let locs =
    match locs with
    | None -> fun _ -> None
    | Some tab -> Reader.find_loc tab
  in
  { lexical = []; globals = Hashtbl.create 16; specials; locs }

(* With a location table in hand, let macro expansion propagate each
   original form's position onto its expansion, and keep the node origin
   scoped to this conversion. *)
let with_provenance ?locs (s : Sexp.t) f =
  match locs with
  | None -> Node.with_origin None f
  | Some tab ->
      let hook orig result =
        match Reader.find_loc tab orig with
        | Some l -> Reader.add_loc tab result l
        | None -> ()
      in
      Macroexp.with_loc_hook hook (fun () ->
          Node.with_origin (Reader.find_loc tab s) f)

let expression ?specials ?(macros = fun _ -> None) ?locs (s : Sexp.t) : Node.node =
  Macroexp.with_macros macros (fun () ->
      with_provenance ?locs s (fun () ->
          conv (make_env ?specials ?locs ()) (Macroexp.expand s)))

let defun ?specials ?(macros = fun _ -> None) ?locs (s : Sexp.t) : string * Node.node =
  match s with
  | Sexp.List (Sexp.Sym "DEFUN" :: Sexp.Sym name :: Sexp.List params :: body) ->
      Macroexp.with_macros macros (fun () ->
          with_provenance ?locs s (fun () ->
              let env = make_env ?specials ?locs () in
              let lam =
                conv_lambda env name (Macroexp.expand_params params)
                  [ Macroexp.expand_body body ]
              in
              (match lam.Node.kind with
              | Node.Lambda l -> l.Node.l_strategy <- Node.Toplevel
              | _ -> err "DEFUN %s did not convert to a lambda" name);
              (name, lam)))
  | Sexp.List [ Sexp.Sym "DEFUN"; Sexp.Sym name ] -> err "DEFUN %s has no parameter list" name
  | Sexp.List (Sexp.Sym "DEFUN" :: Sexp.Sym name :: params :: _) ->
      err "DEFUN %s: parameter list %s is not a proper list" name (Sexp.to_string params)
  | _ -> err "not a DEFUN: %s" (Sexp.to_string s)

(* Top-level forms ---------------------------------------------------------- *)

(** What a top-level form does to the world.  This is the one reading of
    a form that the interpreter, the compiler and image replay all
    dispatch on; ['u] is what an engine loads for it (the source form
    here, a compiled unit in a serialized image). *)
type 'u toplevel =
  | Defun of 'u  (** sets the function cell of the DEFUN's name *)
  | Defmacro of string * 'u
      (** macro name; the expander, a [%MACRO-name] DEFUN over the raw
          argument forms *)
  | Defvar of string * 'u  (** variable name; the init form *)
  | Proclaim of string list  (** names proclaimed SPECIAL *)
  | Toplevel of 'u  (** any other form, evaluated for its value *)

let toplevel (s : Sexp.t) : Sexp.t toplevel =
  match s with
  | Sexp.List (Sexp.Sym "DEFUN" :: Sexp.Sym _ :: _) -> Defun s
  | Sexp.List (Sexp.Sym "DEFMACRO" :: Sexp.Sym name :: (Sexp.List _ as params) :: body) ->
      Defmacro
        (name, Sexp.List (Sexp.Sym "DEFUN" :: Sexp.Sym ("%MACRO-" ^ name) :: params :: body))
  | Sexp.List [ Sexp.Sym "DEFVAR"; Sexp.Sym name; init ] -> Defvar (name, init)
  | Sexp.List
      [ Sexp.Sym "PROCLAIM";
        Sexp.List [ Sexp.Sym "QUOTE"; Sexp.List (Sexp.Sym "SPECIAL" :: names) ] ] ->
      Proclaim (List.filter_map (function Sexp.Sym n -> Some n | _ -> None) names)
  | _ -> Toplevel s
