(** The reference interpreter.

    Evaluates the internal tree directly against the runtime world.  It
    exists for the same reasons the original had one: it defines the
    dialect's semantics (the compiler's output is differentially tested
    against it), and it is the baseline the compiler's speedups are
    measured from.

    Interpreted lambdas become real callable values: a closure object
    whose environment slot carries an index into an OCaml-side table of
    (lambda, environment) pairs, and whose code is a shared trampoline
    stub that traps back into {!eval}.  Compiled and interpreted code can
    therefore call each other freely through the ordinary CALL microcode.

    Non-local exits: interpreted [catch] pushes a {e marker} frame on the
    runtime's catch stack (so simulated and interpreted frames stay
    correctly ordered); {!Rt.do_throw} raises {!Rt.Thrown} when the
    target is such a marker, and the matching [catch] here consumes it. *)

module Cpu = S1_machine.Cpu
module Isa = S1_machine.Isa
module Mem = S1_machine.Mem
module Sexp = S1_sexp.Sexp
open S1_runtime
open S1_ir

exception Go_exc of string
exception Return_exc of int

exception Fuel_exhausted
(** Raised when an evaluation step budget (set via the [fuel] field, for
    fuzzing) runs out.  Distinct from {!Rt.Lisp_error}: exhaustion means
    "no verdict", not "the program is erroneous". *)

exception Tail_call of int * int list
(** Internal: a call in tail position targeting an interpreted closure;
    {!apply_closure} consumes it and loops, giving the interpreter the
    dialect's "tail-recursive semantics" (paper §2) — iterative behaviour
    with O(1) stack. *)

type env = (int * int ref) list  (** var id -> value cell *)

type closure_entry = { ce_lam : Node.lam; ce_env : env }

type t = {
  rt : Rt.t;
  consts : (int, int) Hashtbl.t;  (** node id -> constant value (rooted) *)
  mutable closures : closure_entry array;
  mutable n_closures : int;
  trampoline : int;  (** code object word for the interpreter stub *)
  macros : (string, int) Hashtbl.t;
      (** DEFMACRO expanders: macro name -> interpreted closure word.
          Mirrors {!S1_core.Compiler.t.macros} so the differential
          oracle can replay DEFMACRO-bearing corpus files on both
          engines. *)
  mutable fuel : int;
      (** remaining evaluation steps; negative means unlimited.  The
          differential fuzzer sets this so that a non-terminating shrink
          candidate becomes {!Fuel_exhausted} instead of a hang. *)
}

let svc_interp = Isa.register_svc "*:SQ-INTERP-TRAMPOLINE"

let create rt =
  let image =
    Cpu.load rt.Rt.cpu S1_machine.Asm.[ Instr (Isa.Svc svc_interp); Instr Isa.Ret ]
  in
  let name = Rt.intern rt "%INTERPRETED-FUNCTION" in
  let trampoline =
    Obj.code ~where:`Static rt.Rt.obj ~entry:image.S1_machine.Asm.org ~name ~min_args:0
      ~max_args:(-1)
  in
  let it =
    { rt; consts = Hashtbl.create 64; closures = [||]; n_closures = 0; trampoline;
      macros = Hashtbl.create 8; fuel = -1 }
  in
  (* Root the constant cache, all captured environments, catch tags,
     and the runtime's protected list. *)
  Heap.set_extra_roots rt.Rt.heap (fun () ->
      let acc = ref rt.Rt.protected in
      Hashtbl.iter (fun _ w -> acc := w :: !acc) it.consts;
      Hashtbl.iter (fun _ w -> acc := w :: !acc) it.macros;
      for i = 0 to it.n_closures - 1 do
        List.iter (fun (_, cell) -> acc := !cell :: !acc) it.closures.(i).ce_env
      done;
      List.iter (fun f -> acc := f.Rt.c_tag :: !acc) rt.Rt.catches;
      !acc);
  it

let constant it node_id sexp =
  match Hashtbl.find_opt it.consts node_id with
  | Some w -> w
  | None ->
      let w = Rt.sexp_to_value it.rt sexp in
      Hashtbl.replace it.consts node_id w;
      w

let add_closure it entry =
  if it.n_closures >= Array.length it.closures then begin
    let bigger = Array.make (max 8 (2 * Array.length it.closures)) entry in
    Array.blit it.closures 0 bigger 0 it.n_closures;
    it.closures <- bigger
  end;
  it.closures.(it.n_closures) <- entry;
  it.n_closures <- it.n_closures + 1;
  it.n_closures - 1

(* Evaluation ------------------------------------------------------------- *)

let special_symbol it (v : Node.var) = Rt.intern it.rt v.Node.v_name

let rec eval ?(tail = false) it (env : env) (n : Node.node) : int =
  if it.fuel >= 0 then
    if it.fuel = 0 then raise Fuel_exhausted else it.fuel <- it.fuel - 1;
  let rt = it.rt in
  ignore tail;
  match n.Node.kind with
  | Node.Term s -> constant it n.Node.n_id s
  | Node.Var v -> (
      (* lexical if a cell is in scope; otherwise dynamic (deep binding) *)
      if v.Node.v_special then Rt.symbol_value_dynamic rt (special_symbol it v)
      else
        match List.assq_opt v.Node.v_id env with
        | Some cell -> !cell
        | None -> Rt.symbol_value_dynamic rt (special_symbol it v))
  | Node.Setq (v, e) ->
      let value = eval it env e in
      (if v.Node.v_special then Rt.set_symbol_value_dynamic rt (special_symbol it v) value
       else
         match List.assq_opt v.Node.v_id env with
         | Some cell -> cell := value
         | None -> Rt.set_symbol_value_dynamic rt (special_symbol it v) value);
      value
  | Node.If (p, x, y) ->
      if Rt.truthy rt (eval it env p) then eval ~tail it env x else eval ~tail it env y
  | Node.Progn xs ->
      let rec go = function
        | [] -> rt.Rt.nil
        | [ last ] -> eval ~tail it env last
        | x :: rest ->
            ignore (eval it env x);
            go rest
      in
      go xs
  | Node.Lambda lam ->
      let idx = add_closure it { ce_lam = lam; ce_env = env } in
      Obj.closure rt.Rt.obj ~code:it.trampoline ~env:(Obj.fixnum idx)
  | Node.Call (f, args) ->
      let fobj = eval_function it env f in
      let argv = List.map (fun a -> eval it env a) args in
      if tail && is_interp_closure it fobj then raise (Tail_call (fobj, argv))
      else Rt.with_protected rt (fobj :: argv) (fun () -> Rt.call rt fobj argv)
  | Node.Caseq (key, clauses, default) ->
      let k = eval it env key in
      let rec match_clauses = function
        | [] -> ( match default with Some d -> eval it env d | None -> rt.Rt.nil)
        | (keys, body) :: rest ->
            if List.exists (fun ks -> Rt.eql rt k (constant_key it n ks)) keys then
              eval ~tail it env body
            else match_clauses rest
      in
      match_clauses clauses
  | Node.Catcher (tag, body) -> eval_catch it env tag body
  | Node.Progbody pb -> eval_progbody it env pb
  | Node.Go tag -> raise (Go_exc tag)
  | Node.Return e -> raise (Return_exc (eval it env e))

and constant_key it node ks =
  (* caseq keys are constants; cache under a synthetic (negative) id. *)
  let key_id = -((node.Node.n_id * 1024) + (Hashtbl.hash ks mod 1024)) in
  constant it key_id ks

and is_interp_closure it w =
  S1_machine.Tags.of_int (S1_machine.Word.tag_of w) = S1_machine.Tags.Closure
  && Obj.closure_code it.rt.Rt.obj w = it.trampoline

and eval_function it env (f : Node.node) =
  match f.Node.kind with
  | Node.Term (Sexp.Sym fname) -> Rt.function_of it.rt (Rt.intern it.rt fname)
  | _ -> eval it env f

and eval_catch it env tag body =
  let rt = it.rt in
  let cpu = rt.Rt.cpu in
  let tag_w = eval it env tag in
  let saved_catches = rt.Rt.catches in
  let saved_sp = Cpu.get_reg cpu Isa.sp
  and saved_fp = Cpu.get_reg cpu Isa.fp
  and saved_tp = Cpu.get_reg cpu Isa.tp
  and saved_env = Cpu.get_reg cpu Isa.env
  and saved_sb = Cpu.get_reg cpu Isa.sb in
  rt.Rt.catches <-
    {
      Rt.c_tag = tag_w;
      c_handler = -1;
      c_sp = saved_sp;
      c_fp = saved_fp;
      c_tp = saved_tp;
      c_env = saved_env;
      c_sb = saved_sb;
      c_catches_below = List.length saved_catches;
    }
    :: saved_catches;
  match eval it env body with
  | result ->
      rt.Rt.catches <- saved_catches;
      result
  | exception Rt.Thrown (t, v) when Rt.eql rt t tag_w ->
      Cpu.set_reg cpu Isa.sp saved_sp;
      Cpu.set_reg cpu Isa.fp saved_fp;
      Cpu.set_reg cpu Isa.tp saved_tp;
      Cpu.set_reg cpu Isa.env saved_env;
      Cpu.set_reg cpu Isa.sb saved_sb;
      rt.Rt.catches <- saved_catches;
      v
  | exception other ->
      rt.Rt.catches <- saved_catches;
      raise other

and eval_progbody it env (pb : Node.pb) =
  let items = Array.of_list pb.Node.pb_items in
  let tag_index t =
    let rec find i =
      if i >= Array.length items then None
      else match items.(i) with Node.Ptag t' when t' = t -> Some i | _ -> find (i + 1)
    in
    find 0
  in
  let rec run i =
    if i >= Array.length items then it.rt.Rt.nil
    else
      match items.(i) with
      | Node.Ptag _ -> run (i + 1)
      | Node.Pstmt s -> (
          match eval it env s with
          | _ -> run (i + 1)
          | exception Go_exc t -> (
              match tag_index t with Some j -> run (j + 1) | None -> raise (Go_exc t)))
  in
  try run 0 with Return_exc v -> v

(* Applying an interpreted closure from the trampoline ----------------------- *)

and apply_closure it idx (args : int list) : int =
  let { ce_lam = lam; ce_env = env } = it.closures.(idx) in
  let rt = it.rt in
  let rec bind env specials params args =
    match params with
    | [] ->
        if args <> [] then
          raise (Rt.Lisp_error (Printf.sprintf "%s: too many arguments" lam.Node.l_name))
        else (env, specials)
    | p :: rest -> (
        match p.Node.p_kind with
        | Node.Rest ->
            let rest_list = Obj.list_of rt.Rt.obj args in
            bind_one env specials p rest_list rest []
        | Node.Required -> (
            match args with
            | [] ->
                raise (Rt.Lisp_error (Printf.sprintf "%s: too few arguments" lam.Node.l_name))
            | a :: more -> bind_one env specials p a rest more)
        | Node.Optional -> (
            match args with
            | a :: more -> bind_one env specials p a rest more
            | [] ->
                let d =
                  match p.Node.p_default with Some d -> eval it env d | None -> rt.Rt.nil
                in
                bind_one env specials p d rest []))
  and bind_one env specials p value rest more_args =
    let v = p.Node.p_var in
    if v.Node.v_special then begin
      Rt.bind_special rt (special_symbol it v) value;
      bind env (specials + 1) rest more_args
    end
    else bind ((v.Node.v_id, ref value) :: env) specials rest more_args
  in
  let rec loop lam env args =
    let env', nspecials = bind env 0 lam.Node.l_params args in
    (* A frame that bound specials cannot tail-call away: its bindings
       must stay live until the callee returns. *)
    match
      Fun.protect
        ~finally:(fun () -> if nspecials > 0 then Rt.unbind_specials rt nspecials)
        (fun () -> eval ~tail:(nspecials = 0) it env' lam.Node.l_body)
    with
    | v -> v
    | exception Tail_call (fobj, argv) ->
        let idx = Obj.fixnum_value (Obj.closure_env rt.Rt.obj fobj) in
        let { ce_lam = lam'; ce_env = env'' } = it.closures.(idx) in
        loop lam' env'' argv
  in
  loop lam env args

(* Trampoline service ---------------------------------------------------------- *)

let install_trampoline rt it =
  let cpu = rt.Rt.cpu in
  let prev = cpu.Cpu.service in
  cpu.Cpu.service <-
    (fun c id ->
      if id = svc_interp then begin
        let idx = Obj.fixnum_value (Cpu.get_reg cpu Isa.env) in
        let args = Rt.frame_args rt in
        let result = apply_closure it idx args in
        Cpu.set_reg cpu Isa.a result
      end
      else prev c id)

(* Public API -------------------------------------------------------------------- *)

(* The interpreter lives in its world's service closure and heap roots,
   so the GC ends a world's lifetime along with the runtime's. *)
let boot ?config () =
  let rt = Builtins.boot ?config () in
  let it = create rt in
  install_trampoline rt it;
  it

(* A world ends with its last reference, so there is nothing to release;
   kept for existing callers. *)
let release (_ : t) = ()

let eval_node it node =
  try eval it [] node with
  | S1_runtime.Numerics.Not_a_number what -> raise (Rt.Lisp_error ("not a number: " ^ what))
  | Division_by_zero -> raise (Rt.Lisp_error "division by zero")
  | Failure msg -> raise (Rt.Lisp_error msg)

let define_function it name lam_node =
  let fobj = eval it [] lam_node in
  let sym = Rt.intern it.rt name in
  Rt.set_function it.rt sym fobj;
  sym

(* The conversion must agree with the compiler on which variables are
   special (so a LET of a DEFVAR'd name dynamically rebinds here too):
   consult the same runtime symbol flags the compiler's predicate reads. *)
let specials_pred it name =
  match Rt.find_symbol it.rt name with
  | Some sym when sym <> it.rt.Rt.nil && sym <> it.rt.Rt.t_ ->
      Obj.symbol_is_special it.rt.Rt.obj sym
  | _ -> false

(* Same contract as {!S1_core.Compiler.macros_pred}: the expander is
   applied to the unevaluated argument forms (as values) and the
   resulting value is read back as a form. *)
let macros_pred it name =
  match Hashtbl.find_opt it.macros name with
  | None -> None
  | Some fobj ->
      Some
        (fun (args : Sexp.t list) ->
          let argv = List.map (fun a -> Rt.sexp_to_value it.rt a) args in
          let result =
            Rt.with_protected it.rt argv (fun () -> Rt.call it.rt fobj argv)
          in
          Rt.value_to_sexp it.rt result)

let eval_sexp it sexp =
  match sexp with
  | Sexp.List (Sexp.Sym "DEFUN" :: Sexp.Sym name :: _) ->
      let _, lam_node =
        S1_frontend.Convert.defun ~specials:(specials_pred it)
          ~macros:(macros_pred it) sexp
      in
      define_function it name lam_node
  | Sexp.List (Sexp.Sym "DEFMACRO" :: Sexp.Sym name :: Sexp.List params :: body)
    ->
      (* the expander is an ordinary interpreted closure over the raw
         argument forms, exactly as the compiler builds a compiled one *)
      let expander_form =
        Sexp.List
          (Sexp.Sym "DEFUN" :: Sexp.Sym ("%MACRO-" ^ name) :: Sexp.List params :: body)
      in
      let _, lam_node =
        S1_frontend.Convert.defun ~specials:(specials_pred it)
          ~macros:(macros_pred it) expander_form
      in
      let fobj = eval it [] lam_node in
      Hashtbl.replace it.macros name fobj;
      Rt.intern it.rt name
  | Sexp.List [ Sexp.Sym "DEFVAR"; Sexp.Sym name; init ] ->
      let sym = Rt.intern it.rt name in
      Rt.proclaim_special it.rt sym;
      let v =
        eval it []
          (S1_frontend.Convert.expression ~specials:(specials_pred it)
             ~macros:(macros_pred it) init)
      in
      Rt.set_symbol_value_dynamic it.rt sym v;
      sym
  | Sexp.List
      [ Sexp.Sym "PROCLAIM";
        Sexp.List [ Sexp.Sym "QUOTE"; Sexp.List (Sexp.Sym "SPECIAL" :: names) ] ] ->
      List.iter
        (function
          | Sexp.Sym n -> Rt.proclaim_special it.rt (Rt.intern it.rt n)
          | _ -> ())
        names;
      it.rt.Rt.nil
  | _ ->
      eval_node it
        (S1_frontend.Convert.expression ~specials:(specials_pred it)
           ~macros:(macros_pred it) sexp)

let eval_string it src =
  let forms = S1_sexp.Reader.parse_string src in
  List.fold_left (fun _ f -> eval_sexp it f) it.rt.Rt.nil forms
