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

    Top-level forms: {!perform} carries out the world effects of one
    reading ({!S1_frontend.Convert.toplevel}) for every engine, and the
    world ({!Rt.t.macros}) holds the one macro table, so a macro one
    engine defines expands in the other.  {!eval_sexp} is [perform] with
    convert-and-evaluate loaders; the compiler and image replay pass
    compile-or-install ones.

    Non-local exits: interpreted [catch] pushes a {e marker} frame on the
    runtime's catch stack (so simulated and interpreted frames stay
    correctly ordered); {!Rt.do_throw} raises {!Rt.Thrown} when the
    target is such a marker, and the matching [catch] here consumes it. *)

module Cpu = S1_machine.Cpu
module Isa = S1_machine.Isa
module Mem = S1_machine.Mem
module Sexp = S1_sexp.Sexp
module Convert = S1_frontend.Convert
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
  mutable fuel : int;
      (** remaining evaluation steps; negative means unlimited.  The
          differential fuzzer sets this so that a non-terminating shrink
          candidate becomes {!Fuel_exhausted} instead of a hang. *)
}

let svc_interp = Isa.register_svc "*:SQ-INTERP-TRAMPOLINE"

let with_trampoline rt trampoline =
  let it =
    { rt; consts = Hashtbl.create 64; closures = [||]; n_closures = 0; trampoline; fuel = -1 }
  in
  (* the world roots its own tables; the interpreter adds its constant
     cache and every captured environment *)
  rt.Rt.engine_roots <-
    (fun () ->
      let acc = ref [] in
      Hashtbl.iter (fun _ w -> acc := w :: !acc) it.consts;
      for i = 0 to it.n_closures - 1 do
        List.iter (fun (_, cell) -> acc := !cell :: !acc) it.closures.(i).ce_env
      done;
      !acc);
  it

(* Load the trampoline stub into a world booted from scratch. *)
let create rt =
  let image =
    Cpu.load rt.Rt.cpu S1_machine.Asm.[ Instr (Isa.Svc svc_interp); Instr Isa.Ret ]
  in
  let name = Rt.intern rt "%INTERPRETED-FUNCTION" in
  with_trampoline rt
    (Obj.code ~where:`Static rt.Rt.obj ~entry:image.S1_machine.Asm.org ~name ~min_args:0
       ~max_args:(-1))

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

(* Boot images: booting from scratch ([Builtins.boot], then [create])
   writes the same words into every world of one memory configuration,
   so the first boot of a configuration freezes a template world and
   every boot creates a world thawed from that image. *)
type image = { im_world : Rt.frozen; im_trampoline : int }

let images : (Mem.config * image) list Atomic.t = Atomic.make []
let images_lock = Mutex.create ()

let boot_image config =
  match List.assoc_opt config (Atomic.get images) with
  | Some im -> im
  | None ->
      Mutex.protect images_lock (fun () ->
          match List.assoc_opt config (Atomic.get images) with
          | Some im -> im
          | None ->
              let rt = Builtins.boot ~config () in
              let it = create rt in
              let im = { im_world = Rt.freeze rt; im_trampoline = it.trampoline } in
              Atomic.set images ((config, im) :: Atomic.get images);
              im)

(* The interpreter lives in its world's service closure and heap roots,
   so the GC ends a world's lifetime along with the runtime's. *)
let boot ?(config = Mem.default_config) () =
  let im = boot_image config in
  let rt = Rt.create ~config ~from:im.im_world () in
  let it = with_trampoline rt im.im_trampoline in
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

(* The predicates a conversion reads the world through, the same for
   every engine.  A variable is special when its symbol is flagged (so a
   LET of a DEFVAR'd name rebinds dynamically whichever engine runs it).
   A macro's expander, compiled or interpreted, is applied to the
   unevaluated argument forms (as values) and the resulting value is
   read back as a form. *)
let specials_pred rt name =
  match Rt.find_symbol rt name with
  | Some sym when sym <> rt.Rt.nil && sym <> rt.Rt.t_ -> Obj.symbol_is_special rt.Rt.obj sym
  | _ -> false

let macros_pred rt name =
  match Hashtbl.find_opt rt.Rt.macros name with
  | None -> None
  | Some fobj ->
      Some
        (fun (args : Sexp.t list) ->
          let argv = List.map (fun a -> Rt.sexp_to_value rt a) args in
          let result = Rt.with_protected rt argv (fun () -> Rt.call rt fobj argv) in
          Rt.value_to_sexp rt result)

(** The world effects of one top-level form, in evaluation order: intern,
    set the function cell, register the macro, proclaim, run, set the
    special.  [fn] loads a definition to its name, what the engine keeps
    of it and its function word; [eval] runs an expression to what the
    engine keeps of it and its value.  The interpreter converts and
    evaluates, a compile compiles and installs, an image replay installs
    the unit it read.  Returns the form's value and the form with what
    the engine kept in place of its source. *)
let perform rt ~(fn : 'u -> string * 'k * int) ~(eval : 'u -> 'k * int)
    (form : 'u Convert.toplevel) : int * 'k Convert.toplevel =
  match form with
  | Convert.Defun u ->
      let name, k, fobj = fn u in
      let sym = Rt.intern rt name in
      Rt.set_function rt sym fobj;
      (sym, Convert.Defun k)
  | Convert.Defmacro (name, u) ->
      let _, k, fobj = fn u in
      Hashtbl.replace rt.Rt.macros name fobj;
      (Rt.intern rt name, Convert.Defmacro (name, k))
  | Convert.Defvar (name, u) ->
      let sym = Rt.intern rt name in
      Rt.proclaim_special rt sym;
      let k, v = eval u in
      Rt.set_symbol_value_dynamic rt sym v;
      (sym, Convert.Defvar (name, k))
  | Convert.Proclaim names ->
      List.iter (fun n -> Rt.proclaim_special rt (Rt.intern rt n)) names;
      (rt.Rt.nil, Convert.Proclaim names)
  | Convert.Toplevel u ->
      let k, v = eval u in
      (v, Convert.Toplevel k)

(* A DEFMACRO's expander is an ordinary interpreted closure over the raw
   argument forms, exactly as the compiler builds a compiled one. *)
let eval_sexp it sexp =
  let specials = specials_pred it.rt and macros = macros_pred it.rt in
  let fn form =
    let name, lam_node = Convert.defun ~specials ~macros form in
    (name, (), eval it [] lam_node)
  in
  let run form = ((), eval_node it (Convert.expression ~specials ~macros form)) in
  fst (perform it.rt ~fn ~eval:run (Convert.toplevel sexp))

let eval_string it src =
  let forms = S1_sexp.Reader.parse_string src in
  List.fold_left (fun _ f -> eval_sexp it f) it.rt.Rt.nil forms
