(** Code generation (paper §4.5).

    "Code generation is performed during a single tree walk over the
    decorated program tree ... largely coded procedurally and frequently
    but not systematically table-driven."

    The walk consults the decorations laid down by the earlier phases:
    binding strategies decide how each lambda is wired (inline, jump,
    fast subroutine, or closure); WANTREP/ISREP decide representations
    and where coercions go; the pdl annotations decide stack-vs-heap
    number boxes; TNBIND's packing decides where variables live.

    Very short-lived intermediate values flow through the RT registers,
    exploiting the 2½-address forms (three distinct operands are legal
    when RTA/RTB is the destination or first source), and through the
    machine stack across anything that can call.  Everything that
    outlives an expression has a TN. *)

module Sexp = S1_sexp.Sexp
module Isa = S1_machine.Isa
module Asm = S1_machine.Asm
module Word = S1_machine.Word
module Tags = S1_machine.Tags
module F36 = S1_machine.Float36
open S1_ir
open Node
module Prims = S1_frontend.Prims
module Tn = S1_tnbind.Tnbind
module Svc = S1_runtime.Svc
module Obs = S1_obs.Obs

exception Codegen_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Codegen_error s)) fmt

(* Robustness hooks (wired by the driver; see lib/core/compiler.ml).
   [on_fallback] fires when an in-generator pass (TN packing, peephole)
   fails and code generation proceeds on the degraded strategy — the
   driver logs an incident, and raises in strict mode.  [pass_hook] is
   the chaos fault-injection point for those same passes, called inside
   each guard so injected exceptions exercise the real fallback path. *)
(* Both hooks are domain-local ([S1_par.Dls]): the driver installs them
   around a compilation on its own domain, and batch worker domains each
   start with the inert defaults. *)
let on_fallback_key : (pass:string -> reason:string -> unit) ref S1_par.Dls.t =
  S1_par.Dls.create (fun () -> ref (fun ~pass:_ ~reason:_ -> ()))

let on_fallback () = S1_par.Dls.get on_fallback_key

let pass_hook_key : (string -> unit) ref S1_par.Dls.t =
  S1_par.Dls.create (fun () -> ref (fun _ -> ()))

let pass_hook () = S1_par.Dls.get pass_hook_key

(* The compile-time view of the live Lisp world. *)
type world = {
  nil_word : int;
  t_word : int;
  const_word : Sexp.t -> int;  (** immortal quoted constant *)
  symbol_word : string -> int;
  function_cell : string -> int;  (** absolute address of a global function cell *)
  value_cell : string -> int;  (** absolute address of a global value cell *)
  alloc_cell : unit -> int;  (** fresh static cell (closure code-object fixups) *)
}

type options = {
  checked : bool;  (** run-time type and argument checking *)
  use_tnbind : bool;  (** off: every TN to a frame slot (bench X6) *)
  pdl_numbers : bool;  (** off: number boxes always heap-allocated (bench X4) *)
  cache_specials : bool;  (** off: deep-binding search at every access (bench X7) *)
  inline_prims : bool;  (** off: every primitive through its native (bench X3) *)
  peephole : bool;
      (** branch tensioning and unreachable-code removal — the extension
          the paper considered but did not ship (§4.5); off by default
          for fidelity, measured by bench X10 *)
}

let default_options =
  { checked = true; use_tnbind = true; pdl_numbers = true; cache_specials = true;
    inline_prims = true; peephole = false }

type compiled = {
  c_name : string;
  c_prog : Asm.program;
  c_entry : string;  (** entry label *)
  c_min_args : int;
  c_max_args : int;  (** -1 = &rest *)
  c_fixups : (string * int * string * int * int) list;
      (** (entry label, static cell, name, min, max) of nested closures:
          the loader builds their code objects and fills the cells *)
  c_tn_report : string;
      (** "the compiler offers to print several pages of information
          about how it performed the register allocation" (§7): the TN
          table with lifetimes, use counts, and packed locations *)
}

(* Variable access paths. *)
type loc =
  | Lreg of int
  | Lframe of int  (** pointer slot: M(FP + 1 + i) *)
  | Lscratch of int  (** raw slot: M(TP + i) *)
  | Lenv of int  (** captured immutable: M(env + 1 + i) *)
  | Lenvcell of int  (** captured mutable: cell in env slot i; value is its car *)
  | Lcellframe of int  (** cell in pointer slot i; value is its car *)
  | Lcellreg of int  (** cell pointer in a register *)

type jump_info = {
  j_label : string;
  j_lam : lam;
  j_fast : bool;
  j_link_slot : int;  (** scratch slot for the FAST return linkage; -1 for JUMP *)
}

type fctx = {
  w : world;
  opt : options;
  buf : Asm.item list ref;  (* reversed *)
  prefix : string;
  pool : Tn.pool;
  var_tn : (int, Tn.tn) Hashtbl.t;
  celled : (int, unit) Hashtbl.t;  (* captured+assigned vars: storage holds a cell *)
  var_loc : (int, loc) Hashtbl.t;  (* filled after packing *)
  env_layout : (int * int) list;  (* var id -> env slot of the current function *)
  special_cache : (int, int) Hashtbl.t;  (* var id -> scratch slot *)
  pdl_slot : (int, int) Hashtbl.t;  (* node id -> scratch slot *)
  jumps : (int, jump_info) Hashtbl.t;  (* var id -> local function *)
  mutable pb_env : (int * (string -> string) * string * int * int) list;
      (* (pb uid, tag->label, end label, bind depth, catch depth) *)
  mutable bind_depth : int;
  mutable catch_depth : int;
  mutable can_tail : bool;
  fixups : (string * int * string * int * int) list ref;
  pending : (string * lam * (int * int) list * (int * S1_loc.Loc.t option)) list ref;
      (* closures to compile after, with the Lambda node's provenance *)
  counter : int ref;  (* shared fresh-label counter *)
  mutable last_mark : int;  (* node id of the most recent Mark; -1 = none *)
}

(* Emission helpers ----------------------------------------------------------- *)

let emit ctx i = ctx.buf := Asm.Instr i :: !(ctx.buf)
let emit_label ctx l = ctx.buf := Asm.Label l :: !(ctx.buf)
let comment ctx c = ctx.buf := Asm.Comment c :: !(ctx.buf)
let emit_data ctx l ws = ctx.buf := Asm.Data (l, ws) :: !(ctx.buf)

(* Provenance: stamp the instruction stream with the IR node about to be
   generated (the PC line map of the assembled image).  Suppress
   back-to-back duplicates — [gen] recurses, and a child that emitted
   nothing would otherwise leave a redundant mark. *)
let mark_node ctx (n : node) =
  if n.n_id <> ctx.last_mark then begin
    ctx.buf := Asm.Mark (n.n_id, n.n_loc) :: !(ctx.buf);
    ctx.last_mark <- n.n_id
  end

let fresh_label ctx base =
  incr ctx.counter;
  Printf.sprintf "%s-%s%d" ctx.prefix base !(ctx.counter)

let nil ctx = Isa.Imm ctx.w.nil_word
let gc_stamp = Word.make_ptr ~tag:(Tags.to_int Tags.Gc) ~addr:12

(* Register conventions inside expressions: RTA/RTB are the arithmetic
   conduits; T1/T2 are address scratch; A carries call results. *)
let rta = Isa.Reg Isa.rta
let rtb = Isa.Reg Isa.rtb
let t1 = Isa.Reg Isa.t1
let a_reg = Isa.Reg Isa.a
let r0 = Isa.Reg 0
let r1 = Isa.Reg 1

let loc_of_storage = function
  | Tn.Sreg r -> Lreg r
  | Tn.Sframe i -> Lframe i
  | Tn.Sscratch i -> Lscratch i

(* Direct operand for reading a variable location, when one exists. *)
let read_operand = function
  | Lreg r -> Some (Isa.Reg r)
  | Lframe i -> Some (Isa.Ind (Isa.fp, 1 + i))
  | Lscratch i -> Some (Isa.Ind (Isa.tp, i))
  | Lenv i -> Some (Isa.Defreg (Isa.env, 1 + i))
  | Lcellframe i -> Some (Isa.Defind (Isa.fp, 1 + i, 0))
  | Lcellreg r -> Some (Isa.Defreg (r, 0))
  | Lenvcell _ -> None (* needs a two-step load *)

let var_loc ctx v =
  match Hashtbl.find_opt ctx.var_loc v.v_id with
  | Some l -> l
  | None -> (
      match List.assoc_opt v.v_id ctx.env_layout with
      | Some slot ->
          if v.v_captured && v.v_setqs <> [] then Lenvcell slot else Lenv slot
      | None -> err "variable %s#%d has no location" v.v_name v.v_id)

(* Dests ---------------------------------------------------------------------- *)

type dest =
  | Ignore
  | To of Isa.operand
  | Branch of string * string  (* true label, false label *)
  | Ret

(* Representation coercions ---------------------------------------------------- *)

(* Deliver a value currently available as operand [src] (with rep
   [from_]) to [dst] with rep [to_].  [pdl] is the scratch slot to use
   for raw->pointer conversion, if stack allocation was authorized. *)
let coerce ctx ~from_ ~to_ ?(pdl = -1) src dst =
  match (from_, to_) with
  | f, t when f = t -> if src <> dst then emit ctx (Isa.Mov (dst, src))
  | (SWFLO | HWFLO), POINTER ->
      if ctx.opt.pdl_numbers && pdl >= 0 then begin
        Obs.incr "pdl.stack_boxes";
        emit ctx (Isa.Mov (Isa.Ind (Isa.tp, pdl), src));
        comment ctx "Install value for PDL-allocated number.";
        emit ctx (Isa.Movp (Tags.Single_flonum, dst, Isa.Ind (Isa.tp, pdl)));
        comment ctx "Pointer to PDL slot."
      end
      else begin
        Obs.incr "pdl.heap_boxes";
        if src <> r0 then emit ctx (Isa.Mov (r0, src));
        emit ctx (Isa.Svc Svc.single_flonum_cons);
        if dst <> r0 then emit ctx (Isa.Mov (dst, r0))
      end
  | POINTER, (SWFLO | HWFLO) -> (
      (* dereference (with optional type check) *)
      let deref src =
        match src with
        | Isa.Reg r -> emit ctx (Isa.Mov (dst, Isa.Defreg (r, 0)))
        | _ ->
            emit ctx (Isa.Mov (t1, src));
            emit ctx (Isa.Mov (dst, Isa.Defreg (Isa.t1, 0)))
      in
      if ctx.opt.checked then begin
        let ok = fresh_label ctx "FLOK" in
        let src =
          match src with
          | Isa.Reg _ -> src
          | _ ->
              emit ctx (Isa.Mov (t1, src));
              t1
        in
        emit ctx (Isa.Jmptag (Isa.EQ, src, Tags.Single_flonum, Isa.L ok));
        emit ctx (Isa.Mov (r0, src));
        emit ctx (Isa.Svc Svc.wrong_type);
        emit_label ctx ok;
        deref src
      end
      else deref src)
  | SWFIX, POINTER ->
      if ctx.opt.checked then begin
        if src <> r0 then emit ctx (Isa.Mov (r0, src));
        emit ctx (Isa.Svc Svc.box_integer);
        if dst <> r0 then emit ctx (Isa.Mov (dst, r0))
      end
      else begin
        if src <> dst then emit ctx (Isa.Mov (dst, src));
        emit ctx (Isa.Settag (Tags.Fixnum, dst))
      end
  | POINTER, SWFIX ->
      if ctx.opt.checked then begin
        let ok = fresh_label ctx "FXOK" in
        let src =
          match src with
          | Isa.Reg _ -> src
          | _ ->
              emit ctx (Isa.Mov (t1, src));
              t1
        in
        emit ctx (Isa.Jmptag (Isa.EQ, src, Tags.Fixnum, Isa.L ok));
        emit ctx (Isa.Mov (r0, src));
        emit ctx (Isa.Svc Svc.wrong_type);
        emit_label ctx ok;
        emit ctx (Isa.Un (Isa.DATUM, Isa.S, dst, src))
      end
      else emit ctx (Isa.Un (Isa.DATUM, Isa.S, dst, src))
  | SWFIX, SWFLO -> emit ctx (Isa.Un (Isa.FLOAT, Isa.S, dst, src))
  | SWFLO, SWFIX -> emit ctx (Isa.Un (Isa.FIX Isa.Truncate, Isa.S, dst, src))
  | _, NONE -> ()
  | f, t -> err "cannot coerce %s to %s" (rep_name f) (rep_name t)

(* Constants ------------------------------------------------------------------- *)

let constant_operand ctx (c : Sexp.t) (rep : rep) : Isa.operand =
  match (rep, c) with
  | SWFLO, Sexp.Float (f, (Sexp.Single | Sexp.Half)) -> Isa.Imm (F36.encode_single f)
  | SWFLO, Sexp.Int n ->
      (* an integer literal in raw-float context converts at compile time
         (the type-specific operators are unchecked by definition) *)
      Isa.Imm (F36.encode_single (float_of_int n))
  | SWFIX, Sexp.Int n -> Isa.Imm (Word.of_int n)
  | SWFIX, Sexp.Float (f, _) when Float.is_integer f ->
      (* integral float literal in raw-fixnum context: convert (the
         type-specific operators are unchecked by definition) *)
      Isa.Imm (Word.of_int (int_of_float f))
  | _, Sexp.Sym "NIL" | _, Sexp.List [] -> nil ctx
  | _, Sexp.Sym "T" -> Isa.Imm ctx.w.t_word
  | _, c -> Isa.Imm (ctx.w.const_word c)

(* Simple operands: no code, value readable directly with the wanted rep. *)
let simple_operand ctx (n : node) : Isa.operand option =
  match n.kind with
  | Term c -> (
      match n.n_wantrep with
      | JUMP | NONE -> None
      | rep -> Some (constant_operand ctx c rep))
  | Var v when not (v.v_special || v.v_binder = None) -> (
      match Hashtbl.find_opt ctx.jumps v.v_id with
      | Some _ -> None
      | None -> (
          let loc = var_loc ctx v in
          match read_operand loc with
          | None -> None
          | Some op -> (
              match (v.v_rep, n.n_wantrep) with
              | a, b when a = b -> Some op
              | POINTER, SWFLO -> (
                  (* unchecked deref through an addressing mode: the
                     paper's "fetch ... adjust ... fetch" exploitation *)
                  match op with
                  | Isa.Reg r -> Some (Isa.Defreg (r, 0))
                  | Isa.Ind (b, d) -> Some (Isa.Defind (b, d, 0))
                  | _ -> None)
              | _ -> None)))
  | Var v when (v.v_special || v.v_binder = None) && ctx.opt.cache_specials
               && not ctx.opt.checked -> (
      (* cached special read without the unbound check *)
      match Hashtbl.find_opt ctx.special_cache v.v_id with
      | Some slot when n.n_wantrep = POINTER -> Some (Isa.Defind (Isa.tp, slot, 0))
      | _ -> None)
  | _ -> None

(* Unchecked derefs are only valid for type-specific contexts; in checked
   mode a POINTER->SWFLO simple deref is still allowed for $F operators
   because those are declared unchecked by the language (MACLISP
   tradition).  We keep them simple operands unconditionally. *)

(* Forward declaration style: the generators are mutually recursive. *)

(* The name-and-arity table is shared with representation analysis
   (Prims.inlinable): repan must predict exactly which calls deliver a
   raw-rep inline result vs a tagged POINTER through the calling
   convention. *)
let is_inline_prim ctx fname nargs = ctx.opt.inline_prims && Prims.inlinable fname nargs

(* Is this call compiled as a real machine CALL (clobbering registers)?
   FUNCALL is in the inline-prim list (it never goes through a function
   cell) but still expands to a %CALL, so it clobbers registers like any
   other full call — found by the differential fuzzer as a DOTIMES
   counter kept in a register across a FUNCALL in the loop body. *)
let is_real_call ctx (n : node) =
  match n.kind with
  | Call ({ kind = Lambda l; _ }, _) -> l.l_strategy <> Open
  | Call ({ kind = Term (Sexp.Sym "FUNCALL"); _ }, _) -> true
  | Call ({ kind = Term (Sexp.Sym fname); _ }, args) ->
      not (is_inline_prim ctx fname (List.length args))
  | Call ({ kind = Var v; _ }, _) -> not (Hashtbl.mem ctx.jumps v.v_id)
  | Call _ -> true
  | Catcher _ -> true
  | _ -> false

(* May the value of this expression be an unsafe (pdl) pointer?  Decides
   certification at returns (§6.3: "returning a value from a procedure is
   not a safe operation"). *)
let rec maybe_unsafe ctx (n : node) =
  match n.kind with
  | Term _ -> false
  | Var v -> not (v.v_special || v.v_binder = None) (* specials hold safe values *)
  | If (_, x, y) -> maybe_unsafe ctx x || maybe_unsafe ctx y
  | Progn [] -> false
  | Progn xs -> maybe_unsafe ctx (List.nth xs (List.length xs - 1))
  | Call ({ kind = Lambda l; _ }, _) when l.l_strategy = Open -> maybe_unsafe ctx l.l_body
  | Call ({ kind = Term (Sexp.Sym fname); _ }, _) ->
      (* inline float ops may deliver pdl boxes; everything through the
         runtime returns safe heap pointers *)
      is_inline_prim ctx fname 2 || is_inline_prim ctx fname 1
      || (match Prims.find fname with
         | Some { Prims.res_rep = Some (SWFLO | DWFLO | HWFLO); _ } -> true
         | _ -> false)
  | Call _ -> false (* returned values are certified safe by convention *)
  | Setq (v, _) -> not (v.v_special || v.v_binder = None)
  | Caseq (_, clauses, d) ->
      List.exists (fun (_, b) -> maybe_unsafe ctx b) clauses
      || (match d with Some d -> maybe_unsafe ctx d | None -> false)
  | Catcher _ -> false
  | Lambda _ -> false
  | Progbody _ -> true
  | Go _ | Return _ -> false

(* ----------------------------------------------------------------------- *)
(* The generator proper                                                    *)
(* ----------------------------------------------------------------------- *)

let rec gen ctx (n : node) (dest : dest) : unit =
  mark_node ctx n;
  match n.kind with
  | Term c -> deliver_operand ctx n (constant_term_operand ctx n c) dest
  | Var v -> gen_var ctx n v dest
  | Setq (v, e) -> gen_setq ctx n v e dest
  | If (p, x, y) -> gen_if ctx p x y dest
  | Progn xs -> gen_progn ctx xs dest
  | Lambda l -> gen_closure ctx n l dest
  | Call (f, args) -> gen_call ctx n f args dest
  | Caseq (key, clauses, default) -> gen_caseq ctx key clauses default dest
  | Catcher (tag, body) -> gen_catch ctx n tag body dest
  | Progbody pb -> gen_progbody ctx pb dest
  | Go tag -> gen_go ctx tag
  | Return e -> gen_return ctx e

(* Deliver an available operand carrying [n]'s ISREP to [dest] under
   [n]'s WANTREP. *)
and deliver_operand ctx (n : node) (src : Isa.operand) (dest : dest) : unit =
  let pdl = match Hashtbl.find_opt ctx.pdl_slot n.n_id with Some s -> s | None -> -1 in
  match dest with
  | Ignore -> ()
  | To dst -> coerce ctx ~from_:n.n_isrep ~to_:n.n_wantrep ~pdl src dst
  | Ret -> finish_ret ctx n src
  | Branch (lt, lf) ->
      (* truthiness of the value *)
      (match n.n_isrep with
      | POINTER ->
          emit ctx (Isa.Jmp (Isa.NEQ, src, nil ctx, Isa.L lt));
          emit ctx (Isa.Jmpa (Isa.L lf))
      | SWFIX | SWFLO | HWFLO ->
          (* raw numbers are never NIL *)
          emit ctx (Isa.Jmpa (Isa.L lt))
      | r -> err "cannot branch on rep %s" (rep_name r))

and constant_term_operand ctx n c =
  match n.n_isrep with
  | SWFLO | SWFIX -> constant_operand ctx c n.n_isrep
  | _ -> constant_operand ctx c POINTER

(* Evaluate [n] into a specific register with its WANTREP (helper). *)
and gen_into ctx n (dst : Isa.operand) =
  match simple_operand ctx n with
  | Some op -> if op <> dst then emit ctx (Isa.Mov (dst, op))
  | None -> gen ctx n (To dst)

(* Variables ----------------------------------------------------------------- *)

and gen_var ctx n v dest =
  if Hashtbl.mem ctx.jumps v.v_id then err "local function %s used as a value" v.v_name
  else if v.v_special || v.v_binder = None then begin
    (* dynamic reference *)
    let sym = ctx.w.symbol_word v.v_name in
    (if ctx.opt.cache_specials && Hashtbl.mem ctx.special_cache v.v_id then begin
       let slot = Hashtbl.find ctx.special_cache v.v_id in
       emit ctx (Isa.Mov (r0, Isa.Defind (Isa.tp, slot, 0)))
     end
     else begin
       emit ctx (Isa.Mov (r0, Isa.Imm sym));
       emit ctx (Isa.Svc Svc.symbol_value)
     end);
    (if ctx.opt.checked then begin
       let ok = fresh_label ctx "BOUND" in
       emit ctx (Isa.Jmptag (Isa.NEQ, r0, Tags.Unbound, Isa.L ok));
       emit ctx (Isa.Mov (r0, Isa.Imm sym));
       emit ctx (Isa.Svc Svc.unbound_variable);
       emit_label ctx ok
     end);
    deliver_operand ctx n r0 dest
  end
  else begin
    let loc = var_loc ctx v in
    match read_operand loc with
    | Some op -> deliver_operand ctx n op dest
    | None -> (
        match loc with
        | Lenvcell i ->
            emit ctx (Isa.Mov (t1, Isa.Defreg (Isa.env, 1 + i)));
            deliver_operand ctx n (Isa.Defreg (Isa.t1, 0)) dest
        | _ -> assert false)
  end

and write_var ctx v (src : Isa.operand) =
  (* [src] already carries v_rep *)
  if v.v_special || v.v_binder = None then begin
    let sym = ctx.w.symbol_word v.v_name in
    if ctx.opt.cache_specials && Hashtbl.mem ctx.special_cache v.v_id then begin
      let slot = Hashtbl.find ctx.special_cache v.v_id in
      emit ctx (Isa.Mov (Isa.Defind (Isa.tp, slot, 0), src))
    end
    else begin
      if src <> r1 then emit ctx (Isa.Mov (r1, src));
      emit ctx (Isa.Mov (r0, Isa.Imm sym));
      emit ctx (Isa.Svc Svc.set_symbol_value)
    end
  end
  else
    let loc = var_loc ctx v in
    match loc with
    | Lreg r -> if src <> Isa.Reg r then emit ctx (Isa.Mov (Isa.Reg r, src))
    | Lframe i -> emit ctx (Isa.Mov (Isa.Ind (Isa.fp, 1 + i), src))
    | Lscratch i -> emit ctx (Isa.Mov (Isa.Ind (Isa.tp, i), src))
    | Lcellframe i -> emit ctx (Isa.Mov (Isa.Defind (Isa.fp, 1 + i, 0), src))
    | Lcellreg r -> emit ctx (Isa.Mov (Isa.Defreg (r, 0), src))
    | Lenvcell i ->
        emit ctx (Isa.Mov (t1, Isa.Defreg (Isa.env, 1 + i)));
        emit ctx (Isa.Mov (Isa.Defreg (Isa.t1, 0), src))
    | Lenv _ -> err "write to immutable captured variable %s" v.v_name

and gen_setq ctx n v e dest =
  (* evaluate with the variable's representation *)
  (match simple_operand ctx e with
  | Some op when e.n_wantrep = v.v_rep -> write_var ctx v op
  | _ ->
      gen ctx e (To rtb);
      write_var ctx v rtb);
  match dest with
  | Ignore -> ()
  | _ -> gen_var ctx n v dest

(* Control -------------------------------------------------------------------- *)

and gen_if ctx p x y dest =
  let lt = fresh_label ctx "THEN" and lf = fresh_label ctx "ELSE" in
  gen_branch ctx p lt lf;
  match dest with
  | Branch (bt, bf) ->
      emit_label ctx lt;
      gen ctx x (Branch (bt, bf));
      emit_label ctx lf;
      gen ctx y (Branch (bt, bf))
  | Ret ->
      emit_label ctx lt;
      gen ctx x Ret;
      emit_label ctx lf;
      gen ctx y Ret
  | Ignore ->
      let join = fresh_label ctx "JOIN" in
      emit_label ctx lt;
      gen ctx x Ignore;
      emit ctx (Isa.Jmpa (Isa.L join));
      emit_label ctx lf;
      gen ctx y Ignore;
      emit_label ctx join
  | To dst ->
      let join = fresh_label ctx "JOIN" in
      emit_label ctx lt;
      gen ctx x (To dst);
      emit ctx (Isa.Jmpa (Isa.L join));
      emit_label ctx lf;
      gen ctx y (To dst);
      emit_label ctx join

(* Generate [p] for control: branch to [lt] when true, [lf] when false. *)
and gen_branch ctx (p : node) lt lf =
  match p.kind with
  | Term (Sexp.Sym "NIL" | Sexp.List []) -> emit ctx (Isa.Jmpa (Isa.L lf))
  | Term _ -> emit ctx (Isa.Jmpa (Isa.L lt))
  | If (q, x, y) ->
      (* branch-on-branch without materialization *)
      let l1 = fresh_label ctx "BB1" and l2 = fresh_label ctx "BB2" in
      gen_branch ctx q l1 l2;
      emit_label ctx l1;
      gen_branch ctx x lt lf;
      emit_label ctx l2;
      gen_branch ctx y lt lf
  | Call ({ kind = Term (Sexp.Sym fname); _ }, [ a; b ])
    when ctx.opt.inline_prims
         && List.mem fname [ "<$F"; "=$F"; "<&"; "=&"; "EQ" ] ->
      let oa, ob = gen_two_operands ctx a b in
      (match fname with
      | "<$F" -> emit ctx (Isa.Fjmp (Isa.LSS, oa, ob, Isa.L lt))
      | "=$F" -> emit ctx (Isa.Fjmp (Isa.EQ, oa, ob, Isa.L lt))
      | "<&" -> emit ctx (Isa.Jmp (Isa.LSS, oa, ob, Isa.L lt))
      | "=&" | "EQ" -> emit ctx (Isa.Jmp (Isa.EQ, oa, ob, Isa.L lt))
      | _ -> assert false);
      emit ctx (Isa.Jmpa (Isa.L lf))
  | Call ({ kind = Term (Sexp.Sym ("NOT" | "NULL")); _ }, [ x ]) when ctx.opt.inline_prims ->
      gen_branch ctx x lf lt
  | Call ({ kind = Term (Sexp.Sym "ZEROP"); _ }, [ x ])
    when ctx.opt.inline_prims && x.n_wantrep = SWFIX ->
      gen_into ctx x rta;
      emit ctx (Isa.Jmpz (Isa.EQ, rta, Isa.L lt));
      emit ctx (Isa.Jmpa (Isa.L lf))
  | _ ->
      (* general truthiness *)
      (match simple_operand ctx p with
      | Some op when p.n_wantrep = POINTER ->
          emit ctx (Isa.Jmp (Isa.NEQ, op, nil ctx, Isa.L lt));
          emit ctx (Isa.Jmpa (Isa.L lf))
      | _ ->
          gen ctx p (Branch (lt, lf)))

and gen_progn ctx xs dest =
  let rec go = function
    | [] -> deliver_nil ctx dest
    | [ last ] -> gen ctx last dest
    | x :: rest ->
        gen ctx x Ignore;
        go rest
  in
  go xs

and deliver_nil ctx dest =
  match dest with
  | Ignore -> ()
  | To dst -> emit ctx (Isa.Mov (dst, nil ctx))
  | Ret ->
      emit ctx (Isa.Mov (a_reg, nil ctx));
      emit ctx Isa.Ret
  | Branch (_, lf) -> emit ctx (Isa.Jmpa (Isa.L lf))

(* Returns -------------------------------------------------------------------- *)

and finish_ret ctx (n : node) (src : Isa.operand) =
  (* coerce to POINTER in A, certify if potentially a pdl pointer *)
  let pdl = match Hashtbl.find_opt ctx.pdl_slot n.n_id with Some s -> s | None -> -1 in
  coerce ctx ~from_:n.n_isrep ~to_:POINTER ~pdl src a_reg;
  if maybe_unsafe ctx n || (n.n_isrep <> POINTER && pdl >= 0) then begin
    emit ctx (Isa.Mov (r0, a_reg));
    emit ctx (Isa.Svc Svc.certify);
    emit ctx (Isa.Mov (a_reg, r0))
  end;
  emit ctx Isa.Ret

(* Calls ------------------------------------------------------------------------ *)

(* May the read of [x] (a simple operand) be deferred until after [y]'s
   code has run?  Only when nothing [y] does can change what the operand
   denotes: constants always; lexical variables that are never assigned
   (their heap number boxes are immutable).  Assigned variables and
   special variables must be read in source order. *)
and defer_safe (x : node) =
  match x.kind with
  | Term _ -> true
  | Var v -> (not v.v_special) && v.v_binder <> None && v.v_setqs = []
  | _ -> false

and gen_two_operands ctx (x : node) (y : node) : Isa.operand * Isa.operand =
  (* Evaluate two operands obeying the stack discipline: anything live
     in a register is pushed before code that may disturb it. *)
  match (simple_operand ctx x, simple_operand ctx y) with
  | Some ox, Some oy -> (ox, oy)
  | Some ox, None when defer_safe x ->
      gen ctx y (To rtb);
      (ox, rtb)
  | None, Some oy ->
      gen ctx x (To rta);
      (rta, oy)
  | _, None ->
      gen ctx x (To rta);
      emit ctx (Isa.Push rta);
      gen ctx y (To rtb);
      emit ctx (Isa.Pop rta);
      (rta, rtb)

and bin25 ctx op (dst : Isa.operand) (s1 : Isa.operand) (s2 : Isa.operand) =
  (* emit a legal 2.5-address form computing dst := s1 op s2 *)
  let is_rt o = o = rta || o = rtb in
  if dst = s1 || is_rt dst || is_rt s1 then emit ctx (Isa.Bin (op, Isa.S, dst, s1, s2))
  else begin
    emit ctx (Isa.Bin (op, Isa.S, rta, s1, s2));
    emit ctx (Isa.Mov (dst, rta))
  end

and gen_call ctx n f args dest =
  match f.kind with
  | Lambda l when l.l_strategy = Open -> gen_open_call ctx n l args dest
  | Lambda l ->
      (* immediate call of a non-plain lambda: make the closure and call it *)
      gen_closure_call ctx n f l args dest
  | Term (Sexp.Sym fname) when is_inline_prim ctx fname (List.length args) ->
      gen_prim ctx n fname args dest
  | Term (Sexp.Sym fname) ->
      (* global function via its function cell *)
      let cell = ctx.w.function_cell fname in
      gen_full_call ctx n
        (fun () ->
          emit ctx (Isa.Mov (t1, Isa.Mabs cell));
          if ctx.opt.checked then begin
            (* report the function's *name* when the cell is unbound *)
            let ok = fresh_label ctx "FBOUND" in
            emit ctx (Isa.Jmptag (Isa.NEQ, t1, Tags.Unbound, Isa.L ok));
            emit ctx (Isa.Mov (r0, Isa.Imm (ctx.w.symbol_word fname)));
            emit ctx (Isa.Svc Svc.undefined_function);
            emit_label ctx ok
          end)
        args dest
  | Var v when Hashtbl.mem ctx.jumps v.v_id ->
      gen_local_call ctx n (Hashtbl.find ctx.jumps v.v_id) args dest
  | _ ->
      gen_full_call ctx n
        (fun () ->
          (* function value from an arbitrary expression; stash on the
             stack while arguments evaluate?  Arguments were already
             pushed; evaluate function first instead. *)
          gen_into ctx f t1)
        ~fn_first:true args dest

and gen_full_call ctx n (load_fn : unit -> unit) ?(fn_first = false) args dest =
  let nargs = List.length args in
  let push_args () =
    (* the calling convention takes POINTER arguments; coerce raw-rep
       values (possible when a type-specific prim is compiled as a full
       call under the no-inline ablation) *)
    List.iter
      (fun arg ->
        (match simple_operand ctx arg with
        | Some op when arg.n_wantrep = POINTER -> emit ctx (Isa.Push op)
        | _ ->
            gen ctx arg (To rta);
            if arg.n_wantrep <> POINTER then begin
              let pdl =
                match Hashtbl.find_opt ctx.pdl_slot arg.n_id with Some s -> s | None -> -1
              in
              coerce ctx ~from_:arg.n_wantrep ~to_:POINTER ~pdl rta rta
            end;
            emit ctx (Isa.Push rta)))
      args
  in
  if fn_first then begin
    load_fn ();
    emit ctx (Isa.Push t1);
    push_args ();
    (* recover the function under the arguments: M(SP - nargs) *)
    emit ctx (Isa.Mov (t1, Isa.Ind (Isa.sp, -nargs)));
    (* drop it from the stack after the call returns: easiest is to keep
       it; the callee's RET pops only its arguments, so we must not leave
       the function word behind.  Copy args down instead: simpler to pop
       into place via a shuffle.  We instead re-push args after loading:
       to keep this simple we accept one extra word on the stack and drop
       it after the call. *)
    if dest = Ret && ctx.can_tail then begin
      (* cannot TCALL with the extra word cleanly; do a normal call *)
      emit ctx (Isa.Call (t1, nargs));
      emit ctx (Isa.Pop t1) (* drop the saved function word *);
      finish_ret ctx n a_reg
    end
    else begin
      emit ctx (Isa.Call (t1, nargs));
      emit ctx (Isa.Pop t1);
      deliver_call_result ctx n dest
    end
  end
  else if dest = Ret && ctx.can_tail then begin
    push_args ();
    load_fn ();
    emit ctx (Isa.Tcall (t1, nargs))
  end
  else begin
    push_args ();
    load_fn ();
    emit ctx (Isa.Call (t1, nargs));
    deliver_call_result ctx n dest
  end

and deliver_call_result ctx n dest =
  match dest with
  | Ret -> finish_ret ctx n a_reg
  | _ -> deliver_operand ctx n a_reg dest

(* Open lambda: a let.  Bind arguments to parameter storage, then the body. *)
and gen_open_call ctx _n l args dest =
  let specials_bound = ref 0 in
  (* LET is a parallel binding: every initializer must be evaluated
     before any special is deep-bound, or a later initializer reading an
     earlier-bound special would see the new binding (LET* semantics).
     Evaluate special-bound initializers onto the machine stack first,
     then bind them together after the normal parameters. *)
  let deferred_specials = ref [] in
  List.iter2
    (fun p arg ->
      let v = p.p_var in
      if (not (Hashtbl.mem ctx.jumps v.v_id)) && v.v_special then begin
        gen_into ctx arg r1;
        emit ctx (Isa.Push r1);
        deferred_specials := v :: !deferred_specials
      end)
    l.l_params args;
  List.iter2
    (fun p arg ->
      let v = p.p_var in
      if Hashtbl.mem ctx.jumps v.v_id then
        (* a local function: no value computed here; its body is emitted
           at the end of this open call *)
        ()
      else if v.v_special then begin
        (* value pushed above; bound below *)
        ()
      end
      else begin
        (* bind to storage; wrap in a cell if captured and assigned *)
        let celled = v.v_captured && v.v_setqs <> [] in
        if celled then begin
          gen_into ctx arg r0;
          emit ctx (Isa.Mov (r1, nil ctx));
          emit ctx (Isa.Svc Svc.cons);
          (match var_loc ctx v with
          | Lcellframe i -> emit ctx (Isa.Mov (Isa.Ind (Isa.fp, 1 + i), r0))
          | Lcellreg r -> emit ctx (Isa.Mov (Isa.Reg r, r0))
          | _ -> err "celled variable %s lacks cell storage" v.v_name)
        end
        else
          match simple_operand ctx arg with
          | Some op when arg.n_wantrep = v.v_rep -> write_var ctx v op
          | _ ->
              gen ctx arg (To rtb);
              write_var ctx v rtb
      end)
    l.l_params args;
  (* bind the deferred specials (popped in reverse push order) *)
  List.iter
    (fun v ->
      emit ctx (Isa.Pop r1);
      emit ctx (Isa.Mov (r0, Isa.Imm (ctx.w.symbol_word v.v_name)));
      emit ctx (Isa.Svc Svc.bind_special);
      incr specials_bound;
      ctx.bind_depth <- ctx.bind_depth + 1)
    !deferred_specials;
  (* emit local-function bodies after the main body *)
  let local_lams =
    List.filter_map
      (fun (p, arg) ->
        match (Hashtbl.find_opt ctx.jumps p.p_var.v_id, arg.kind) with
        | Some ji, Lambda al when al == ji.j_lam -> Some ji
        | _ -> None)
      (List.combine l.l_params args)
  in
  let emit_body_and_locals inner_dest =
    gen ctx l.l_body inner_dest;
    if local_lams <> [] then begin
      let skip = fresh_label ctx "OVERLOCAL" in
      let need_skip = inner_dest <> Ret in
      if need_skip then emit ctx (Isa.Jmpa (Isa.L skip));
      List.iter
        (fun ji ->
          emit_label ctx ji.j_label;
          if ji.j_fast then begin
            emit ctx (Isa.Mov (Isa.Ind (Isa.tp, ji.j_link_slot), t1));
            gen ctx ji.j_lam.l_body (To a_reg);
            emit ctx (Isa.Jmpi (Isa.Ind (Isa.tp, ji.j_link_slot)))
          end
          else
            (* JUMP lambda: body delivers straight through the function
               return *)
            gen ctx ji.j_lam.l_body Ret)
        local_lams;
      if need_skip then emit_label ctx skip
    end
  in
  if !specials_bound > 0 then begin
    (* the body cannot tail-call away while bindings are live *)
    let saved_tail = ctx.can_tail in
    ctx.can_tail <- false;
    (match dest with
    | Ret ->
        emit_body_and_locals (To a_reg);
        emit ctx (Isa.Mov (r0, Isa.Imm !specials_bound));
        emit ctx (Isa.Svc Svc.unbind_special);
        ctx.bind_depth <- ctx.bind_depth - !specials_bound;
        ctx.can_tail <- saved_tail;
        emit ctx Isa.Ret
    | Ignore ->
        emit_body_and_locals Ignore;
        emit ctx (Isa.Mov (r0, Isa.Imm !specials_bound));
        emit ctx (Isa.Svc Svc.unbind_special);
        ctx.bind_depth <- ctx.bind_depth - !specials_bound;
        ctx.can_tail <- saved_tail
    | To dst ->
        emit_body_and_locals (To a_reg);
        emit ctx (Isa.Mov (r0, Isa.Imm !specials_bound));
        emit ctx (Isa.Svc Svc.unbind_special);
        ctx.bind_depth <- ctx.bind_depth - !specials_bound;
        ctx.can_tail <- saved_tail;
        if dst <> a_reg then emit ctx (Isa.Mov (dst, a_reg))
    | Branch (lt, lf) ->
        emit_body_and_locals (To a_reg);
        emit ctx (Isa.Mov (r0, Isa.Imm !specials_bound));
        emit ctx (Isa.Svc Svc.unbind_special);
        ctx.bind_depth <- ctx.bind_depth - !specials_bound;
        ctx.can_tail <- saved_tail;
        emit ctx (Isa.Jmp (Isa.NEQ, a_reg, nil ctx, Isa.L lt));
        emit ctx (Isa.Jmpa (Isa.L lf)))
  end
  else emit_body_and_locals dest

(* Calls to JUMP/FAST local functions: "in effect, parameter-passing goto
   statements" (paper §4.4). *)
and gen_local_call ctx n ji args dest =
  (* evaluate all arguments before storing any (the parameters may be
     referenced by later argument expressions: recursive local calls) *)
  let params = ji.j_lam.l_params in
  List.iter
    (fun arg ->
      gen ctx arg (To rta);
      emit ctx (Isa.Push rta))
    args;
  List.iter
    (fun p -> (
       emit ctx (Isa.Pop rta);
       write_var ctx p.p_var rta))
    (List.rev params);
  if ji.j_fast then begin
    emit ctx (Isa.Jsp (Isa.t1, Isa.L ji.j_label));
    deliver_call_result ctx n dest
  end
  else if dest = Ret && ctx.can_tail then
    (* JUMP: a parameter-passing goto; control never returns here *)
    emit ctx (Isa.Jmpa (Isa.L ji.j_label))
  else
    (* the annotation phases promised every call site is function-tail;
       fail loudly rather than miscompile if one is not *)
    err "JUMP local function %s called from a non-tail context" ji.j_lam.l_name

(* Closures ------------------------------------------------------------------- *)

and gen_closure ctx n l dest =
  (match dest with
  | Ignore -> ()
  | _ ->
      let code_cell = make_closure_code ctx n l in
      (* build the environment vector *)
      let caps = l.l_captures in
      let ncaps = List.length caps in
      emit ctx (Isa.Mov (r0, Isa.Imm (Word.of_int ncaps)));
      emit ctx (Isa.Svc Svc.vector_cons);
      (* fill slots from the current frame *)
      List.iteri
        (fun i v ->
          let celled = v.v_captured && v.v_setqs <> [] in
          let value_op =
            if celled then
              (* store the cell itself *)
              match var_loc ctx v with
              | Lcellframe s -> Some (Isa.Ind (Isa.fp, 1 + s))
              | Lcellreg r -> Some (Isa.Reg r)
              | Lenvcell s -> Some (Isa.Defreg (Isa.env, 1 + s))
              | _ -> None
            else
              match var_loc ctx v with
              | Lreg r -> Some (Isa.Reg r)
              | Lframe s -> Some (Isa.Ind (Isa.fp, 1 + s))
              | Lscratch s -> Some (Isa.Ind (Isa.tp, s))
              | Lenv s -> Some (Isa.Defreg (Isa.env, 1 + s))
              | Lenvcell _ | Lcellframe _ | Lcellreg _ -> None
          in
          match value_op with
          | Some op -> emit ctx (Isa.Mov (Isa.Defreg (0, 1 + i), op))
          | None -> err "cannot capture %s" v.v_name)
        caps;
      emit ctx (Isa.Mov (r1, r0));
      emit ctx (Isa.Mov (r0, Isa.Mabs code_cell));
      emit ctx (Isa.Svc Svc.closure_cons));
  match dest with
  | Ignore -> ()
  | Ret ->
      emit ctx (Isa.Mov (a_reg, r0));
      emit ctx Isa.Ret
  | To dst -> if dst <> r0 then emit ctx (Isa.Mov (dst, r0))
  | Branch (lt, _) -> emit ctx (Isa.Jmpa (Isa.L lt)) (* closures are true *)

and gen_closure_call ctx n f l args dest =
  ignore l;
  gen_full_call ctx n (fun () -> gen_into ctx f t1) ~fn_first:true args dest

(* Queue a nested closure body for compilation; returns its static cell. *)
and make_closure_code ctx (n : node) (l : lam) : int =
  let entry = fresh_label ctx "CLOSE" in
  let cell = ctx.w.alloc_cell () in
  let env_layout = List.mapi (fun i v -> (v.v_id, i)) l.l_captures in
  ctx.pending := (entry, l, env_layout, (n.n_id, n.n_loc)) :: !(ctx.pending);
  let nreq = List.length (List.filter (fun p -> p.p_kind = Required) l.l_params) in
  let has_rest = List.exists (fun p -> p.p_kind = Rest) l.l_params in
  let nmax = if has_rest then -1 else List.length l.l_params in
  ctx.fixups := (entry, cell, l.l_name, nreq, nmax) :: !(ctx.fixups);
  cell

(* caseq ----------------------------------------------------------------------- *)

and gen_caseq ctx key clauses default dest =
  gen_into ctx key rta;
  let end_default = fresh_label ctx "CASEDEF" in
  let clause_labels = List.map (fun _ -> fresh_label ctx "CASE") clauses in
  List.iter2
    (fun (keys, _) lab ->
      List.iter
        (fun k ->
          let kw = ctx.w.const_word k in
          emit ctx (Isa.Jmp (Isa.EQ, rta, Isa.Imm kw, Isa.L lab)))
        keys)
    clauses clause_labels;
  emit ctx (Isa.Jmpa (Isa.L end_default));
  let join = fresh_label ctx "CASEJOIN" in
  let sub_dest = match dest with Ret -> Ret | Branch _ | To _ | Ignore -> dest in
  let finish () = if dest <> Ret then emit ctx (Isa.Jmpa (Isa.L join)) in
  List.iter2
    (fun (_, body) lab ->
      emit_label ctx lab;
      gen ctx body sub_dest;
      finish ())
    clauses clause_labels;
  emit_label ctx end_default;
  (match default with
  | Some d -> gen ctx d sub_dest
  | None -> deliver_nil ctx sub_dest);
  if dest <> Ret then emit_label ctx join

(* catch / throw ----------------------------------------------------------------- *)

and gen_catch ctx n tag body dest =
  let handler = fresh_label ctx "CATCH" in
  gen_into ctx tag r0;
  emit ctx (Isa.Mov (r1, Isa.Lab handler));
  emit ctx (Isa.Svc Svc.catch_push);
  ctx.catch_depth <- ctx.catch_depth + 1;
  let saved_tail = ctx.can_tail in
  ctx.can_tail <- false;
  gen ctx body (To a_reg);
  ctx.can_tail <- saved_tail;
  ctx.catch_depth <- ctx.catch_depth - 1;
  emit ctx (Isa.Svc Svc.catch_pop);
  emit_label ctx handler;
  (* Both normal completion and throws arrive here with the (tagged)
     value in A; deliver_operand interposes the POINTER -> WANTREP
     coercion the context asked for.  A bare Mov here handed the raw
     tagged word to SWFIX contexts — found by the differential fuzzer
     as (LET ((X (CATCH 'K E))) (DECLARE (FIXNUM X)) X). *)
  deliver_operand ctx n a_reg dest

(* progbody / go / return ---------------------------------------------------------- *)

and gen_progbody ctx pb dest =
  let lend = fresh_label ctx "PBEND" in
  let tag_labels =
    List.filter_map
      (function Ptag t -> Some (t, fresh_label ctx ("TAG-" ^ t)) | Pstmt _ -> None)
      pb.pb_items
  in
  let lookup t =
    match List.assoc_opt t tag_labels with
    | Some l -> l
    | None -> err "GO to unknown tag %s" t
  in
  ctx.pb_env <- (pb.pb_uid, lookup, lend, ctx.bind_depth, ctx.catch_depth) :: ctx.pb_env;
  List.iter
    (function
      | Ptag t -> emit_label ctx (lookup t)
      | Pstmt s -> gen ctx s Ignore)
    pb.pb_items;
  emit ctx (Isa.Mov (a_reg, nil ctx));
  emit_label ctx lend;
  ctx.pb_env <- List.tl ctx.pb_env;
  match dest with
  | Ret -> finish_pb_ret ctx
  | Ignore -> ()
  | To dst -> if dst <> a_reg then emit ctx (Isa.Mov (dst, a_reg))
  | Branch (lt, lf) ->
      emit ctx (Isa.Jmp (Isa.NEQ, a_reg, nil ctx, Isa.L lt));
      emit ctx (Isa.Jmpa (Isa.L lf))

and finish_pb_ret ctx =
  (* A progbody value may include values stored via RETURN of arbitrary
     expressions; conservatively certify. *)
  emit ctx (Isa.Mov (r0, a_reg));
  emit ctx (Isa.Svc Svc.certify);
  emit ctx (Isa.Mov (a_reg, r0));
  emit ctx Isa.Ret

and unwind_to ctx bind_target catch_target =
  if ctx.catch_depth > catch_target then
    for _ = 1 to ctx.catch_depth - catch_target do
      emit ctx (Isa.Svc Svc.catch_pop)
    done;
  if ctx.bind_depth > bind_target then begin
    emit ctx (Isa.Mov (r0, Isa.Imm (ctx.bind_depth - bind_target)));
    emit ctx (Isa.Svc Svc.unbind_special)
  end

and gen_go ctx tag =
  match ctx.pb_env with
  | [] -> err "GO outside PROGBODY"
  | (_, lookup, _, bd, cd) :: _ ->
      unwind_to ctx bd cd;
      emit ctx (Isa.Jmpa (Isa.L (lookup tag)))

and gen_return ctx e =
  match ctx.pb_env with
  | [] -> err "RETURN outside PROGBODY"
  | (_, _, lend, bd, cd) :: _ ->
      gen ctx e (To a_reg);
      unwind_to ctx bd cd;
      emit ctx (Isa.Jmpa (Isa.L lend))

(* Primitive emitters ------------------------------------------------------------ *)

and gen_prim ctx n fname args dest =
  let float_bin op a b =
    let oa, ob = gen_two_operands ctx a b in
    (* prefer delivering straight into a register destination *)
    (match dest with
    | To (Isa.Reg _ as dst) when n.n_isrep = n.n_wantrep -> bin25 ctx op dst oa ob
    | _ ->
        bin25 ctx op rta oa ob;
        deliver_operand ctx n rta dest)
  in
  let float_un op x =
    (match simple_operand ctx x with
    | Some ox -> emit ctx (Isa.Un (op, Isa.S, rta, ox))
    | None ->
        gen ctx x (To rta);
        emit ctx (Isa.Un (op, Isa.S, rta, rta)));
    deliver_operand ctx n rta dest
  in
  let generic2 svc a b =
    (match (simple_operand ctx a, simple_operand ctx b) with
    | Some oa, Some ob ->
        emit ctx (Isa.Mov (r0, oa));
        emit ctx (Isa.Mov (r1, ob))
    | Some oa, None when defer_safe a ->
        gen ctx b (To r1);
        emit ctx (Isa.Mov (r0, oa))
    | None, Some ob ->
        gen ctx a (To r0);
        emit ctx (Isa.Mov (r1, ob))
    | _, None ->
        gen ctx a (To rta);
        emit ctx (Isa.Push rta);
        gen ctx b (To r1);
        emit ctx (Isa.Pop r0));
    emit ctx (Isa.Svc svc);
    deliver_operand ctx n r0 dest
  in
  let generic1 svc x =
    gen_into ctx x r0;
    emit ctx (Isa.Svc svc);
    deliver_operand ctx n r0 dest
  in
  let materialize_bool emit_branches =
    match dest with
    | Branch (lt, lf) -> emit_branches lt lf
    | _ ->
        let lt = fresh_label ctx "BT" and lf = fresh_label ctx "BF" in
        let join = fresh_label ctx "BJ" in
        emit_branches lt lf;
        emit_label ctx lt;
        emit ctx (Isa.Mov (rta, Isa.Imm ctx.w.t_word));
        emit ctx (Isa.Jmpa (Isa.L join));
        emit_label ctx lf;
        emit ctx (Isa.Mov (rta, nil ctx));
        emit_label ctx join;
        deliver_operand ctx n rta dest
  in
  match (fname, args) with
  (* type-specific float arithmetic: the raw FADD/FMULT path *)
  | "+$F", [ a; b ] -> float_bin Isa.FADD a b
  | "-$F", [ a; b ] -> float_bin Isa.FSUB a b
  | "-$F", [ a ] -> float_un Isa.FNEG a
  | "*$F", [ a; b ] -> float_bin Isa.FMULT a b
  | "/$F", [ a; b ] -> float_bin Isa.FDIV a b
  | "MAX$F", [ a; b ] -> float_bin Isa.FMAX a b
  | "MIN$F", [ a; b ] -> float_bin Isa.FMIN a b
  | "ATAN$F", [ a; b ] -> float_bin Isa.FATAN a b
  | "SQRT$F", [ a ] -> float_un Isa.FSQRT a
  | "SINC$F", [ a ] -> float_un Isa.FSIN a
  | "COSC$F", [ a ] -> float_un Isa.FCOS a
  | "SIN$F", [ a ] ->
      (* radians: scale then FSIN (normally rewritten away by the
         optimizer's sin->sinc rule) *)
      let scale = Isa.Imm (F36.encode_single (1.0 /. (2.0 *. Float.pi))) in
      (match simple_operand ctx a with
      | Some oa -> bin25 ctx Isa.FMULT rta scale oa
      | None ->
          gen ctx a (To rta);
          bin25 ctx Isa.FMULT rta scale rta);
      emit ctx (Isa.Un (Isa.FSIN, Isa.S, rta, rta));
      deliver_operand ctx n rta dest
  | "COS$F", [ a ] ->
      let scale = Isa.Imm (F36.encode_single (1.0 /. (2.0 *. Float.pi))) in
      (match simple_operand ctx a with
      | Some oa -> bin25 ctx Isa.FMULT rta scale oa
      | None ->
          gen ctx a (To rta);
          bin25 ctx Isa.FMULT rta scale rta);
      emit ctx (Isa.Un (Isa.FCOS, Isa.S, rta, rta));
      deliver_operand ctx n rta dest
  | "EXP$F", [ a ] -> float_un Isa.FEXP a
  | "LOG$F", [ a ] -> float_un Isa.FLOG a
  (* type-specific fixnum arithmetic *)
  | "+&", [ a; b ] -> float_bin Isa.ADD a b
  | "+&", [ a ] | "*&", [ a ] | "-$F?", [ a ] -> gen ctx a dest
  | "-&", [ a; b ] -> float_bin Isa.SUB a b
  | "-&", [ a ] ->
      gen_into ctx a rta;
      emit ctx (Isa.Un (Isa.NEG, Isa.S, rta, rta));
      deliver_operand ctx n rta dest
  | "*&", [ a; b ] -> float_bin Isa.MULT a b
  (* comparisons *)
  | "<$F", [ a; b ] ->
      materialize_bool (fun lt lf ->
          let oa, ob = gen_two_operands ctx a b in
          emit ctx (Isa.Fjmp (Isa.LSS, oa, ob, Isa.L lt));
          emit ctx (Isa.Jmpa (Isa.L lf)))
  | "=$F", [ a; b ] ->
      materialize_bool (fun lt lf ->
          let oa, ob = gen_two_operands ctx a b in
          emit ctx (Isa.Fjmp (Isa.EQ, oa, ob, Isa.L lt));
          emit ctx (Isa.Jmpa (Isa.L lf)))
  | "<&", [ a; b ] ->
      materialize_bool (fun lt lf ->
          let oa, ob = gen_two_operands ctx a b in
          emit ctx (Isa.Jmp (Isa.LSS, oa, ob, Isa.L lt));
          emit ctx (Isa.Jmpa (Isa.L lf)))
  | "=&", [ a; b ] | "EQ", [ a; b ] ->
      materialize_bool (fun lt lf ->
          let oa, ob = gen_two_operands ctx a b in
          emit ctx (Isa.Jmp (Isa.EQ, oa, ob, Isa.L lt));
          emit ctx (Isa.Jmpa (Isa.L lf)))
  (* generic arithmetic through the runtime *)
  | "+", [ a; b ] -> generic2 Svc.generic_add a b
  | "-", [ a; b ] -> generic2 Svc.generic_sub a b
  | "-", [ a ] -> generic1 Svc.generic_neg a
  | "+", [ a ] | "*", [ a ] -> gen ctx a dest
  | "*", [ a; b ] -> generic2 Svc.generic_mul a b
  | "/", [ a; b ] -> generic2 Svc.generic_div a b
  | "MAX", [ a; b ] -> generic2 Svc.generic_max a b
  | "MAX", [ a ] | "MIN", [ a ] -> gen ctx a dest
  | "MIN", [ a; b ] -> generic2 Svc.generic_min a b
  | "MOD", [ _; _ ] ->
      (* a - b * floor(a/b): give it to the native *)
      gen_native_call ctx n "MOD" args dest
  | "REM", [ _; _ ] -> gen_native_call ctx n "REM" args dest
  | "1+", [ a ] ->
      gen_into ctx a r0;
      emit ctx (Isa.Mov (r1, Isa.Imm (Word.make_ptr ~tag:(Tags.to_int Tags.Fixnum) ~addr:1)));
      emit ctx (Isa.Svc Svc.generic_add);
      deliver_operand ctx n r0 dest
  | "1-", [ a ] ->
      gen_into ctx a r0;
      emit ctx (Isa.Mov (r1, Isa.Imm (Word.make_ptr ~tag:(Tags.to_int Tags.Fixnum) ~addr:1)));
      emit ctx (Isa.Svc Svc.generic_sub);
      deliver_operand ctx n r0 dest
  | "<", [ a; b ] -> generic2 Svc.generic_lss a b
  | "<=", [ a; b ] -> generic2 Svc.generic_leq a b
  | ">", [ a; b ] -> generic2 Svc.generic_gtr a b
  | ">=", [ a; b ] -> generic2 Svc.generic_geq a b
  | "=", [ a; b ] -> generic2 Svc.generic_num_eq a b
  | "ZEROP", [ a ] when a.n_wantrep = SWFIX ->
      materialize_bool (fun lt lf ->
          gen_into ctx a rta;
          emit ctx (Isa.Jmpz (Isa.EQ, rta, Isa.L lt));
          emit ctx (Isa.Jmpa (Isa.L lf)))
  | "ZEROP", [ a ] -> generic1 Svc.generic_zerop a
  | "ODDP", [ a ] -> generic1 Svc.generic_oddp a
  | "EVENP", [ a ] -> generic1 Svc.generic_evenp a
  | "FLOOR", [ a ] -> generic1 Svc.generic_floor a
  | "CEILING", [ a ] -> generic1 Svc.generic_ceiling a
  | "TRUNCATE", [ a ] -> generic1 Svc.generic_truncate a
  | "ROUND", [ a ] -> generic1 Svc.generic_round a
  | "SQRT", [ a ] -> generic1 Svc.generic_sqrt a
  | "SIN", [ a ] -> generic1 Svc.generic_sin a
  | "COS", [ a ] -> generic1 Svc.generic_cos a
  | "EXP", [ a ] -> generic1 Svc.generic_exp a
  | "LOG", [ a ] -> generic1 Svc.generic_log a
  | "ATAN", [ a; b ] -> generic2 Svc.generic_atan a b
  (* list structure *)
  | "CONS", [ a; b ] -> generic2 Svc.cons a b
  | ("CAR" | "CDR"), [ x ] ->
      let off = if fname = "CAR" then 0 else 1 in
      let deliver_from src_reg =
        match src_reg with
        | Isa.Reg r -> deliver_operand ctx n (Isa.Defreg (r, off)) dest
        | _ -> assert false
      in
      gen_into ctx x rta;
      if ctx.opt.checked then begin
        let ok = fresh_label ctx "CAROK" and done_ = fresh_label ctx "CARDONE" in
        emit ctx (Isa.Jmptag (Isa.EQ, rta, Tags.List, Isa.L ok));
        (* NIL? then the answer is NIL *)
        let notnil = fresh_label ctx "CARNN" in
        emit ctx (Isa.Jmp (Isa.NEQ, rta, nil ctx, Isa.L notnil));
        deliver_operand ctx n (nil ctx) dest;
        emit ctx (Isa.Jmpa (Isa.L done_));
        emit_label ctx notnil;
        emit ctx (Isa.Mov (r0, rta));
        emit ctx (Isa.Svc Svc.wrong_type);
        emit_label ctx ok;
        deliver_from rta;
        emit_label ctx done_
      end
      else deliver_from rta
  | ("NOT" | "NULL"), [ x ] ->
      materialize_bool (fun lt lf -> gen_branch ctx x lf lt)
  | "EQL", [ a; b ] -> generic2 Svc.eql_svc a b
  | "EQUAL", [ a; b ] -> generic2 Svc.equal_svc a b
  | "THROW", [ tag; v ] ->
      generic2 Svc.throw tag v
  | "FUNCALL", f :: rest ->
      gen_full_call ctx n (fun () -> gen_into ctx f t1) ~fn_first:true rest dest
  | _ -> gen_native_call ctx n fname args dest

and gen_native_call ctx n fname args dest =
  let cell = ctx.w.function_cell fname in
  gen_full_call ctx n
    (fun () ->
      emit ctx (Isa.Mov (t1, Isa.Mabs cell));
      if ctx.opt.checked then begin
        let ok = fresh_label ctx "FBOUND" in
        emit ctx (Isa.Jmptag (Isa.NEQ, t1, Tags.Unbound, Isa.L ok));
        emit ctx (Isa.Mov (r0, Isa.Imm (ctx.w.symbol_word fname)));
        emit ctx (Isa.Svc Svc.undefined_function);
        emit_label ctx ok
      end)
    args dest

(* ----------------------------------------------------------------------- *)
(* Target annotation: create and pack TNs before emission                  *)
(* ----------------------------------------------------------------------- *)

(* Preorder interval numbering of a function body (not descending into
   nested real closures, which are compiled separately). *)
let number_tree (root : node) =
  let enter = Hashtbl.create 64 and exit_ = Hashtbl.create 64 in
  let clock = ref 0 in
  let rec go n ~top =
    incr clock;
    Hashtbl.replace enter n.n_id !clock;
    (match n.kind with
    | Lambda l when (not top) && (l.l_strategy = Full_closure || l.l_strategy = Toplevel) ->
        () (* separate function *)
    | _ -> List.iter (fun c -> go c ~top:false) (children n));
    incr clock;
    Hashtbl.replace exit_ n.n_id !clock
  in
  go root ~top:true;
  (enter, exit_, !clock)

(* Does the subtree contain anything that unwinds dynamic state? *)
let has_unwind (root : node) =
  let found = ref false in
  let rec go n ~top =
    (match n.kind with
    | Catcher _ -> found := true
    | Lambda l when (not top) && (l.l_strategy = Full_closure || l.l_strategy = Toplevel) -> ()
    | Lambda l ->
        if List.exists (fun p -> p.p_var.v_special) l.l_params then found := true
    | _ -> ());
    match n.kind with
    | Lambda l when (not top) && (l.l_strategy = Full_closure || l.l_strategy = Toplevel) -> ()
    | _ -> List.iter (fun c -> go c ~top:false) (children n)
  in
  go root ~top:true;
  !found

let annotate ctx (fn_lam : lam) (body_root : node) =
  let enter, exit_, max_clock = number_tree body_root in
  let fn_unwinds =
    has_unwind body_root
    || List.exists (fun p -> p.p_var.v_special) fn_lam.l_params
  in
  (* Entry caching of special-variable value cells is only sound when
     this function never changes the binding stack underneath the cache:
     a LET of a special (or a special parameter) pushes a new cell, and a
     CATCH can pop cells on a throw.  The paper's refinement recomputes
     caches at the smallest containing subtree; we conservatively fall
     back to per-access lookup in such functions. *)
  let cache_ok = ctx.opt.cache_specials && not fn_unwinds in
  (* collect real-call ticks *)
  let call_ticks = ref [] in
  let rec scan n ~top =
    (match n.kind with
    | (Call _ | Catcher _) when is_real_call ctx n ->
        call_ticks := Hashtbl.find enter n.n_id :: !call_ticks
    | _ -> ());
    match n.kind with
    | Lambda l when (not top) && (l.l_strategy = Full_closure || l.l_strategy = Toplevel) -> ()
    | _ -> List.iter (fun c -> scan c ~top:false) (children n)
  in
  scan body_root ~top:true;
  let crosses_call first last = List.exists (fun t -> first < t && t < last) !call_ticks in
  let add_var_tn v ~first ~last =
    if v.v_special then ()
    else begin
      let celled = v.v_captured && v.v_setqs <> [] in
      if celled then Hashtbl.replace ctx.celled v.v_id ();
      let pointer = celled || v.v_rep = POINTER in
      (* provenance for packing remarks: the binding form's line, or the
         first reference when the binder is synthetic *)
      let loc =
        match Option.bind v.v_binder (fun b -> b.n_loc) with
        | Some l -> Some l
        | None -> ( match v.v_refs with r :: _ -> r.n_loc | [] -> None)
      in
      let tn =
        Tn.fresh ctx.pool ~pointer ?loc ~rep:(if celled then POINTER else v.v_rep) v.v_name
      in
      tn.Tn.tn_first <- first;
      tn.Tn.tn_last <- last;
      tn.Tn.tn_uses <- List.length v.v_refs + List.length v.v_setqs;
      tn.Tn.tn_across_call <- crosses_call first last || v.v_captured;
      Hashtbl.replace ctx.var_tn v.v_id tn
    end
  in
  (* the function's own parameters live for the whole body *)
  List.iter (fun p -> add_var_tn p.p_var ~first:0 ~last:max_clock) fn_lam.l_params;
  (* walk for open bindings, local functions, pdl sites, specials *)
  let specials_seen = Hashtbl.create 8 in
  let rec walk n ~top =
    (match n.kind with
    | Call ({ kind = Lambda l; _ }, args) when l.l_strategy = Open ->
        let first = Hashtbl.find enter n.n_id and last = Hashtbl.find exit_ n.n_id in
        List.iter2
          (fun p arg ->
            match arg.kind with
            | Lambda al when al.l_strategy = Jump || al.l_strategy = Fast ->
                let fast = al.l_strategy = Fast || fn_unwinds in
                let link =
                  if fast then Tn.alloc_scratch_slot ctx.pool 1 else -1
                in
                Hashtbl.replace ctx.jumps p.p_var.v_id
                  { j_label = fresh_label ctx ("LOCAL-" ^ p.p_var.v_name);
                    j_lam = al; j_fast = fast; j_link_slot = link };
                (* the local function's parameters are frame variables *)
                List.iter
                  (fun lp -> add_var_tn lp.p_var ~first ~last)
                  al.l_params
            | _ -> add_var_tn p.p_var ~first ~last)
          l.l_params args
    | Var v when v.v_special || v.v_binder = None ->
        if cache_ok && not (Hashtbl.mem specials_seen v.v_id) then begin
          Hashtbl.replace specials_seen v.v_id ();
          Hashtbl.replace ctx.special_cache v.v_id (Tn.alloc_scratch_slot ctx.pool 1)
        end
    | Setq (v, _) when v.v_special || v.v_binder = None ->
        if cache_ok && not (Hashtbl.mem specials_seen v.v_id) then begin
          Hashtbl.replace specials_seen v.v_id ();
          Hashtbl.replace ctx.special_cache v.v_id (Tn.alloc_scratch_slot ctx.pool 1)
        end
    | _ -> ());
    (* pdl number slots: eligibility is the analysis' verdict; whether a
       slot is actually allocated is the pdl_numbers option — keeping the
       two apart lets --remarks show the same site as Passed under the
       default configuration and Missed under --no-pdl *)
    (if n.n_pdlokp >= 0 && S1_rep.Pdlnum.boxes_a_float n then
       if ctx.opt.pdl_numbers then begin
         Hashtbl.replace ctx.pdl_slot n.n_id (Tn.alloc_scratch_slot ctx.pool 1);
         S1_obs.Remark.passed ~pass:"pdlnum" ~rule:"PDL-ALLOCATE" ~node:n.n_id ?loc:n.n_loc
           "fresh float boxed on the stack (pdl number): lifetime bounded by a safe \
            consumer"
       end
       else
         S1_obs.Remark.missed ~pass:"pdlnum" ~rule:"PDL-ALLOCATE" ~node:n.n_id ?loc:n.n_loc
           ~args:[ ("why", S1_obs.Remark.Str "pdl numbers disabled") ]
           "fresh float heap-boxed: pdl numbers disabled");
    match n.kind with
    | Lambda l when (not top) && (l.l_strategy = Full_closure || l.l_strategy = Toplevel) -> ()
    | _ -> List.iter (fun c -> walk c ~top:false) (children n)
  in
  walk body_root ~top:true;
  (* A Jump local's calls are parameter-passing gotos that leave this
     frame, legal only while the frame may tail-call; pdl slots forbid
     that (see [compile_body]), and whether the frame holds one is known
     only now that the walk is done.  Such locals link as Fast instead. *)
  if Hashtbl.length ctx.pdl_slot > 0 then
    Hashtbl.fold (fun id j acc -> if j.j_fast then acc else (id, j) :: acc) ctx.jumps []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.iter (fun (id, j) ->
           Hashtbl.replace ctx.jumps id
             { j with j_fast = true; j_link_slot = Tn.alloc_scratch_slot ctx.pool 1 });
  fn_unwinds

(* ----------------------------------------------------------------------- *)
(* Function compilation                                                    *)
(* ----------------------------------------------------------------------- *)

(* The label-prefix well (F~1, F~C2, ...) is domain-local, and
   [reset_label_counter] re-zeroes it so a hermetic per-file compilation
   emits the same labels every time — they appear in listings and in
   serialized images. *)
let counter_global : int ref S1_par.Dls.t = S1_par.Dls.create (fun () -> ref 0)
let reset_label_counter () = S1_par.Dls.get counter_global := 0

let make_fctx w opt ~prefix ~env_layout ~fixups ~pending ~counter =
  {
    w;
    opt;
    buf = ref [];
    prefix;
    pool = Tn.create_pool ();
    var_tn = Hashtbl.create 16;
    celled = Hashtbl.create 4;
    var_loc = Hashtbl.create 16;
    env_layout;
    special_cache = Hashtbl.create 4;
    pdl_slot = Hashtbl.create 4;
    jumps = Hashtbl.create 4;
    pb_env = [];
    bind_depth = 0;
    catch_depth = 0;
    can_tail = true;
    fixups;
    pending;
    counter;
    last_mark = -1;
  }

(* Copy one incoming argument (a POINTER in the frame's argument area)
   into a parameter's storage, wrapping in a cell or deep-binding as
   needed.  Returns the number of special bindings made. *)
let bind_param ctx (v : var) (src : Isa.operand) : int =
  if v.v_special then begin
    emit ctx (Isa.Mov (r1, src));
    emit ctx (Isa.Mov (r0, Isa.Imm (ctx.w.symbol_word v.v_name)));
    emit ctx (Isa.Svc Svc.bind_special);
    ctx.bind_depth <- ctx.bind_depth + 1;
    1
  end
  else begin
    let celled = v.v_captured && v.v_setqs <> [] in
    if celled then begin
      emit ctx (Isa.Mov (r0, src));
      emit ctx (Isa.Mov (r1, nil ctx));
      emit ctx (Isa.Svc Svc.cons);
      (match var_loc ctx v with
      | Lcellframe i -> emit ctx (Isa.Mov (Isa.Ind (Isa.fp, 1 + i), r0))
      | Lcellreg r -> emit ctx (Isa.Mov (Isa.Reg r, r0))
      | _ -> err "celled parameter %s lacks cell storage" v.v_name)
    end
    else if v.v_rep = POINTER then write_var ctx v src
    else begin
      (* declared raw representation: unbox on entry *)
      let dst =
        match var_loc ctx v with
        | Lreg r -> Isa.Reg r
        | Lscratch i -> Isa.Ind (Isa.tp, i)
        | _ -> err "raw parameter %s in pointer storage" v.v_name
      in
      coerce ctx ~from_:POINTER ~to_:v.v_rep src dst
    end;
    0
  end

(* Evaluate a parameter's default expression into its storage. *)
let bind_default ctx (p : param) : int =
  let v = p.p_var in
  let eval_default dst_deliver =
    match p.p_default with
    | Some d -> dst_deliver d
    | None -> dst_deliver (term Sexp.nil)
  in
  if v.v_special then begin
    eval_default (fun d -> gen_into ctx d r1);
    emit ctx (Isa.Mov (r0, Isa.Imm (ctx.w.symbol_word v.v_name)));
    emit ctx (Isa.Svc Svc.bind_special);
    ctx.bind_depth <- ctx.bind_depth + 1
  end
  else begin
    let celled = v.v_captured && v.v_setqs <> [] in
    if celled then begin
      eval_default (fun d -> gen_into ctx d r0);
      emit ctx (Isa.Mov (r1, nil ctx));
      emit ctx (Isa.Svc Svc.cons);
      (match var_loc ctx v with
      | Lcellframe i -> emit ctx (Isa.Mov (Isa.Ind (Isa.fp, 1 + i), r0))
      | Lcellreg r -> emit ctx (Isa.Mov (Isa.Reg r, r0))
      | _ -> err "celled parameter %s lacks cell storage" v.v_name)
    end
    else
      eval_default (fun d ->
          match simple_operand ctx d with
          | Some op when d.n_wantrep = v.v_rep -> write_var ctx v op
          | _ ->
              gen ctx d (To rtb);
              write_var ctx v rtb)
  end;
  if v.v_special then 1 else 0

let tn_report_key : Buffer.t S1_par.Dls.t = S1_par.Dls.create (fun () -> Buffer.create 256)
let tn_report_buf () = S1_par.Dls.get tn_report_key

let compile_body w opt ~prefix ~name ~env_layout ~fixups ~pending ~counter
    ~origin:(origin_id, origin_loc) (l : lam) : Asm.item list =
  let ctx = make_fctx w opt ~prefix ~env_layout ~fixups ~pending ~counter in
  let fn_unwinds = annotate ctx l l.l_body in
  (* defaults can reference earlier parameters, so their code is part of
     the body for TN purposes; conservatively extend with defaults *)
  let packing =
    Obs.with_span "tnbind" (fun () ->
        let naive = not opt.use_tnbind in
        try
          let p = Tn.pack ~naive ctx.pool in
          !(pass_hook ()) "tnbind";
          p
        with e when not naive ->
          (* greedy packing failed: fall back to frame slots for every TN
             still unassigned (pack skips TNs that already have storage,
             so a partial greedy result stays valid) *)
          !(on_fallback ()) ~pass:"tnbind" ~reason:(Printexc.to_string e);
          Tn.pack ~naive:true ctx.pool)
  in
  Buffer.add_string (tn_report_buf ()) (Printf.sprintf ";;; TN packing for %s:\n" name);
  List.iter
    (fun tn ->
      Buffer.add_string (tn_report_buf ()) (Format.asprintf ";;;   %a\n" Tn.pp_tn tn))
    (List.sort (fun a b -> compare a.Tn.tn_id b.Tn.tn_id) ctx.pool.Tn.tns);
  Buffer.add_string (tn_report_buf ())
    (Printf.sprintf ";;;   => %d in registers, %d pointer slots, %d scratch slots\n"
       packing.Tn.r_in_registers packing.Tn.r_pointer_slots packing.Tn.r_scratch_slots);
  Hashtbl.iter
    (fun vid tn ->
      let base = loc_of_storage (Tn.storage tn) in
      let loc =
        if Hashtbl.mem ctx.celled vid then
          match base with
          | Lframe i -> Lcellframe i
          | Lreg r -> Lcellreg r
          | other -> other
        else base
      in
      Hashtbl.replace ctx.var_loc vid loc)
    ctx.var_tn;
  let np = packing.Tn.r_pointer_slots and ns = packing.Tn.r_scratch_slots in
  let nreq = List.length (List.filter (fun p -> p.p_kind = Required) l.l_params) in
  let nopt = List.length (List.filter (fun p -> p.p_kind = Optional) l.l_params) in
  let has_rest = List.exists (fun p -> p.p_kind = Rest) l.l_params in
  let nmax = nreq + nopt in
  (* entry *)
  emit_label ctx (prefix ^ "-ENTRY");
  (* prologue code (arg checking, frame setup, parameter binding) is
     attributed to the function's own Lambda node *)
  ctx.buf := Asm.Mark (origin_id, origin_loc) :: !(ctx.buf);
  ctx.last_mark <- origin_id;
  comment ctx (Printf.sprintf "%s: %d..%s args, %d pointer + %d scratch slots" name nreq
                 (if has_rest then "N" else string_of_int nmax) np ns);
  (* argument-count checking *)
  if opt.checked then begin
    let ok = fresh_label ctx "ARGCOK" in
    if has_rest then begin
      emit ctx (Isa.Jmp (Isa.GEQ, Isa.Reg Isa.rta, Isa.Imm nreq, Isa.L ok));
      emit ctx (Isa.Svc Svc.wrong_number_of_arguments);
      emit_label ctx ok
    end
    else begin
      let ok2 = fresh_label ctx "ARGCOK2" in
      emit ctx (Isa.Jmp (Isa.LSS, Isa.Reg Isa.rta, Isa.Imm nreq, Isa.L ok2));
      emit ctx (Isa.Jmp (Isa.LEQ, Isa.Reg Isa.rta, Isa.Imm nmax, Isa.L ok));
      emit_label ctx ok2;
      emit ctx (Isa.Svc Svc.wrong_number_of_arguments);
      comment ctx "Wrong number of arguments.";
      emit_label ctx ok
    end
  end;
  (* frame allocation *)
  if np > 0 then begin
    emit ctx (Isa.Allocs (nil ctx, np));
    comment ctx (Printf.sprintf "Allocate %d words of pointer memory" np)
  end;
  if ns > 0 then begin
    emit ctx (Isa.Allocs (Isa.Imm gc_stamp, ns));
    comment ctx (Printf.sprintf "Allocate %d words scratch memory" ns)
  end;
  emit ctx (Isa.Mov (Isa.Reg Isa.tp, Isa.Reg Isa.fp));
  emit ctx (Isa.Bin (Isa.ADD, Isa.S, Isa.Reg Isa.tp, Isa.Reg Isa.tp, Isa.Imm (np + 1)));
  comment ctx "Set up TP to point to temporaries";
  let specials_bound = ref 0 in
  let params = Array.of_list l.l_params in
  let body_label = prefix ^ "-BODY" in
  (if (not has_rest) && nopt = 0 then
     (* fixed arity: arguments at M(FP - 5 - n + i) *)
     Array.iteri
       (fun i p ->
         specials_bound :=
           !specials_bound + bind_param ctx p.p_var (Isa.Ind (Isa.fp, -5 - nreq + (i + 1))))
       params
   else if not has_rest then begin
     (* pure &optional: Table 4's dispatch on the argument count *)
     let tbl = fresh_label ctx "DISPATCH" in
     let case_labels = List.init (nopt + 1) (fun i -> fresh_label ctx (Printf.sprintf "ARGS%d" (nreq + i))) in
     emit_data ctx tbl (List.map (fun l -> Asm.Labref l) case_labels);
     emit ctx (Isa.Mov (Isa.Reg Isa.t2, Isa.Dlab (tbl, 0)));
     emit ctx
       (Isa.Jmpi (Isa.Idx { base = Isa.t2; disp = -nreq; index = Isa.rta; shift = 0 }));
     comment ctx "Dispatch on number of arguments.";
     List.iteri
       (fun case lab ->
         let argc = nreq + case in
         emit_label ctx lab;
         comment ctx (Printf.sprintf "Come here if %d arguments were supplied." argc);
         (* copy the supplied arguments *)
         Array.iteri
           (fun i p ->
             if i < argc then
               specials_bound :=
                 !specials_bound + bind_param ctx p.p_var (Isa.Ind (Isa.fp, -5 - argc + (i + 1))))
           params;
         (* defaults for the rest *)
         Array.iteri
           (fun i p ->
             if i >= argc then begin
               comment ctx
                 (Printf.sprintf "Calculate default value for parameter %d [%s]." (i + 1)
                    p.p_var.v_name);
               specials_bound := !specials_bound + bind_default ctx p
             end)
           params;
         emit ctx (Isa.Jmpa (Isa.L body_label)))
       case_labels
   end
   else begin
     (* &rest (with possible optionals): compute the argument base at run
        time in T2 = FP - 5 - argc *)
     emit ctx (Isa.Mov (Isa.Reg Isa.t2, Isa.Reg Isa.fp));
     emit ctx (Isa.Bin (Isa.SUB, Isa.S, Isa.Reg Isa.t2, Isa.Reg Isa.t2, Isa.Imm 5));
     emit ctx (Isa.Bin (Isa.SUB, Isa.S, Isa.Reg Isa.t2, Isa.Reg Isa.t2, Isa.Reg Isa.rta));
     Array.iteri
       (fun i p ->
         match p.p_kind with
         | Required ->
             specials_bound :=
               !specials_bound + bind_param ctx p.p_var (Isa.Ind (Isa.t2, i + 1))
         | Optional ->
             let have = fresh_label ctx "HAVE" and next = fresh_label ctx "OPTDONE" in
             emit ctx (Isa.Jmp (Isa.GEQ, Isa.Reg Isa.rta, Isa.Imm (i + 1), Isa.L have));
             specials_bound := !specials_bound + bind_default ctx p;
             emit ctx (Isa.Jmpa (Isa.L next));
             emit_label ctx have;
             ignore (bind_param ctx p.p_var (Isa.Ind (Isa.t2, i + 1)));
             emit_label ctx next
         | Rest ->
             emit ctx (Isa.Mov (r0, Isa.Imm i));
             emit ctx (Isa.Svc Svc.make_rest);
             write_var ctx p.p_var r0)
       params
   end);
  emit_label ctx body_label;
  (* special-variable lookup caching (paper §4.4): fill each cache slot
     once, mapping var ids back to symbol names via the body's refs *)
  let cache_fills = ref [] in
  iter
    (fun nd ->
      match nd.kind with
      | Var v | Setq (v, _) -> (
          match Hashtbl.find_opt ctx.special_cache v.v_id with
          | Some slot when not (List.mem_assoc slot !cache_fills) ->
              cache_fills := (slot, v.v_name) :: !cache_fills
          | _ -> ())
      | _ -> ())
    l.l_body;
  List.iter
    (fun (slot, name) ->
      emit ctx (Isa.Mov (r0, Isa.Imm (ctx.w.symbol_word name)));
      emit ctx (Isa.Svc Svc.lookup_special);
      emit ctx (Isa.Mov (Isa.Ind (Isa.tp, slot), r0));
      comment ctx (Printf.sprintf "Cache value-cell pointer for special %s" name))
    (List.rev !cache_fills);
  (* pdl slots or unwinding disable tail calls out of this frame *)
  if Hashtbl.length ctx.pdl_slot > 0 || fn_unwinds || !specials_bound > 0 then
    ctx.can_tail <- false;
  (* the body *)
  if !specials_bound > 0 then begin
    gen ctx l.l_body (To a_reg);
    emit ctx (Isa.Mov (r0, Isa.Imm !specials_bound));
    emit ctx (Isa.Svc Svc.unbind_special);
    (* returned value may be unsafe *)
    emit ctx (Isa.Mov (r0, a_reg));
    emit ctx (Isa.Svc Svc.certify);
    emit ctx (Isa.Mov (a_reg, r0));
    emit ctx Isa.Ret
  end
  else gen ctx l.l_body Ret;
  List.rev !(ctx.buf)

let compile_function (w : world) ?(options = default_options) ~(name : string) (lam_node : node)
    : compiled =
  Obs.with_span "codegen" (fun () ->
  match lam_node.kind with
  | Lambda l ->
      let cg = S1_par.Dls.get counter_global in
      incr cg;
      Buffer.clear (tn_report_buf ());
      let prefix = Printf.sprintf "%s~%d" name !cg in
      let fixups = ref [] and pending = ref [] and counter = ref 0 in
      let main =
        compile_body w options ~prefix ~name ~env_layout:[] ~fixups ~pending ~counter
          ~origin:(lam_node.n_id, lam_node.n_loc) l
      in
      (* compile nested closures breadth-first; more may appear *)
      let chunks = ref [ main ] in
      let rec drain () =
        match !pending with
        | [] -> ()
        | (entry, cl, env_layout, origin) :: rest ->
            pending := rest;
            incr cg;
            let cprefix = Printf.sprintf "%s~C%d" name !cg in
            let body =
              compile_body w options ~prefix:cprefix ~name:cl.l_name ~env_layout ~fixups
                ~pending ~counter ~origin cl
            in
            (* the closure's entry label is referenced by fixups: alias it *)
            chunks := (Asm.Label entry :: body) :: !chunks;
            drain ()
      in
      drain ();
      let nreq = List.length (List.filter (fun p -> p.p_kind = Required) l.l_params) in
      let has_rest = List.exists (fun p -> p.p_kind = Rest) l.l_params in
      let nmax = if has_rest then -1 else List.length l.l_params in
      let prog = List.concat (List.rev !chunks) in
      let prog =
        if options.peephole then
          try
            let p = fst (Peephole.run prog) in
            !(pass_hook ()) "peephole";
            p
          with e ->
            (* the unpeepholed program is always a correct fallback *)
            !(on_fallback ()) ~pass:"peephole" ~reason:(Printexc.to_string e);
            prog
        else begin
          S1_obs.Remark.missed ~pass:"peephole" ~rule:"BRANCH-TENSION"
            ~node:lam_node.n_id ?loc:lam_node.n_loc
            ~args:[ ("fn", S1_obs.Remark.Str name) ]
            (Printf.sprintf
               "function %s not peephole-optimized: branch tensioning disabled" name);
          prog
        end
      in
      Obs.incr "gen.functions";
      Obs.incr
        ~n:
          (List.length
             (List.filter (function Asm.Instr _ -> true | _ -> false) prog))
        "gen.instructions";
      {
        c_name = name;
        c_prog = prog;
        c_entry = prefix ^ "-ENTRY";
        c_min_args = nreq;
        c_max_args = nmax;
        c_fixups = !fixups;
        c_tn_report = Buffer.contents (tn_report_buf ());
      }
  | _ -> err "compile_function: not a lambda")
