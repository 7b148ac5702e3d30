module Cpu = S1_machine.Cpu
module Mem = S1_machine.Mem
module Isa = S1_machine.Isa
module Word = S1_machine.Word
module Tags = S1_machine.Tags
module F36 = S1_machine.Float36
module Sexp = S1_sexp.Sexp

type t = {
  cpu : Cpu.t;
  mem : Mem.t;
  heap : Heap.t;
  obj : Obj.t;
  nil : int;
  t_ : int;
  obarray : (string, int) Hashtbl.t;
  mutable catches : catch_frame list;
  mutable protected : int list;
  out : Buffer.t;
  mutable gensym_counter : int;
  mutable fuel : int option;
      (** per-call simulator cycle budget override; [None] uses the
          CPU's default.  The differential fuzzer caps it so a
          miscompiled infinite loop surfaces as a finding, not a hang. *)
}

and catch_frame = {
  c_tag : int;
  c_sp : int;
  c_fp : int;
  c_tp : int;
  c_env : int;
  c_sb : int;
  c_handler : int;
  c_catches_below : int;
}

exception Lisp_error of string

exception Thrown of int * int
(** Raised when a THROW targets an interpreter catch marker (a frame with
    [c_handler = -1]); the interpreter's catch handler consumes it. *)

let err fmt_str = Printf.ksprintf (fun s -> raise (Lisp_error s)) fmt_str

(* Service handler table, indexed by service id.  Registration (module
   initialisation, natives at first boot) is serialised; dispatch reads the
   current array without a lock.  A process registers about 190 services;
   starting at 256 keeps the table out of the small-object pools. *)
let handlers : (t -> unit) option array Atomic.t = Atomic.make (Array.make 256 None)
let handlers_lock = Mutex.create ()

let set_handler id f =
  Mutex.protect handlers_lock (fun () ->
      let old = Atomic.get handlers in
      let n = Array.length old in
      let grow i = if i < n then old.(i) else None in
      let tbl = if id < n then old else Array.init (max (id + 1) (2 * n)) grow in
      tbl.(id) <- Some f;
      Atomic.set handlers tbl)

let handler id =
  let tbl = Atomic.get handlers in
  if id >= 0 && id < Array.length tbl then Array.unsafe_get tbl id else None

(* Symbols -------------------------------------------------------------------- *)

let intern rt name =
  match Hashtbl.find_opt rt.obarray name with
  | Some w -> w
  | None ->
      let w = Obj.symbol rt.obj name in
      Hashtbl.replace rt.obarray name w;
      w

let find_symbol rt name = Hashtbl.find_opt rt.obarray name

let gensym rt prefix =
  rt.gensym_counter <- rt.gensym_counter + 1;
  (* gensyms are uninterned *)
  Obj.symbol rt.obj (Printf.sprintf "%s%04d" prefix rt.gensym_counter)

(* Predicates -------------------------------------------------------------------- *)

let truthy rt w = w <> rt.nil
let bool_word rt b = if b then rt.t_ else rt.nil
let eq _rt a b = a = b

let is_number w = Tags.is_number (Obj.tag_of w)

let eql rt a b =
  a = b
  || (is_number a && is_number b
     && Obj.tag_of a = Obj.tag_of b
     && Numerics.eql (Numerics.decode rt.obj a) (Numerics.decode rt.obj b))
  || (Obj.tag_of a = Tags.Char && Obj.tag_of b = Tags.Char && a = b)

let rec equal_depth rt depth a b =
  if depth > 100_000 then err "EQUAL: structure too deep"
  else
    eql rt a b
    || (Obj.is_cons rt.obj a && Obj.is_cons rt.obj b
       && equal_depth rt (depth + 1) (Obj.car rt.obj a) (Obj.car rt.obj b)
       && equal_depth rt (depth + 1) (Obj.cdr rt.obj a) (Obj.cdr rt.obj b))
    || (Obj.tag_of a = Tags.String && Obj.tag_of b = Tags.String
       && String.equal (Obj.string_value rt.obj a) (Obj.string_value rt.obj b))
    ||
    (Obj.tag_of a = Tags.Vector && Obj.tag_of b = Tags.Vector
    &&
    let n = Obj.vector_length rt.obj a in
    n = Obj.vector_length rt.obj b
    &&
    let rec go i =
      i >= n
      || (equal_depth rt (depth + 1) (Obj.vector_ref rt.obj a i) (Obj.vector_ref rt.obj b i)
         && go (i + 1))
    in
    go 0)

let equal rt a b = equal_depth rt 0 a b

(* Deep binding -------------------------------------------------------------------- *)

let bind_special rt sym value =
  let sb = Cpu.get_reg rt.cpu Isa.sb in
  if sb + 2 > Mem.bind_limit rt.mem then begin
    (* Deep binding keeps the rebound value in the stack entry itself, so
       popping every entry is all it takes to expose the globals again:
       unwind before trapping and the world stays usable. *)
    Cpu.set_reg rt.cpu Isa.sb (Mem.bind_base rt.mem);
    Cpu.trap rt.cpu Cpu.Bind_stack_overflow "special-binding stack overflow binding %s"
      (Obj.symbol_name rt.obj sym)
  end
  else begin
    Mem.write rt.mem sb sym;
    Mem.write rt.mem (sb + 1) value;
    Cpu.set_reg rt.cpu Isa.sb (sb + 2);
    let depth = sb + 2 - Mem.bind_base rt.mem in
    if depth > rt.cpu.Cpu.stats.Cpu.bind_high then rt.cpu.Cpu.stats.Cpu.bind_high <- depth;
    if S1_obs.Timeline.enabled () then
      S1_obs.Timeline.instant ~cat:"special"
        ~args:
          [
            ("symbol", S1_obs.Json.Str (Obj.symbol_name rt.obj sym));
            ("depth", S1_obs.Json.Int (depth / 2));
          ]
        "bind"
  end

let unbind_specials rt n =
  let sb = Cpu.get_reg rt.cpu Isa.sb in
  (* Clamp rather than err: after a bind-stack trap forcibly unwound to
     the base, in-flight function epilogues still run their paired
     unbinds, which must now be no-ops. *)
  let sb' = max (Mem.bind_base rt.mem) (sb - (2 * n)) in
  Cpu.set_reg rt.cpu Isa.sb sb';
  if n > 0 && S1_obs.Timeline.enabled () then
    S1_obs.Timeline.instant ~cat:"special"
      ~args:
        [
          ("count", S1_obs.Json.Int n);
          ("depth", S1_obs.Json.Int ((sb' - Mem.bind_base rt.mem) / 2));
        ]
      "unbind"

let lookup_special_cell rt sym =
  let base = Mem.bind_base rt.mem in
  let rec scan i =
    if i < base then Obj.symbol_value_cell rt.obj sym
    else if Mem.read rt.mem i = sym then i + 1
    else scan (i - 2)
  in
  scan (Cpu.get_reg rt.cpu Isa.sb - 2)

let symbol_name rt w = Obj.symbol_name rt.obj w

let symbol_value_dynamic rt sym =
  if sym = rt.nil then rt.nil
  else
    let v = Mem.read rt.mem (lookup_special_cell rt sym) in
    if Obj.tag_of v = Tags.Unbound then err "unbound variable %s" (symbol_name rt sym) else v

let set_symbol_value_dynamic rt sym v = Mem.write rt.mem (lookup_special_cell rt sym) v
let proclaim_special rt sym = Obj.symbol_set_special rt.obj sym

(* Functions -------------------------------------------------------------------- *)

let set_function rt sym fobj = Mem.write rt.mem (Obj.symbol_function_cell rt.obj sym) fobj

let function_of rt sym =
  let v = Mem.read rt.mem (Obj.symbol_function_cell rt.obj sym) in
  if Obj.tag_of v = Tags.Unbound then err "undefined function %s" (symbol_name rt sym) else v

(* GC protection ------------------------------------------------------------------ *)

let protect rt w = rt.protected <- w :: rt.protected

let pop_protect rt n =
  let rec drop n l = if n = 0 then l else match l with [] -> [] | _ :: tl -> drop (n - 1) tl in
  rt.protected <- drop n rt.protected

let with_protected rt ws f =
  let saved = rt.protected in
  rt.protected <- ws @ saved;
  Fun.protect ~finally:(fun () -> rt.protected <- saved) f

(* Nested-safe simulated call ------------------------------------------------------- *)

let call rt fobj args =
  let cpu = rt.cpu in
  let saved_pc = cpu.Cpu.pc and saved_halted = cpu.Cpu.halted in
  (* Snapshot the whole machine context, not just the pc: when the call
     dies mid-flight (trap, Lisp error, fuel), the stacks hold abandoned
     frames, catch frames, and special rebindings that would otherwise
     poison every later call on this world.  On a normal return the
     calling convention has already restored these, so the writes are
     no-ops. *)
  let saved_sp = Cpu.get_reg cpu Isa.sp
  and saved_fp = Cpu.get_reg cpu Isa.fp
  and saved_tp = Cpu.get_reg cpu Isa.tp
  and saved_env = Cpu.get_reg cpu Isa.env
  and saved_sb = Cpu.get_reg cpu Isa.sb
  and saved_catches = rt.catches
  and saved_shadow = Cpu.shadow_depth cpu in
  (* A synthetic shadow frame marks the host re-entry, so cycles of the
     nested run attribute under "(host)" rather than merging into
     whatever compiled frame happened to be current. *)
  if Cpu.callgraph_on cpu then Cpu.shadow_push cpu "(host)";
  Fun.protect
    ~finally:(fun () ->
      cpu.Cpu.pc <- saved_pc;
      cpu.Cpu.halted <- saved_halted;
      Cpu.set_reg cpu Isa.sp saved_sp;
      Cpu.set_reg cpu Isa.fp saved_fp;
      Cpu.set_reg cpu Isa.tp saved_tp;
      Cpu.set_reg cpu Isa.env saved_env;
      (* popping the bind stack restores the globals under deep binding *)
      Cpu.set_reg cpu Isa.sb (min saved_sb (Cpu.get_reg cpu Isa.sb));
      rt.catches <- saved_catches;
      (* like the register restores: a no-op on a normal return (the RET
         popped the callee, truncation drops only "(host)"), and the
         abandoned-frame cleanup when the call died mid-flight *)
      Cpu.shadow_truncate cpu saved_shadow)
    (fun () -> Cpu.call_function ?fuel:rt.fuel cpu ~fobj ~args)

(* Supervision: arm the CPU watchdog for the dynamic extent of [f].  The
   budget is cumulative over every nested simulator run — macroexpander
   calls, DEFVAR initializers, toplevel effects — so a compile job
   cannot dodge its deadline by spreading work across many small calls.
   Nests conservatively: an enclosing tighter deadline stays in force. *)
let with_deadline rt ~cycles f =
  let cpu = rt.cpu in
  let saved = cpu.Cpu.deadline in
  let d = cpu.Cpu.stats.Cpu.cycles + cycles in
  cpu.Cpu.deadline <- Some (match saved with Some d0 -> min d0 d | None -> d);
  Fun.protect ~finally:(fun () -> cpu.Cpu.deadline <- saved) f

(* Frame argument access for native handlers. *)
let frame_args rt =
  let cpu = rt.cpu in
  let fp = Cpu.get_reg cpu Isa.fp in
  let argc = Word.addr_of (Mem.read rt.mem fp) in
  List.init argc (fun i -> Mem.read rt.mem (fp - 4 - argc + i))

(* Pdl-number certification (paper §6.3): a pointer into the control
   stack is only valid for the current call's lifetime.  Copy the boxed
   number into the heap; any other value passes through. *)
let certify_word rt w =
  let tag = Obj.tag_of w in
  let addr = Word.addr_of w in
  if Tags.is_pointer tag && Mem.is_stack_addr rt.mem addr then
    match tag with
    | Tags.Single_flonum ->
        S1_obs.Obs.incr "heap.certified_escapes";
        Obj.single rt.obj (F36.decode_single (Mem.read rt.mem addr))
    | Tags.Double_flonum ->
        S1_obs.Obs.incr "heap.certified_escapes";
        Obj.double rt.obj (F36.decode_double (Mem.read rt.mem addr, Mem.read rt.mem (addr + 1)))
    | _ -> err "certify: unexpected stack pointer of type %s" (Tags.name tag)
  else w

let register_native ~name ~min_args ~max_args impl =
  let id = Isa.register_svc (Printf.sprintf "*:SQ-NATIVE-%s" name) in
  set_handler id (fun rt ->
      (* Natives may store arguments into heap structure, so certify any
         pdl numbers on the way in. *)
      let args = List.map (certify_word rt) (frame_args rt) in
      let n = List.length args in
      if n < min_args || (max_args >= 0 && n > max_args) then
        err "%s: wrong number of arguments (%d)" name n
      else
        let result = with_protected rt args (fun () -> impl rt args) in
        Cpu.set_reg rt.cpu Isa.a result);
  id

let install_native rt ~name ~svc ~min_args ~max_args =
  let image = Cpu.load rt.cpu S1_machine.Asm.[ Instr (Isa.Svc svc); Instr Isa.Ret ] in
  Cpu.add_symbol rt.cpu ~lo:image.S1_machine.Asm.org ~hi:(image.S1_machine.Asm.org + 2) ~name;
  let sym = intern rt name in
  let fobj =
    Obj.code ~where:`Static rt.obj ~entry:image.S1_machine.Asm.org ~name:sym ~min_args ~max_args
  in
  set_function rt sym fobj

(* Conversion -------------------------------------------------------------------- *)

let rec sexp_to_value ?(where = `Heap) rt (s : Sexp.t) =
  match s with
  | Sexp.Sym name -> intern rt name
  | Sexp.Int n ->
      if n >= Word.fixnum_min && n <= Word.fixnum_max then Obj.fixnum n
      else Obj.bignum ~where rt.obj (Bignum.of_int n)
  | Sexp.Big digits -> Obj.integer ~where rt.obj (Bignum.of_string digits)
  | Sexp.Ratio (n, d) ->
      Numerics.encode ~where rt.obj
        (Numerics.normalize_ratio (Bignum.of_int n) (Bignum.of_int d))
  | Sexp.Float (f, Sexp.Half) ->
      Word.make_ptr ~tag:(Tags.to_int Tags.Half_flonum) ~addr:(F36.encode_half f)
  | Sexp.Float (f, Sexp.Single) -> Obj.single ~where rt.obj f
  | Sexp.Float (f, (Sexp.Double | Sexp.Twice)) -> Obj.double ~where rt.obj f
  | Sexp.Str s -> Obj.string_ ~where rt.obj s
  | Sexp.Char c -> Obj.char_ c
  | Sexp.List items ->
      List.fold_right (fun x acc ->
          let xw = sexp_to_value ~where rt x in
          with_protected rt [ xw; acc ] (fun () -> Obj.cons ~where rt.obj xw acc))
        items rt.nil
  | Sexp.Dotted (items, tail) ->
      let tl = sexp_to_value ~where rt tail in
      List.fold_right (fun x acc ->
          let xw = sexp_to_value ~where rt x in
          with_protected rt [ xw; acc ] (fun () -> Obj.cons ~where rt.obj xw acc))
        items tl

let rec value_to_sexp rt w =
  if w = rt.nil then Sexp.List []
  else
  match Obj.tag_of w with
  | Tags.Symbol -> Sexp.Sym (symbol_name rt w)
  | Tags.Fixnum -> Sexp.Int (Obj.fixnum_value w)
  | Tags.Char -> Sexp.Char (Obj.char_value w)
  | Tags.Half_flonum -> Sexp.Float (F36.decode_half (Word.addr_of w), Sexp.Half)
  | Tags.Single_flonum ->
      (* shortest decimal that re-encodes to the same 36-bit single *)
      let f = Obj.single_value rt.obj w in
      let word = Mem.read rt.mem (Word.addr_of w) in
      let rec shortest p =
        if p > 17 then f
        else
          let cand = float_of_string (Printf.sprintf "%.*g" p f) in
          if F36.encode_single cand = word then cand else shortest (p + 1)
      in
      Sexp.Float (shortest 1, Sexp.Single)
  | Tags.Double_flonum -> Sexp.Float (Obj.double_value rt.obj w, Sexp.Double)
  | Tags.Bignum ->
      let b = Obj.bignum_value rt.obj w in
      (match Bignum.to_int_opt b with
      | Some v when v >= -(1 lsl 35) && v < 1 lsl 35 -> Sexp.Int v
      | _ -> Sexp.Big (Bignum.to_string b))
  | Tags.Ratio ->
      let n, d = Obj.ratio_parts rt.obj w in
      (match (value_to_sexp rt n, value_to_sexp rt d) with
      | Sexp.Int n', Sexp.Int d' -> Sexp.Ratio (n', d')
      | ns, ds -> Sexp.List [ Sexp.Sym "/"; ns; ds ])
  | Tags.Complex ->
      let re, im = Obj.complex_parts rt.obj w in
      Sexp.List [ Sexp.Sym "COMPLEX"; value_to_sexp rt re; value_to_sexp rt im ]
  | Tags.String -> Sexp.Str (Obj.string_value rt.obj w)
  | Tags.Vector ->
      let n = Obj.vector_length rt.obj w in
      Sexp.List
        (Sexp.Sym "#VECTOR" :: List.init n (fun i -> value_to_sexp rt (Obj.vector_ref rt.obj w i)))
  | Tags.List ->
      let rec go w acc n =
        if n > 100_000 then err "print: list too long or circular"
        else if w = rt.nil then Sexp.List (List.rev acc)
        else if Obj.is_cons rt.obj w then
          go (Obj.cdr rt.obj w) (value_to_sexp rt (Obj.car rt.obj w) :: acc) (n + 1)
        else Sexp.Dotted (List.rev acc, value_to_sexp rt w)
      in
      go w [] 0
  | Tags.Closure -> Sexp.Sym "#<CLOSURE>"
  | Tags.Code ->
      Sexp.Sym
        (Printf.sprintf "#<FUNCTION %s>" (symbol_name rt (Obj.code_name rt.obj w)))
  | Tags.Unbound -> Sexp.Sym "#<UNBOUND>"
  | t -> Sexp.Sym (Printf.sprintf "#<%s %d>" (Tags.name t) (Word.addr_of w))

let print_value rt w = Sexp.to_string (value_to_sexp rt w)

let princ_value rt w =
  match Obj.tag_of w with
  | Tags.String -> Obj.string_value rt.obj w
  | Tags.Char -> String.make 1 (Obj.char_value w)
  | _ -> print_value rt w

let output rt = Buffer.contents rt.out
let clear_output rt = Buffer.clear rt.out

(* Non-local exits ----------------------------------------------------------- *)

(* Unwind to the innermost catch frame whose tag is eq to [tag].  If the
   target is a compiled (simulated) frame, restore the machine registers
   and redirect the pc to its handler; if it is an interpreter marker
   (c_handler = -1), raise {!Thrown} for the interpreter to consume. *)
let do_throw rt tag value =
  let rec find = function
    | [] -> err "no catch for tag %s" (print_value rt tag)
    | f :: rest -> if f.c_tag = tag then (f, rest) else find rest
  in
  let f, below = find rt.catches in
  if S1_obs.Timeline.enabled () then
    S1_obs.Timeline.instant ~cat:"unwind"
      ~args:
        [
          ("tag", S1_obs.Json.Str (print_value rt tag));
          ("frames_dropped", S1_obs.Json.Int (List.length rt.catches - List.length below - 1));
        ]
      "throw";
  if f.c_handler = -1 then raise (Thrown (tag, value))
  else begin
    rt.catches <- below;
    let cpu = rt.cpu in
    Cpu.set_reg cpu Isa.sp f.c_sp;
    Cpu.set_reg cpu Isa.fp f.c_fp;
    Cpu.set_reg cpu Isa.tp f.c_tp;
    Cpu.set_reg cpu Isa.env f.c_env;
    Cpu.set_reg cpu Isa.sb f.c_sb;
    Cpu.set_reg cpu Isa.a value;
    cpu.Cpu.pc <- f.c_handler;
    (* the registers were restored without executing the intervening
       RETs: drop the shadow frames of the abandoned machine frames *)
    Cpu.shadow_unwind_to cpu ~fp:f.c_fp
  end

(* Service handlers -------------------------------------------------------------- *)

(* Shadow-frame label for a service trap: "*:SQ-CONS" -> "svc:CONS". *)
let svc_frame_name id =
  let name = Isa.svc_name id in
  let name =
    let prefix = "*:SQ-" in
    if String.length name > String.length prefix
       && String.sub name 0 (String.length prefix) = prefix
    then String.sub name (String.length prefix) (String.length name - String.length prefix)
    else name
  in
  "svc:" ^ name

let r0 rt = Cpu.get_reg rt.cpu 0
let r1 rt = Cpu.get_reg rt.cpu 1
let set_r0 rt v = Cpu.set_reg rt.cpu 0 v

let install_handlers () =
  let h = set_handler in
  let num1 rt = Numerics.decode rt.obj (r0 rt) in
  let num2 rt = (Numerics.decode rt.obj (r0 rt), Numerics.decode rt.obj (r1 rt)) in
  let enc rt n = Numerics.encode rt.obj n in
  let arith f rt =
    let a, b = num2 rt in
    set_r0 rt (enc rt (f a b))
  in
  let arith1 f rt = set_r0 rt (enc rt (f (num1 rt))) in
  let pred1 f rt = set_r0 rt (bool_word rt (f (num1 rt))) in
  let cmp rel rt =
    let a, b = num2 rt in
    set_r0 rt (bool_word rt (rel (Numerics.compare_ a b) 0))
  in
  (* Allocation *)
  h Svc.cons (fun rt -> set_r0 rt (Obj.cons rt.obj (r0 rt) (r1 rt)));
  h Svc.single_flonum_cons (fun rt ->
      set_r0 rt (Obj.single rt.obj (F36.decode_single (r0 rt))));
  h Svc.double_flonum_cons (fun rt ->
      set_r0 rt (Obj.double rt.obj (F36.decode_double (r0 rt, r1 rt))));
  h Svc.closure_cons (fun rt -> set_r0 rt (Obj.closure rt.obj ~code:(r0 rt) ~env:(r1 rt)));
  h Svc.vector_cons (fun rt ->
      let n = Word.to_signed (r0 rt) in
      set_r0 rt (Obj.vector rt.obj (Array.make n rt.nil)));
  (* Generic arithmetic.  When both operands are fixnums and so is the
     result, compute directly: the general path would box both operands
     as bignums and unbox the result, to the same word and without heap
     allocation.  Every other case (overflow included) takes it. *)
  let fixnum_tag = Tags.to_int Tags.Fixnum in
  let[@inline] fixnums2 op general rt =
    let a = r0 rt and b = r1 rt in
    if Word.tag_of a = fixnum_tag && Word.tag_of b = fixnum_tag then
      op rt (Obj.fixnum_value a) (Obj.fixnum_value b)
    else general rt
  in
  let fixnum_arith op general =
    fixnums2
      (fun rt a b ->
        let v = op a b in
        if v >= Word.fixnum_min && v <= Word.fixnum_max then set_r0 rt (Obj.fixnum v) else general rt)
      general
  in
  let fixnum_cmp rel general = fixnums2 (fun rt a b -> set_r0 rt (bool_word rt (rel a b))) general in
  h Svc.generic_add (fixnum_arith ( + ) (arith Numerics.add));
  h Svc.generic_sub (fixnum_arith ( - ) (arith Numerics.sub));
  h Svc.generic_mul (arith Numerics.mul);
  h Svc.generic_div (fun rt ->
      let a, b = num2 rt in
      (try set_r0 rt (enc rt (Numerics.div a b))
       with Division_by_zero -> err "division by zero"));
  h Svc.generic_neg (arith1 Numerics.neg);
  h Svc.generic_lss (fixnum_cmp ( < ) (cmp ( < )));
  h Svc.generic_leq (fixnum_cmp ( <= ) (cmp ( <= )));
  h Svc.generic_gtr (fixnum_cmp ( > ) (cmp ( > )));
  h Svc.generic_geq (fixnum_cmp ( >= ) (cmp ( >= )));
  h Svc.generic_num_eq
    (fixnum_cmp Int.equal (fun rt ->
         let a, b = num2 rt in
         set_r0 rt (bool_word rt (Numerics.equal_value a b))));
  h Svc.generic_max (fun rt ->
      let a, b = num2 rt in
      set_r0 rt (enc rt (if Numerics.compare_ a b >= 0 then a else b)));
  h Svc.generic_min (fun rt ->
      let a, b = num2 rt in
      set_r0 rt (enc rt (if Numerics.compare_ a b <= 0 then a else b)));
  h Svc.generic_zerop (fun rt ->
      let a = r0 rt in
      if Word.tag_of a = fixnum_tag then set_r0 rt (bool_word rt (Obj.fixnum_value a = 0))
      else pred1 Numerics.zerop rt);
  h Svc.generic_oddp (pred1 Numerics.oddp);
  h Svc.generic_evenp (pred1 Numerics.evenp);
  let rounding f rt =
    let a = num1 rt in
    set_r0 rt (enc rt (fst (f a)))
  in
  h Svc.generic_floor (rounding Numerics.floor_);
  h Svc.generic_ceiling (rounding Numerics.ceiling_);
  h Svc.generic_truncate (rounding Numerics.truncate_);
  h Svc.generic_round (rounding Numerics.round_);
  h Svc.generic_sqrt (arith1 Numerics.sqrt_);
  h Svc.generic_sin (arith1 Numerics.sin_);
  h Svc.generic_cos (arith1 Numerics.cos_);
  h Svc.generic_exp (arith1 Numerics.exp_);
  h Svc.generic_log (arith1 Numerics.log_);
  h Svc.generic_atan (arith Numerics.atan_);
  h Svc.generic_expt (arith Numerics.expt);
  (* Equality *)
  h Svc.eql_svc (fun rt -> set_r0 rt (bool_word rt (eql rt (r0 rt) (r1 rt))));
  h Svc.equal_svc (fun rt -> set_r0 rt (bool_word rt (equal rt (r0 rt) (r1 rt))));
  (* Errors *)
  h Svc.wrong_number_of_arguments (fun rt ->
      err "wrong number of arguments (%d)" (Word.addr_of (Cpu.get_reg rt.cpu Isa.rta)));
  h Svc.wrong_type (fun rt -> err "wrong type: %s" (print_value rt (r0 rt)));
  h Svc.wrong_type_of_function (fun rt ->
      err "not a function: %s" (print_value rt (r0 rt)));
  h Svc.unbound_variable (fun rt -> err "unbound variable %s" (symbol_name rt (r0 rt)));
  h Svc.undefined_function (fun rt -> err "undefined function %s" (symbol_name rt (r0 rt)));
  h Svc.error_signal (fun rt -> err "ERROR: %s" (princ_value rt (r0 rt)));
  (* Special variables *)
  h Svc.bind_special (fun rt -> bind_special rt (r0 rt) (r1 rt));
  h Svc.unbind_special (fun rt -> unbind_specials rt (Word.to_signed (r0 rt)));
  h Svc.lookup_special (fun rt -> set_r0 rt (lookup_special_cell rt (r0 rt)));
  h Svc.symbol_value (fun rt -> set_r0 rt (symbol_value_dynamic rt (r0 rt)));
  h Svc.set_symbol_value (fun rt -> set_symbol_value_dynamic rt (r0 rt) (r1 rt));
  h Svc.symbol_function (fun rt -> set_r0 rt (function_of rt (r0 rt)));
  (* Pdl-number certification: if R0 points into the stack, copy the
     number into the heap (paper §6.3). *)
  h Svc.certify (fun rt -> set_r0 rt (certify_word rt (r0 rt)));
  h Svc.make_rest (fun rt ->
      let start = Word.to_signed (r0 rt) in
      let args = frame_args rt in
      let rec drop n l = if n <= 0 then l else match l with [] -> [] | _ :: t -> drop (n - 1) t in
      let rest = drop start args in
      set_r0 rt
        (with_protected rt rest (fun () ->
             List.fold_right
               (fun x acc -> with_protected rt [ acc ] (fun () -> Obj.cons rt.obj x acc))
               rest rt.nil)));
  h Svc.box_integer (fun rt ->
      let v = Word.to_signed (r0 rt) in
      set_r0 rt
        (if v >= Word.fixnum_min && v <= Word.fixnum_max then Obj.fixnum v
         else Obj.bignum rt.obj (Bignum.of_int v)));
  (* Catch and throw *)
  h Svc.catch_push (fun rt ->
      let cpu = rt.cpu in
      rt.catches <-
        {
          c_tag = r0 rt;
          c_handler = Word.addr_of (r1 rt);
          c_sp = Cpu.get_reg cpu Isa.sp;
          c_fp = Cpu.get_reg cpu Isa.fp;
          c_tp = Cpu.get_reg cpu Isa.tp;
          c_env = Cpu.get_reg cpu Isa.env;
          c_sb = Cpu.get_reg cpu Isa.sb;
          c_catches_below = List.length rt.catches;
        }
        :: rt.catches);
  h Svc.catch_pop (fun rt ->
      match rt.catches with
      | [] -> err "catch-pop with no catch frame"
      | _ :: tl -> rt.catches <- tl);
  h Svc.throw (fun rt -> do_throw rt (r0 rt) (r1 rt));
  (* I/O, GC *)
  h Svc.write_value (fun rt -> Buffer.add_string rt.out (princ_value rt (r0 rt)));
  h Svc.terpri (fun rt -> Buffer.add_char rt.out '\n');
  h Svc.force_gc (fun rt -> Heap.collect rt.heap)

let () = install_handlers ()

(* Run a service handler, surfacing runtime-level faults as Lisp error
   conditions; resource exhaustion becomes a machine trap carrying the
   pc and source provenance of the faulting instruction. *)
let dispatch rt cpu f =
  try f rt with
  | Numerics.Not_a_number what -> err "not a number: %s" what
  | Division_by_zero -> err "division by zero"
  | Heap.Heap_exhausted { requested } ->
      Cpu.trap cpu Cpu.Heap_exhaustion "heap exhausted (requested %d words after GC)" requested
  | Failure msg -> err "%s" msg

(* Services that allocate, indexed by service id. *)
let allocating_svcs =
  let ids =
    [ Svc.cons; Svc.single_flonum_cons; Svc.double_flonum_cons; Svc.closure_cons;
      Svc.vector_cons; Svc.make_rest; Svc.box_integer ]
  in
  Array.init (max 256 (1 + List.fold_left max 0 ids)) (fun id -> List.mem id ids)

(* Boot -------------------------------------------------------------------- *)

let create ?config () =
  let mem = Mem.create ?config () in
  let cpu = Cpu.create ~mem () in
  let heap = Heap.create mem in
  let obj = Obj.create mem heap in
  let rt =
    {
      cpu;
      mem;
      heap;
      obj;
      nil = obj.Obj.nil;
      t_ = 0;
      obarray = Hashtbl.create 256;
      catches = [];
      protected = [];
      out = Buffer.create 256;
      gensym_counter = 0;
      fuel = None;
    }
  in
  Hashtbl.replace rt.obarray "NIL" rt.nil;
  let t_word = intern rt "T" in
  Mem.write mem (Obj.symbol_value_cell obj t_word) t_word;
  let rt = { rt with t_ = t_word } in
  Hashtbl.replace rt.obarray "T" t_word;
  (* GC hooks *)
  Heap.set_register_roots heap (fun () -> cpu.Cpu.regs);
  Heap.set_stack_tops heap (fun () -> (Cpu.get_reg cpu Isa.sp, Cpu.get_reg cpu Isa.sb));
  Heap.set_extra_roots heap (fun () ->
      let catch_words =
        List.concat_map (fun f -> [ f.c_tag ]) rt.catches
      in
      catch_words @ rt.protected);
  (* Observability hooks: the runtime event timeline runs on this
     world's deterministic cycle clock and labels events with the
     CPU's current call path; heap allocation volume charges to the
     allocating call path.  Like the Obs registry, the timeline is
     process-global — the most recently created world owns the clock. *)
  S1_obs.Timeline.set_clock (fun () -> cpu.Cpu.stats.Cpu.cycles);
  S1_obs.Timeline.set_path_provider (fun () -> Cpu.shadow_path cpu);
  Heap.set_alloc_hook heap (fun words -> Cpu.shadow_charge_alloc cpu words);
  (* Service dispatch.  Allocating services count a heap.site.* key for
     the source line of the trapping SVC, cached per PC.  The key depends
     only on the PC line maps, so the cache lives as long as the map list
     it was computed from; loading mapped code or a code_release replaces
     the list. *)
  let site_keys = Hashtbl.create 16 and site_maps = ref cpu.Cpu.mark_segments in
  let site_key pc =
    if !site_maps != cpu.Cpu.mark_segments then begin
      Hashtbl.reset site_keys;
      site_maps := cpu.Cpu.mark_segments
    end;
    match Hashtbl.find_opt site_keys pc with
    | Some key -> key
    | None ->
        let key =
          match Cpu.provenance_at cpu pc with
          | Some { S1_machine.Asm.m_loc = Some l; _ } ->
              Printf.sprintf "heap.site.%s:%d" l.S1_loc.Loc.file l.S1_loc.Loc.line
          | _ -> "heap.site.unattributed"
        in
        Hashtbl.add site_keys pc key;
        key
  in
  cpu.Cpu.service <-
    (fun _cpu id ->
      if id < Array.length allocating_svcs && Array.unsafe_get allocating_svcs id then
        S1_obs.Obs.incr (site_key cpu.Cpu.pc);
      match handler id with
      | Some f ->
          if Cpu.callgraph_on cpu then begin
            (* a synthetic shadow frame per service, so host-side work
               (allocation, generic arithmetic, THROW) carries call-path
               context; truncation (not a blind pop) keeps this correct
               even when the handler THROWs to a shallower frame *)
            let depth = Cpu.shadow_depth cpu in
            Cpu.shadow_push cpu (svc_frame_name id);
            Fun.protect ~finally:(fun () -> Cpu.shadow_truncate cpu depth) (fun () -> dispatch rt cpu f)
          end
          else dispatch rt cpu f
      | None -> err "unknown service %s" (Isa.svc_name id));
  cpu.Cpu.bad_function_svc <- Svc.wrong_type_of_function;
  rt
