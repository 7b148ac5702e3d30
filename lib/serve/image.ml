(** Serialized compiled units: the [s1lisp.image/4] on-disk format.

    An image is everything the compile service needs to reinstate a
    compiled file into a {e different} live world than the one it was
    compiled against: per top-level form, its reading
    ({!S1_frontend.Convert.toplevel}) with a compiled unit in place of
    each source form.  A unit is a {!S1_codegen.Gen.compiled} as the
    generator made it, without its TN packing: the pre-assembly program
    with every world-dependent word a {e sentinel}, plus the ordered
    recipe of world requests ("intern this symbol", "intern this
    constant", "allocate a fresh static cell") that
    {!S1_core.Compiler.install} replays against the target world.
    Replaying the recipe in recording order reproduces the exact
    interning and static-allocation sequence a from-source compile
    performs, which is what makes a warm load byte-identical to a cold
    compile: same words, same addresses, same cycle counts.

    The format is byte-deterministic: the same unit under the same
    optimization flags always serializes to the same bytes (no
    timestamps, no hash-order maps, floats stored as IEEE bit
    patterns), so content-addressed caching and byte-level `cmp` of
    image trees are sound.

    The loader is total: [load] returns a typed {!load_error} — wrong
    schema, checksum mismatch, torn write, malformed structure — and
    never lets an exception escape.  It reads the payload typed, in the
    canonical layout [save] writes, with no JSON tree in between.

    [/2] over [/1]: the payload records the degradation rung
    ([degraded]) the supervised service compiled the unit at ("" for a
    full-strength compile), so a warm load can surface that the cached
    code is a fallback artifact.

    [/3] over [/2]: a unit no longer carries its listing or TN report
    text.  Nothing read them back: a warm unit's [--listing] comes from
    its installed program.

    [/4] over [/3]: the payload is stored as a JSON object, not as an
    escaped JSON string, so a load reads it once; and it no longer
    carries the cold compile's remark journal or counter delta, which
    nothing read back. *)

module Json = S1_obs.Json
module Isa = S1_machine.Isa
module Asm = S1_machine.Asm
module Tags = S1_machine.Tags
module Sexp = S1_sexp.Sexp
module Loc = S1_loc.Loc
module Convert = S1_frontend.Convert
module Gen = S1_codegen.Gen

let schema_version = "s1lisp.image/4"

(* The envelope's fixed text, in byte order: [schema_open], the schema
   token, [checksum_sep], the payload's MD5 in 32 hex digits,
   [payload_sep], the payload, [envelope_tail]. *)
let schema_open = "{\"schema\":\""
let checksum_sep = "\",\"checksum\":\""
let payload_sep = "\",\"payload\":"
let envelope_tail = "}\n"
let envelope_head sum =
  String.concat "" [ schema_open; schema_version; checksum_sep; sum; payload_sep ]

(* Every envelope this module has ever written starts with this byte
   sequence (compact printing, fixed field order).  A blob that starts
   like an envelope but does not have the current envelope's layout is a
   torn or truncated write, unless its schema token names another
   version. *)
let envelope_prefix = schema_open ^ "s1lisp.image/"

(** What the unit was {e for}: the top-level form's reading
    ({!S1_frontend.Convert.toplevel}) with its compiled unit in place of
    the source, so replay runs the compiler's own form dispatch and a
    loaded image has the same world effects (function cells set,
    specials proclaimed, macros registered, top-level forms run) as
    evaluating the source. *)
type action = Gen.compiled Convert.toplevel

type t = {
  i_file : string;  (** source path, informative only *)
  i_key : string;  (** content-address this image was stored under *)
  i_flags : string;  (** canonical optimization-lattice string *)
  i_degraded : string;
      (** degradation rung the supervised service compiled this unit at
          ("" = full strength): the image records that the code is a
          retry-ladder fallback artifact *)
  i_actions : action list;
}

type load_error =
  | Bad_json of string  (** not parseable as JSON at all *)
  | Wrong_schema of string  (** carries the schema the blob declared *)
  | Corrupted of string
      (** one of ours that lost bytes: a torn envelope, or a checksum
          mismatch (expected vs found) *)
  | Malformed of string  (** parsed, right schema, wrong shape *)

let load_error_to_string = function
  | Bad_json m -> "image is not valid JSON: " ^ m
  | Wrong_schema s ->
      Printf.sprintf "image schema %S is not %S" s schema_version
  | Corrupted m -> "corrupted image: " ^ m
  | Malformed m -> "malformed image: " ^ m

(* Encoding ------------------------------------------------------------- *)

let jint n = Json.Int n
let jstr s = Json.Str s

(* IEEE bits, not decimal text: float round-trips must be exact for
   byte-determinism, and the constant pool can hold any bit pattern. *)
let json_of_float f = Json.Str (Printf.sprintf "%Lx" (Int64.bits_of_float f))

let prec_name = function
  | Sexp.Half -> "H"
  | Sexp.Single -> "S"
  | Sexp.Double -> "D"
  | Sexp.Twice -> "T"

let rec json_of_sexp (s : Sexp.t) : Json.t =
  match s with
  | Sexp.Sym x -> Json.Arr [ jstr "y"; jstr x ]
  | Sexp.Int n -> Json.Arr [ jstr "i"; jint n ]
  | Sexp.Big x -> Json.Arr [ jstr "b"; jstr x ]
  | Sexp.Ratio (n, d) -> Json.Arr [ jstr "r"; jint n; jint d ]
  | Sexp.Float (f, p) -> Json.Arr [ jstr "f"; json_of_float f; jstr (prec_name p) ]
  | Sexp.Str x -> Json.Arr [ jstr "s"; jstr x ]
  | Sexp.Char c -> Json.Arr [ jstr "c"; jint (Char.code c) ]
  | Sexp.List xs -> Json.Arr (jstr "l" :: List.map json_of_sexp xs)
  | Sexp.Dotted (xs, t) ->
      Json.Arr [ jstr "d"; Json.Arr (List.map json_of_sexp xs); json_of_sexp t ]

let json_of_operand (op : Isa.operand) : Json.t =
  match op with
  | Isa.Reg r -> Json.Arr [ jstr "R"; jint r ]
  | Isa.Imm v -> Json.Arr [ jstr "I"; jint v ]
  | Isa.Mabs v -> Json.Arr [ jstr "M"; jint v ]
  | Isa.Ind (r, d) -> Json.Arr [ jstr "N"; jint r; jint d ]
  | Isa.Idx { base; disp; index; shift } ->
      Json.Arr [ jstr "X"; jint base; jint disp; jint index; jint shift ]
  | Isa.Defind (r, d, o) -> Json.Arr [ jstr "DI"; jint r; jint d; jint o ]
  | Isa.Defreg (r, o) -> Json.Arr [ jstr "DR"; jint r; jint o ]
  | Isa.Lab l -> Json.Arr [ jstr "L"; jstr l ]
  | Isa.Dlab (l, o) -> Json.Arr [ jstr "DL"; jstr l; jint o ]

let json_of_target = function
  | Isa.L l -> Json.Arr [ jstr "L"; jstr l ]
  | Isa.Abs n -> Json.Arr [ jstr "A"; jint n ]

let jcond c = jstr (Isa.cond_name c)
let jwidth w = jstr (Isa.width_name w)
let jtag t = jint (Tags.to_int t)

let json_of_instr (i : Isa.instr) : Json.t =
  let o = json_of_operand and t = json_of_target in
  match i with
  | Isa.Mov (d, x) -> Json.Arr [ jstr "MOV"; o d; o x ]
  | Isa.Movp (tag, d, x) -> Json.Arr [ jstr "MOVP"; jtag tag; o d; o x ]
  | Isa.Gettag (d, x) -> Json.Arr [ jstr "GETTAG"; o d; o x ]
  | Isa.Getaddr (d, x) -> Json.Arr [ jstr "GETADDR"; o d; o x ]
  | Isa.Settag (tag, d) -> Json.Arr [ jstr "SETTAG"; jtag tag; o d ]
  | Isa.Bin (op, w, d, x, y) ->
      Json.Arr [ jstr "BIN"; jstr (Isa.binop_name op); jwidth w; o d; o x; o y ]
  | Isa.Un (op, w, d, x) ->
      Json.Arr [ jstr "UN"; jstr (Isa.unop_name op); jwidth w; o d; o x ]
  | Isa.Jmp (c, x, y, tg) -> Json.Arr [ jstr "JMP"; jcond c; o x; o y; t tg ]
  | Isa.Fjmp (c, x, y, tg) -> Json.Arr [ jstr "FJMP"; jcond c; o x; o y; t tg ]
  | Isa.Jmpz (c, x, tg) -> Json.Arr [ jstr "JMPZ"; jcond c; o x; t tg ]
  | Isa.Jmptag (c, x, tag, tg) ->
      Json.Arr [ jstr "JMPTAG"; jcond c; o x; jtag tag; t tg ]
  | Isa.Jmpa tg -> Json.Arr [ jstr "JMPA"; t tg ]
  | Isa.Jmpi x -> Json.Arr [ jstr "JMPI"; o x ]
  | Isa.Jsp (r, tg) -> Json.Arr [ jstr "JSP"; jint r; t tg ]
  | Isa.Push x -> Json.Arr [ jstr "PUSH"; o x ]
  | Isa.Pop d -> Json.Arr [ jstr "POP"; o d ]
  | Isa.Allocs (x, n) -> Json.Arr [ jstr "ALLOCS"; o x; jint n ]
  | Isa.Call (f, n) -> Json.Arr [ jstr "CALL"; o f; jint n ]
  | Isa.Tcall (f, n) -> Json.Arr [ jstr "TCALL"; o f; jint n ]
  | Isa.Ret -> Json.Arr [ jstr "RET" ]
  (* services serialize by name, not id: the id space is assigned in
     module-initialization order and is not part of the format *)
  | Isa.Svc id -> Json.Arr [ jstr "SVC"; jstr (Isa.svc_name id) ]
  | Isa.Vdot (d, x, y, n) -> Json.Arr [ jstr "VDOT"; o d; o x; o y; o n ]
  | Isa.Vadd (d, x, y, n) -> Json.Arr [ jstr "VADD"; o d; o x; o y; o n ]
  | Isa.Halt -> Json.Arr [ jstr "HALT" ]
  | Isa.Nop -> Json.Arr [ jstr "NOP" ]

let json_of_loc (l : Loc.t) : Json.t =
  Json.Arr [ jstr l.Loc.file; jint l.Loc.line; jint l.Loc.col ]

let json_of_item (it : Asm.item) : Json.t =
  match it with
  | Asm.Label l -> Json.Arr [ jstr "LB"; jstr l ]
  | Asm.Instr i -> Json.Arr [ jstr "IS"; json_of_instr i ]
  | Asm.Data (l, ds) ->
      Json.Arr
        [ jstr "DA"; jstr l;
          Json.Arr
            (List.map
               (function
                 | Asm.Word w -> Json.Arr [ jstr "w"; jint w ]
                 | Asm.Labref s -> Json.Arr [ jstr "r"; jstr s ])
               ds) ]
  | Asm.Comment s -> Json.Arr [ jstr "CO"; jstr s ]
  | Asm.Mark (node, loc) ->
      Json.Arr
        [ jstr "MK"; jint node;
          (match loc with None -> Json.Null | Some l -> json_of_loc l) ]

let json_of_worldref (r : Gen.worldref) : Json.t =
  match r with
  | Rnil -> Json.Arr [ jstr "nil" ]
  | Rtrue -> Json.Arr [ jstr "t" ]
  | Rconst s -> Json.Arr [ jstr "const"; json_of_sexp s ]
  | Rsym n -> Json.Arr [ jstr "sym"; jstr n ]
  | Rfun_cell n -> Json.Arr [ jstr "fun"; jstr n ]
  | Rfresh_cell -> Json.Arr [ jstr "cell" ]

let json_of_unit (u : Gen.compiled) : Json.t =
  Json.Obj
    [
      ("name", jstr u.Gen.c_name);
      ("entry", jstr u.Gen.c_entry);
      ("min", jint u.Gen.c_min_args);
      ("max", jint u.Gen.c_max_args);
      ("prog", Json.Arr (List.map json_of_item u.Gen.c_prog));
      ( "fixups",
        Json.Arr
          (List.map
             (fun (e, cell, n, mn, mx) ->
               Json.Arr [ jstr e; jint cell; jstr n; jint mn; jint mx ])
             u.Gen.c_fixups) );
      ("refs", Json.Arr (List.map json_of_worldref u.Gen.c_refs));
    ]

let json_of_action (a : action) : Json.t =
  match a with
  | Convert.Defun u -> Json.Arr [ jstr "defun"; json_of_unit u ]
  | Convert.Defmacro (n, u) -> Json.Arr [ jstr "defmacro"; jstr n; json_of_unit u ]
  | Convert.Defvar (n, u) -> Json.Arr [ jstr "defvar"; jstr n; json_of_unit u ]
  | Convert.Proclaim ns -> Json.Arr (jstr "proclaim" :: List.map jstr ns)
  | Convert.Toplevel u -> Json.Arr [ jstr "toplevel"; json_of_unit u ]

let json_of_image (i : t) : Json.t =
  Json.Obj
    [
      ("file", jstr i.i_file);
      ("key", jstr i.i_key);
      ("flags", jstr i.i_flags);
      ("degraded", jstr i.i_degraded);
      ("actions", Json.Arr (List.map json_of_action i.i_actions));
    ]

(** The canonical byte form: one compact JSON document
    [{"schema":…,"checksum":…,"payload":{…}}] and a newline, whose
    checksum is the MD5 of the payload's bytes as stored, so corruption
    is detected before any structural decoding happens. *)
let save (i : t) : string =
  let payload = Json.to_string ~pretty:false (json_of_image i) in
  String.concat ""
    [ envelope_head (Digest.to_hex (Digest.string payload)); payload; envelope_tail ]

(* Decoding -------------------------------------------------------------

   The payload is read typed, straight off a {!Json.cursor}, in the
   canonical layout [save] writes: fields in their fixed order, names
   and separators as written.  Tags and opcode names are matched in
   place ({!Json.name}), integers are read unboxed, and no [Json.t] is
   built.  Anything else raises [Json.Parse_error]; [decode] then says
   which kind of error it was.  A reader named after a value reads it
   after a [","]; each constructor's fields are read in order, by
   [let]. *)

let str = Json.string_lit
let int = Json.int_lit

let next c f =
  Json.expect c ',';
  f c

let nstr c = next c str
let nint c = next c int

(* [[tag, ...]]: the tag's reader reads the rest of the elements. *)
let tagged c what (readers : (Json.cursor -> 'a) Json.names) : 'a =
  Json.expect c '[';
  let read = Json.name c what readers in
  let v = read c in
  Json.expect c ']';
  v

let float_of_bits c s =
  match Int64.of_string_opt ("0x" ^ s) with
  | Some bits -> Int64.float_of_bits bits
  | None -> Json.fail_at c.Json.pos (Printf.sprintf "bad float bits %S" s)

let precs = Json.names [ ("H", Sexp.Half); ("S", Sexp.Single); ("D", Sexp.Double); ("T", Sexp.Twice) ]

let rec sexp c : Sexp.t = tagged c "s-expression kind" (Lazy.force sexps)

and sexps =
  lazy
    (Json.names
       [
         ("y", fun c -> Sexp.Sym (nstr c));
         ("i", fun c -> Sexp.Int (nint c));
         ("b", fun c -> Sexp.Big (nstr c));
         ("r", fun c -> let n = nint c in Sexp.Ratio (n, nint c));
         ( "f",
           fun c ->
             let f = float_of_bits c (nstr c) in
             Sexp.Float (f, next c (fun c -> Json.name c "precision" precs)) );
         ("s", fun c -> Sexp.Str (nstr c));
         ("c", fun c -> Sexp.Char (Char.chr (nint c land 0xff)));
         ("l", fun c -> Sexp.List (Json.rest c sexp));
         ("d", fun c -> let xs = next c (fun c -> Json.list c sexp) in Sexp.Dotted (xs, next c sexp));
       ])

(* The decoder of a field named by [name_of] over [all] of its values. *)
let of_names what name_of all =
  let t = Json.names (List.map (fun x -> (name_of x, x)) all) in
  fun c ->
    Json.expect c ',';
    Json.name c what t

let all_conds = Isa.[ EQ; NEQ; LSS; LEQ; GTR; GEQ ]
let all_widths = Isa.[ S; D ]

let all_binops =
  Isa.
    [
      ADD; SUB; MULT; DIV Floor; DIV Ceiling; DIV Truncate; DIV Round; MOD; REM;
      AND; OR; XOR; ASH; FADD; FSUB; FMULT; FDIV; FMAX; FMIN; FATAN;
    ]

let all_unops =
  Isa.
    [
      NEG; NOT; FNEG; FABS; FSQRT; FSIN; FCOS; FEXP; FLOG; FLOAT; FIX Floor;
      FIX Ceiling; FIX Truncate; FIX Round; DATUM;
    ]

let cond = of_names "condition" Isa.cond_name all_conds
let width = of_names "width" Isa.width_name all_widths
let binop = of_names "binop" Isa.binop_name all_binops
let unop = of_names "unop" Isa.unop_name all_unops

let tag c =
  let at = c.Json.pos + 1 in
  let n = nint c in
  match Tags.of_int n with t -> t | exception _ -> Json.fail_at at (Printf.sprintf "bad tag %d" n)

let operands =
  Json.names
    [
      ("R", fun c -> Isa.Reg (nint c));
      ("I", fun c -> Isa.Imm (nint c));
      ("M", fun c -> Isa.Mabs (nint c));
      ("N", fun c -> let r = nint c in Isa.Ind (r, nint c));
      ( "X",
        fun c ->
          let base = nint c in
          let disp = nint c in
          let index = nint c in
          Isa.Idx { base; disp; index; shift = nint c } );
      ("DI", fun c -> let r = nint c in let d = nint c in Isa.Defind (r, d, nint c));
      ("DR", fun c -> let r = nint c in Isa.Defreg (r, nint c));
      ("L", fun c -> Isa.Lab (nstr c));
      ("DL", fun c -> let l = nstr c in Isa.Dlab (l, nint c));
    ]

let targets = Json.names [ ("L", fun c -> Isa.L (nstr c)); ("A", fun c -> Isa.Abs (nint c)) ]
let o c = next c (fun c -> tagged c "operand kind" operands)
let t c = next c (fun c -> tagged c "target kind" targets)

let instrs =
  Json.names
    Isa.
      [
        ("MOV", fun c -> let d = o c in Mov (d, o c));
        ("MOVP", fun c -> let tg = tag c in let d = o c in Movp (tg, d, o c));
        ("GETTAG", fun c -> let d = o c in Gettag (d, o c));
        ("GETADDR", fun c -> let d = o c in Getaddr (d, o c));
        ("SETTAG", fun c -> let tg = tag c in Settag (tg, o c));
        ( "BIN",
          fun c ->
            let op = binop c in
            let w = width c in
            let d = o c in
            let x = o c in
            Bin (op, w, d, x, o c) );
        ("UN", fun c -> let op = unop c in let w = width c in let d = o c in Un (op, w, d, o c));
        ("JMP", fun c -> let k = cond c in let x = o c in let y = o c in Jmp (k, x, y, t c));
        ("FJMP", fun c -> let k = cond c in let x = o c in let y = o c in Fjmp (k, x, y, t c));
        ("JMPZ", fun c -> let k = cond c in let x = o c in Jmpz (k, x, t c));
        ("JMPTAG", fun c -> let k = cond c in let x = o c in let tg = tag c in Jmptag (k, x, tg, t c));
        ("JMPA", fun c -> Jmpa (t c));
        ("JMPI", fun c -> Jmpi (o c));
        ("JSP", fun c -> let r = nint c in Jsp (r, t c));
        ("PUSH", fun c -> Push (o c));
        ("POP", fun c -> Pop (o c));
        ("ALLOCS", fun c -> let x = o c in Allocs (x, nint c));
        ("CALL", fun c -> let f = o c in Call (f, nint c));
        ("TCALL", fun c -> let f = o c in Tcall (f, nint c));
        ("RET", fun _ -> Ret);
        ("SVC", fun c -> Svc (register_svc (nstr c)));
        ("VDOT", fun c -> let d = o c in let x = o c in let y = o c in Vdot (d, x, y, o c));
        ("VADD", fun c -> let d = o c in let x = o c in let y = o c in Vadd (d, x, y, o c));
        ("HALT", fun _ -> Halt);
        ("NOP", fun _ -> Nop);
      ]

let loc c =
  Json.expect c '[';
  let file = str c in
  let line = nint c in
  let col = nint c in
  Json.expect c ']';
  Loc.make ~file ~line ~col

let data = Json.names [ ("w", fun c -> Asm.Word (nint c)); ("r", fun c -> Asm.Labref (nstr c)) ]
let datum c = tagged c "datum kind" data

let items =
  Json.names
    [
      ("LB", fun c -> Asm.Label (nstr c));
      ("IS", fun c -> Asm.Instr (next c (fun c -> tagged c "opcode" instrs)));
      ("DA", fun c -> let l = nstr c in Asm.Data (l, next c (fun c -> Json.list c datum)));
      ("CO", fun c -> Asm.Comment (nstr c));
      ( "MK",
        fun c ->
          let node = nint c in
          Json.expect c ',';
          Asm.Mark (node, if Json.peek c = 'n' then Json.literal c "null" None else Some (loc c)) );
    ]

let item c = tagged c "item kind" items

let fixup c =
  Json.expect c '[';
  let e = str c in
  let cell = nint c in
  let n = nstr c in
  let mn = nint c in
  let mx = nint c in
  Json.expect c ']';
  (e, cell, n, mn, mx)

let refs =
  Json.names
    Gen.
      [
        ("nil", fun _ -> Rnil);
        ("t", fun _ -> Rtrue);
        ("const", fun c -> Rconst (next c sexp));
        ("sym", fun c -> Rsym (nstr c));
        ("fun", fun c -> Rfun_cell (nstr c));
        ("cell", fun _ -> Rfresh_cell);
      ]

let worldref c = tagged c "world reference" refs

(* [name] (the field's quoted name and colon, after a ["{"] or [","])
   and its [f]-read value. *)
let field c name f =
  Json.literal c name ();
  f c

let compiled c : Gen.compiled =
  let c_name = field c "{\"name\":" str in
  let c_entry = field c ",\"entry\":" str in
  let c_min_args = field c ",\"min\":" int in
  let c_max_args = field c ",\"max\":" int in
  let c_prog = field c ",\"prog\":" (fun c -> Json.list c item) in
  let c_fixups = field c ",\"fixups\":" (fun c -> Json.list c fixup) in
  let c_refs = field c ",\"refs\":" (fun c -> Json.list c worldref) in
  Json.expect c '}';
  { Gen.c_name; c_entry; c_min_args; c_max_args; c_prog; c_fixups; c_packing = []; c_refs }

let actions =
  Json.names
    Convert.
      [
        ("defun", fun c -> Defun (next c compiled));
        ("defmacro", fun c -> let n = nstr c in Defmacro (n, next c compiled));
        ("defvar", fun c -> let n = nstr c in Defvar (n, next c compiled));
        ("proclaim", fun c -> Proclaim (Json.rest c str));
        ("toplevel", fun c -> Toplevel (next c compiled));
      ]

let action c = tagged c "action kind" actions

let image c : t =
  let i_file = field c "{\"file\":" str in
  let i_key = field c ",\"key\":" str in
  let i_flags = field c ",\"flags\":" str in
  let i_degraded = field c ",\"degraded\":" str in
  let i_actions = field c ",\"actions\":" (fun c -> Json.list c action) in
  Json.expect c '}';
  if c.Json.pos <> c.Json.stop then Json.fail_at c.Json.pos "trailing garbage";
  { i_file; i_key; i_flags; i_degraded; i_actions }

(* [bytes] holds [lit] at offset [at]. *)
let holds bytes at lit =
  at >= 0 && at + String.length lit <= String.length bytes && Json.holds bytes at lit 0

(* A blob that is not an envelope of ours: read as JSON only to say why. *)
let decode_foreign bytes =
  match Json.parse bytes with
  | exception Json.Parse_error m -> Error (Bad_json m)
  | exception e -> Error (Bad_json (Printexc.to_string e))
  | doc -> (
      match Json.member "schema" doc with
      | Some (Json.Str schema) when schema <> schema_version -> Error (Wrong_schema schema)
      | Some _ -> Error (Malformed "not a canonical image envelope")
      | None -> Error (Malformed "missing field \"schema\""))

(* The envelope is read by position: the prefix, the schema token, the
   separators around the checksum and the tail.  A blob that starts like
   an envelope but breaks this layout was cut or damaged mid-write; like
   a checksum mismatch it is [Corrupted], not [Bad_json]: the cache
   quarantines corruption but only deletes mere staleness.  The checksum
   covers the payload slice, which is then read typed, in place.  Only
   when that read fails is the slice parsed generically, to tell a
   payload that is not JSON ([Bad_json]) from one of the wrong shape
   ([Malformed]). *)
let decode (bytes : string) : (t, load_error) result =
  let torn m = Error (Corrupted ("torn or truncated envelope: " ^ m)) in
  let schema_at = String.length schema_open in
  if not (holds bytes 0 envelope_prefix) then decode_foreign bytes
  else
    match String.index_from_opt bytes (String.length envelope_prefix) '"' with
    | None -> torn "unterminated schema"
    | Some q ->
        let schema = String.sub bytes schema_at (q - schema_at) in
        let sum_at = q + String.length checksum_sep in
        let payload_at = sum_at + 32 + String.length payload_sep in
        let payload_len = String.length bytes - payload_at - String.length envelope_tail in
        if schema <> schema_version then Error (Wrong_schema schema)
        else if not (holds bytes q checksum_sep && holds bytes (sum_at + 32) payload_sep) then
          torn "bad header"
        else if payload_len < 0 || not (holds bytes (payload_at + payload_len) envelope_tail)
        then torn "bad tail"
        else
          let sum = String.sub bytes sum_at 32
          and found = Digest.to_hex (Digest.substring bytes payload_at payload_len) in
          if sum <> found then
            Error (Corrupted (Printf.sprintf "expected %s, found %s" sum found))
          else
            match image (Json.cursor bytes ~pos:payload_at ~len:payload_len) with
            | img -> Ok img
            | exception e -> (
                match (Json.parse_sub bytes ~pos:payload_at ~len:payload_len, e) with
                | exception Json.Parse_error m -> Error (Bad_json m)
                | _, Json.Parse_error m -> Error (Malformed m)
                | _ -> Error (Malformed (Printexc.to_string e)))

(* This domain's last successful decode.  A warm hit loads the string
   [Cache.find] verified, so its second decode is served from here.  Keyed
   by physical identity: strings and [t] are immutable, so a hit is what a
   decode would return; any copy, re-read or corrupted blob is decoded in
   full. *)
let last_load : (string * (t, load_error) result) option S1_par.Dls.t =
  S1_par.Dls.create (fun () -> None)

(** Verifying loader: schema check, checksum check, then structural
    decode.  Total — every failure mode is a {!load_error}. *)
let load (bytes : string) : (t, load_error) result =
  match S1_par.Dls.get last_load with
  | Some (b, r) when b == bytes -> r
  | _ ->
      let r = decode bytes in
      if Result.is_ok r then S1_par.Dls.set last_load (Some (bytes, r));
      r
