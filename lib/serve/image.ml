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
    never lets an exception escape.

    [/2] over [/1]: the payload records the degradation rung
    ([degraded]) the supervised service compiled the unit at ("" for a
    full-strength compile), so a warm load can surface that the cached
    code is a fallback artifact.

    [/3] over [/2]: a unit no longer carries its listing or TN report
    text.  Nothing read them back: a warm unit's [--listing] comes from
    its installed program.

    [/4] over [/3]: the payload is stored as a JSON object, not as an
    escaped JSON string, so a load parses it once; and it no longer
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

(* Decoding ------------------------------------------------------------- *)

exception Decode of string

let fail fmt = Printf.ksprintf (fun s -> raise (Decode s)) fmt
let dint = function Json.Int n -> n | _ -> fail "expected integer"
let dstr = function Json.Str s -> s | _ -> fail "expected string"
let darr = function Json.Arr xs -> xs | _ -> fail "expected array"

let dfield obj name =
  match obj with
  | Json.Obj kvs -> (
      match List.assoc_opt name kvs with
      | Some v -> v
      | None -> fail "missing field %S" name)
  | _ -> fail "expected object"

let float_of_bits_str s =
  match Int64.of_string_opt ("0x" ^ s) with
  | Some bits -> Int64.float_of_bits bits
  | None -> fail "bad float bits %S" s

let prec_of_name = function
  | "H" -> Sexp.Half
  | "S" -> Sexp.Single
  | "D" -> Sexp.Double
  | "T" -> Sexp.Twice
  | s -> fail "unknown float precision %S" s

let rec sexp_of_json (j : Json.t) : Sexp.t =
  match darr j with
  | [ Json.Str "y"; n ] -> Sexp.Sym (dstr n)
  | [ Json.Str "i"; n ] -> Sexp.Int (dint n)
  | [ Json.Str "b"; n ] -> Sexp.Big (dstr n)
  | [ Json.Str "r"; n; d ] -> Sexp.Ratio (dint n, dint d)
  | [ Json.Str "f"; bits; p ] ->
      Sexp.Float (float_of_bits_str (dstr bits), prec_of_name (dstr p))
  | [ Json.Str "s"; s ] -> Sexp.Str (dstr s)
  | [ Json.Str "c"; n ] -> Sexp.Char (Char.chr (dint n land 0xff))
  | Json.Str "l" :: xs -> Sexp.List (List.map sexp_of_json xs)
  | [ Json.Str "d"; xs; t ] ->
      Sexp.Dotted (List.map sexp_of_json (darr xs), sexp_of_json t)
  | _ -> fail "bad s-expression encoding"

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

let by_name what name_of all j =
  let s = dstr j in
  match List.find_opt (fun x -> name_of x = s) all with
  | Some x -> x
  | None -> fail "unknown %s %S" what s

let dcond j = by_name "condition" Isa.cond_name all_conds j
let dwidth j = by_name "width" Isa.width_name all_widths j
let dbinop j = by_name "binop" Isa.binop_name all_binops j
let dunop j = by_name "unop" Isa.unop_name all_unops j

let dtag j =
  match Tags.of_int (dint j) with
  | t -> t
  | exception _ -> fail "bad tag %d" (dint j)

let operand_of_json (j : Json.t) : Isa.operand =
  match darr j with
  | [ Json.Str "R"; r ] -> Isa.Reg (dint r)
  | [ Json.Str "I"; v ] -> Isa.Imm (dint v)
  | [ Json.Str "M"; v ] -> Isa.Mabs (dint v)
  | [ Json.Str "N"; r; d ] -> Isa.Ind (dint r, dint d)
  | [ Json.Str "X"; b; d; i; s ] ->
      Isa.Idx { base = dint b; disp = dint d; index = dint i; shift = dint s }
  | [ Json.Str "DI"; r; d; o ] -> Isa.Defind (dint r, dint d, dint o)
  | [ Json.Str "DR"; r; o ] -> Isa.Defreg (dint r, dint o)
  | [ Json.Str "L"; l ] -> Isa.Lab (dstr l)
  | [ Json.Str "DL"; l; o ] -> Isa.Dlab (dstr l, dint o)
  | _ -> fail "bad operand encoding"

let target_of_json (j : Json.t) : Isa.target =
  match darr j with
  | [ Json.Str "L"; l ] -> Isa.L (dstr l)
  | [ Json.Str "A"; n ] -> Isa.Abs (dint n)
  | _ -> fail "bad target encoding"

let instr_of_json (j : Json.t) : Isa.instr =
  let o = operand_of_json and t = target_of_json in
  match darr j with
  | [ Json.Str "MOV"; d; x ] -> Isa.Mov (o d, o x)
  | [ Json.Str "MOVP"; tag; d; x ] -> Isa.Movp (dtag tag, o d, o x)
  | [ Json.Str "GETTAG"; d; x ] -> Isa.Gettag (o d, o x)
  | [ Json.Str "GETADDR"; d; x ] -> Isa.Getaddr (o d, o x)
  | [ Json.Str "SETTAG"; tag; d ] -> Isa.Settag (dtag tag, o d)
  | [ Json.Str "BIN"; op; w; d; x; y ] ->
      Isa.Bin (dbinop op, dwidth w, o d, o x, o y)
  | [ Json.Str "UN"; op; w; d; x ] -> Isa.Un (dunop op, dwidth w, o d, o x)
  | [ Json.Str "JMP"; c; x; y; tg ] -> Isa.Jmp (dcond c, o x, o y, t tg)
  | [ Json.Str "FJMP"; c; x; y; tg ] -> Isa.Fjmp (dcond c, o x, o y, t tg)
  | [ Json.Str "JMPZ"; c; x; tg ] -> Isa.Jmpz (dcond c, o x, t tg)
  | [ Json.Str "JMPTAG"; c; x; tag; tg ] ->
      Isa.Jmptag (dcond c, o x, dtag tag, t tg)
  | [ Json.Str "JMPA"; tg ] -> Isa.Jmpa (t tg)
  | [ Json.Str "JMPI"; x ] -> Isa.Jmpi (o x)
  | [ Json.Str "JSP"; r; tg ] -> Isa.Jsp (dint r, t tg)
  | [ Json.Str "PUSH"; x ] -> Isa.Push (o x)
  | [ Json.Str "POP"; d ] -> Isa.Pop (o d)
  | [ Json.Str "ALLOCS"; x; n ] -> Isa.Allocs (o x, dint n)
  | [ Json.Str "CALL"; f; n ] -> Isa.Call (o f, dint n)
  | [ Json.Str "TCALL"; f; n ] -> Isa.Tcall (o f, dint n)
  | [ Json.Str "RET" ] -> Isa.Ret
  | [ Json.Str "SVC"; name ] -> Isa.Svc (Isa.register_svc (dstr name))
  | [ Json.Str "VDOT"; d; x; y; n ] -> Isa.Vdot (o d, o x, o y, o n)
  | [ Json.Str "VADD"; d; x; y; n ] -> Isa.Vadd (o d, o x, o y, o n)
  | [ Json.Str "HALT" ] -> Isa.Halt
  | [ Json.Str "NOP" ] -> Isa.Nop
  | _ -> fail "bad instruction encoding"

let loc_of_json (j : Json.t) : Loc.t =
  match darr j with
  | [ f; l; c ] -> Loc.make ~file:(dstr f) ~line:(dint l) ~col:(dint c)
  | _ -> fail "bad location encoding"

let item_of_json (j : Json.t) : Asm.item =
  match darr j with
  | [ Json.Str "LB"; l ] -> Asm.Label (dstr l)
  | [ Json.Str "IS"; i ] -> Asm.Instr (instr_of_json i)
  | [ Json.Str "DA"; l; ds ] ->
      Asm.Data
        ( dstr l,
          List.map
            (fun d ->
              match darr d with
              | [ Json.Str "w"; w ] -> Asm.Word (dint w)
              | [ Json.Str "r"; s ] -> Asm.Labref (dstr s)
              | _ -> fail "bad datum encoding")
            (darr ds) )
  | [ Json.Str "CO"; s ] -> Asm.Comment (dstr s)
  | [ Json.Str "MK"; node; loc ] ->
      Asm.Mark
        (dint node, match loc with Json.Null -> None | l -> Some (loc_of_json l))
  | _ -> fail "bad program item encoding"

let worldref_of_json (j : Json.t) : Gen.worldref =
  match darr j with
  | [ Json.Str "nil" ] -> Rnil
  | [ Json.Str "t" ] -> Rtrue
  | [ Json.Str "const"; s ] -> Rconst (sexp_of_json s)
  | [ Json.Str "sym"; n ] -> Rsym (dstr n)
  | [ Json.Str "fun"; n ] -> Rfun_cell (dstr n)
  | [ Json.Str "cell" ] -> Rfresh_cell
  | _ -> fail "bad world reference encoding"

let unit_of_json (j : Json.t) : Gen.compiled =
  {
    Gen.c_name = dstr (dfield j "name");
    c_entry = dstr (dfield j "entry");
    c_min_args = dint (dfield j "min");
    c_max_args = dint (dfield j "max");
    c_prog = List.map item_of_json (darr (dfield j "prog"));
    c_fixups =
      List.map
        (fun f ->
          match darr f with
          | [ e; cell; n; mn; mx ] -> (dstr e, dint cell, dstr n, dint mn, dint mx)
          | _ -> fail "bad fixup encoding")
        (darr (dfield j "fixups"));
    c_packing = [];
    c_refs = List.map worldref_of_json (darr (dfield j "refs"));
  }

let action_of_json (j : Json.t) : action =
  match darr j with
  | [ Json.Str "defun"; u ] -> Convert.Defun (unit_of_json u)
  | [ Json.Str "defmacro"; n; u ] -> Convert.Defmacro (dstr n, unit_of_json u)
  | [ Json.Str "defvar"; n; u ] -> Convert.Defvar (dstr n, unit_of_json u)
  | Json.Str "proclaim" :: ns -> Convert.Proclaim (List.map dstr ns)
  | [ Json.Str "toplevel"; u ] -> Convert.Toplevel (unit_of_json u)
  | _ -> fail "bad action encoding"

let image_of_json (j : Json.t) : t =
  {
    i_file = dstr (dfield j "file");
    i_key = dstr (dfield j "key");
    i_flags = dstr (dfield j "flags");
    i_degraded = dstr (dfield j "degraded");
    i_actions = List.map action_of_json (darr (dfield j "actions"));
  }

(* [bytes] holds [lit] at offset [at]. *)
let holds bytes at lit =
  let n = String.length lit in
  let rec from k = k = n || (String.unsafe_get bytes (at + k) = lit.[k] && from (k + 1)) in
  at >= 0 && at + n <= String.length bytes && from 0

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
   covers the payload slice, which is then parsed once, in place. *)
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
            match image_of_json (Json.parse_sub bytes ~pos:payload_at ~len:payload_len) with
            | img -> Ok img
            | exception Decode m -> Error (Malformed m)
            | exception Json.Parse_error m -> Error (Bad_json m)
            | exception e -> Error (Malformed (Printexc.to_string e))

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
