(** A minimal JSON tree, printer and parser — enough for the stable
    observability schemas (metrics, remarks, bench baselines, trace
    events) without an external dependency.  Historically this lived
    inside {!Obs}; it is its own compilation unit so that lower layers
    (the timeline, the remark journal) can build documents without
    pulling in the counter registry.  [Obs.Json] remains an alias. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* Append [s], JSON-escaped, to [b]: each escape-free run is copied
   with one [Buffer.add_substring]. *)
let rec add_escaped b s start i =
  if i >= String.length s then Buffer.add_substring b s start (i - start)
  else
    match String.unsafe_get s i with
    | ('"' | '\\' | '\000' .. '\031') as c ->
        Buffer.add_substring b s start (i - start);
        (match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | c -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c)));
        add_escaped b s (i + 1) (i + 1)
    | _ -> add_escaped b s start (i + 1)

let add_string_lit b s =
  Buffer.add_char b '"';
  add_escaped b s 0 0;
  Buffer.add_char b '"'

let rec write b ~indent ~level (t : t) =
  let pad n = if indent then Buffer.add_string b (String.make (2 * n) ' ') in
  let sep () = if indent then Buffer.add_char b '\n' in
  match t with
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Int n -> Buffer.add_string b (string_of_int n)
  | Float f ->
      if Float.is_integer f && Float.abs f < 1e15 then
        Buffer.add_string b (Printf.sprintf "%.1f" f)
      else Buffer.add_string b (Printf.sprintf "%.17g" f)
  | Str s -> add_string_lit b s
  | Arr [] -> Buffer.add_string b "[]"
  | Arr xs ->
      Buffer.add_char b '[';
      sep ();
      List.iteri
        (fun i x ->
          if i > 0 then begin
            Buffer.add_char b ',';
            sep ()
          end;
          pad (level + 1);
          write b ~indent ~level:(level + 1) x)
        xs;
      sep ();
      pad level;
      Buffer.add_char b ']'
  | Obj [] -> Buffer.add_string b "{}"
  | Obj kvs ->
      Buffer.add_char b '{';
      sep ();
      List.iteri
        (fun i (k, v) ->
          if i > 0 then begin
            Buffer.add_char b ',';
            sep ()
          end;
          pad (level + 1);
          add_string_lit b k;
          Buffer.add_string b (if indent then ": " else ":");
          write b ~indent ~level:(level + 1) v)
        kvs;
      sep ();
      pad level;
      Buffer.add_char b '}'

let to_string ?(pretty = true) t =
  let b = Buffer.create 256 in
  write b ~indent:pretty ~level:0 t;
  Buffer.contents b

(* A parser for the same dialect the printer emits (strict JSON minus
   exotica we never produce), so trace journals and bench baselines can
   be read back without an external dependency.  Numbers with '.', 'e'
   or 'E' become [Float]; everything else becomes [Int]. *)
exception Parse_error of string

let fail_at pos msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg pos))

(* Decode a literal body from [s.[i]] into [b.[j..]] up to its closing
   quote, reading no further than [stop]; return the offset past that
   quote and the decoded length. *)
let rec unescape s stop b i j =
  if i >= stop then fail_at i "unterminated string"
  else
    match String.unsafe_get s i with
    | '"' -> (i + 1, j)
    | '\\' -> unescape_at s stop b (i + 1) j
    | c ->
        Bytes.set b j c;
        unescape s stop b (i + 1) (j + 1)

(* The escape whose letter is [s.[i]]. *)
and unescape_at s stop b i j =
  if i >= stop then fail_at i "unterminated escape"
  else
    match s.[i] with
    | 'u' -> (
        if i + 4 >= stop then fail_at i "truncated \\u escape";
        let hex = String.sub s (i + 1) 4 in
        match int_of_string_opt ("0x" ^ hex) with
        | None -> fail_at i "bad \\u escape"
        (* we only ever emit \u00XX for control characters *)
        | Some code when code < 0x80 ->
            Bytes.set b j (Char.chr code);
            unescape s stop b (i + 5) (j + 1)
        | Some _ ->
            Bytes.blit_string ("\\u" ^ hex) 0 b j 6;
            unescape s stop b (i + 5) (j + 6))
    | c ->
        Bytes.set b j
          (match c with
          | '"' | '\\' | '/' -> c
          | 'n' -> '\n'
          | 'r' -> '\r'
          | 't' -> '\t'
          | 'b' -> '\b'
          | 'f' -> '\012'
          | c -> fail_at i (Printf.sprintf "bad escape '\\%c'" c));
        unescape s stop b (i + 1) (j + 1)

(* The parser's state: the document, the end of the slice being parsed,
   the offset of the next unread byte, and the scratch buffer escaped
   literals decode into (allocated at the first one). *)
type cursor = { s : string; stop : int; mutable pos : int; mutable scratch : Bytes.t }

let[@inline] peek c = if c.pos < c.stop then String.unsafe_get c.s c.pos else '\000'

let[@inline] skip_ws c =
  while
    c.pos < c.stop
    && (match String.unsafe_get c.s c.pos with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
  do
    c.pos <- c.pos + 1
  done

let[@inline] expect c ch =
  if peek c = ch then c.pos <- c.pos + 1
  else fail_at c.pos (Printf.sprintf "expected '%c'" ch)

(* [s] holds [word.[k ..]] at offset [i + k]; the caller checks bounds. *)
let rec holds s i word k =
  k = String.length word
  || (String.unsafe_get s (i + k) = String.unsafe_get word k && holds s i word (k + 1))

let literal c word v =
  let n = String.length word in
  if c.pos + n <= c.stop && holds c.s c.pos word 0 then begin
    c.pos <- c.pos + n;
    v
  end
  else fail_at c.pos (Printf.sprintf "expected %s" word)

(* The offset of the first quote or backslash at or after [i]. *)
let rec plain_end c i =
  if i < c.stop && (match String.unsafe_get c.s i with '"' | '\\' -> false | _ -> true)
  then plain_end c (i + 1)
  else i

(* An escape-free literal is one [String.sub].  Otherwise [unescape]
   finishes it in the scratch buffer, sized to the rest of the slice:
   no escape decodes to more bytes than it spans, and every later
   literal is shorter. *)
let string_lit c =
  expect c '"';
  let s = c.s and start = c.pos in
  let i = plain_end c start in
  if i < c.stop && String.unsafe_get s i = '"' then begin
    c.pos <- i + 1;
    String.sub s start (i - start)
  end
  else begin
    if Bytes.length c.scratch = 0 then c.scratch <- Bytes.create (c.stop - start);
    Bytes.blit_string s start c.scratch 0 (i - start);
    let stop, n = unescape s c.stop c.scratch i (i - start) in
    c.pos <- stop;
    Bytes.sub_string c.scratch 0 n
  end

let is_num_char ch =
  (ch >= '0' && ch <= '9') || ch = '.' || ch = 'e' || ch = 'E' || ch = '+' || ch = '-'

(* An integer of at most 17 digits, with nothing numeric after it,
   cannot overflow and is summed in place: [c.pos] moves past it.  Any
   other text leaves [c.pos] where it was, and the result is 0. *)
let small_int c =
  let s = c.s and start = c.pos in
  if peek c = '-' then c.pos <- c.pos + 1;
  let digits = c.pos and acc = ref 0 in
  while c.pos < c.stop && String.unsafe_get s c.pos >= '0' && String.unsafe_get s c.pos <= '9' do
    acc := (10 * !acc) + Char.code (String.unsafe_get s c.pos) - 48;
    c.pos <- c.pos + 1
  done;
  if c.pos > digits && c.pos - digits < 18 && not (c.pos < c.stop && is_num_char s.[c.pos])
  then if start < digits then - !acc else !acc
  else begin
    c.pos <- start;
    0
  end

(* Any other number goes through [String.sub] and the stdlib. *)
let number c =
  let start = c.pos in
  let n = small_int c in
  if c.pos > start then Int n
  else begin
    while c.pos < c.stop && is_num_char c.s.[c.pos] do
      c.pos <- c.pos + 1
    done;
    let text = String.sub c.s start (c.pos - start) in
    if String.exists (fun ch -> ch = '.' || ch = 'e' || ch = 'E') text then
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail_at c.pos "bad number"
    else
      match int_of_string_opt text with
      | Some n -> Int n
      | None -> fail_at c.pos "bad number"
  end

(** The elements after an array's first: [,x] repeated, up to the
    closing bracket, which is left unread. *)
let[@tail_mod_cons] rec rest c f =
  if peek c = ',' then begin
    c.pos <- c.pos + 1;
    let x = f c in
    skip_ws c;
    x :: rest c f
  end
  else []

(** The [f]-read elements of an array or fields of an object whose
    opening bracket is read, through its [close] bracket. *)
let elements c close f =
  skip_ws c;
  if peek c = close then begin
    c.pos <- c.pos + 1;
    []
  end
  else
    let x = f c in
    skip_ws c;
    let xs = x :: rest c f in
    expect c close;
    xs

let rec value c =
  skip_ws c;
  match peek c with
  | 'n' -> literal c "null" Null
  | 't' -> literal c "true" (Bool true)
  | 'f' -> literal c "false" (Bool false)
  | '"' -> Str (string_lit c)
  | '[' ->
      c.pos <- c.pos + 1;
      Arr (elements c ']' value)
  | '{' ->
      c.pos <- c.pos + 1;
      Obj (elements c '}' field)
  | ch when ch = '-' || (ch >= '0' && ch <= '9') -> number c
  | _ -> fail_at c.pos "unexpected character"

and field c =
  skip_ws c;
  let k = string_lit c in
  skip_ws c;
  expect c ':';
  (k, value c)

(** A cursor over [s.[pos .. pos + len - 1]]. *)
let cursor s ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length s then invalid_arg "Json.cursor";
  { s; stop = pos + len; pos; scratch = Bytes.empty }

(** Parse the one document that fills [s.[pos .. pos + len - 1]].  Error
    offsets count from the start of [s]. *)
let parse_sub s ~pos ~len =
  let c = cursor s ~pos ~len in
  let v = value c in
  skip_ws c;
  if c.pos <> c.stop then fail_at c.pos "trailing garbage";
  v

let parse (s : string) : t = parse_sub s ~pos:0 ~len:(String.length s)

(* Object field access, for consumers of parsed documents. *)
let member key = function Obj fields -> List.assoc_opt key fields | _ -> None
let to_int = function Int n -> Some n | _ -> None
let to_str = function Str s -> Some s | _ -> None

(* Typed readers ----------------------------------------------------------

   A reader of one fixed document layout walks the cursor itself and
   builds its own values, with no [t] in between, using the primitives
   above and these.  Arrays skip whitespace where [value]'s do; every
   other literal, field names included, is matched exactly.  Each raises
   [Parse_error] with the cursor's offset on anything else. *)

(** The integer at the cursor, unboxed. *)
let int_lit c =
  let start = c.pos in
  let n = small_int c in
  if c.pos > start then n
  else match number c with Int n -> n | _ -> fail_at start "expected integer"

(** A whole array of [f]-read elements. *)
let list c f =
  expect c '[';
  elements c ']' f

(** A fixed set of names, matched in place against an escape-free string
    literal: open addressing over a hash of the literal's bytes, so a
    lookup allocates nothing.  A slot holds its name and value. *)
type 'a names = (string * 'a) option array

let hash_span s i j =
  let h = ref 0 in
  for k = i to j - 1 do
    h := (!h * 31) + Char.code (String.unsafe_get s k)
  done;
  !h land max_int

let names (bindings : (string * 'a) list) : 'a names =
  let rec size n = if n >= 4 * List.length bindings then n else size (2 * n) in
  let t = Array.make (size 8) None in
  let mask = Array.length t - 1 in
  let rec put i b = if Option.is_some t.(i) then put ((i + 1) land mask) b else t.(i) <- Some b in
  List.iter (fun ((k, _) as b) -> put (hash_span k 0 (String.length k) land mask) b) bindings;
  t

let rec probe (t : 'a names) s i n what start slot : 'a =
  match Array.unsafe_get t slot with
  | None -> fail_at start ("unknown " ^ what)
  | Some (k, v) when String.length k = n && holds s i k 0 -> v
  | Some _ -> probe t s i n what start ((slot + 1) land (Array.length t - 1))

(** The value bound to the string literal at the cursor, which moves
    past it; [what] names the set in the error. *)
let name c what (t : 'a names) : 'a =
  let start = c.pos in
  expect c '"';
  let i = c.pos in
  let j = plain_end c i in
  c.pos <- j;
  expect c '"';
  probe t c.s i (j - i) what start (hash_span c.s i j land (Array.length t - 1))
