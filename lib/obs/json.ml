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
   quote; return the offset past that quote and the decoded length. *)
let rec unescape s b i j =
  if i >= String.length s then fail_at i "unterminated string"
  else
    match String.unsafe_get s i with
    | '"' -> (i + 1, j)
    | '\\' -> unescape_at s b (i + 1) j
    | c ->
        Bytes.set b j c;
        unescape s b (i + 1) (j + 1)

(* The escape whose letter is [s.[i]]. *)
and unescape_at s b i j =
  if i >= String.length s then fail_at i "unterminated escape"
  else
    match s.[i] with
    | 'u' -> (
        if i + 4 >= String.length s then fail_at i "truncated \\u escape";
        let hex = String.sub s (i + 1) 4 in
        match int_of_string_opt ("0x" ^ hex) with
        | None -> fail_at i "bad \\u escape"
        (* we only ever emit \u00XX for control characters *)
        | Some code when code < 0x80 ->
            Bytes.set b j (Char.chr code);
            unescape s b (i + 5) (j + 1)
        | Some _ ->
            Bytes.blit_string ("\\u" ^ hex) 0 b j 6;
            unescape s b (i + 5) (j + 6))
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
        unescape s b (i + 1) (j + 1)

let parse (s : string) : t =
  let pos = ref 0 in
  let len = String.length s in
  let fail msg = fail_at !pos msg in
  let peek () = if !pos < len then s.[!pos] else '\000' in
  let skip_ws () =
    while !pos < len && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      incr pos
    done
  in
  let expect c =
    if peek () = c then incr pos else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    if !pos + String.length word <= len && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  (* An escape-free literal is one [String.sub].  Otherwise [unescape]
     finishes it in a scratch buffer the size of the document: no escape
     decodes to more bytes than it spans. *)
  let scratch = ref Bytes.empty in
  let parse_string_lit () =
    expect '"';
    let start = !pos in
    let i = ref start in
    while !i < len && (match String.unsafe_get s !i with '"' | '\\' -> false | _ -> true) do
      incr i
    done;
    if !i < len && s.[!i] = '"' then begin
      pos := !i + 1;
      String.sub s start (!i - start)
    end
    else begin
      if Bytes.length !scratch = 0 then scratch := Bytes.create len;
      Bytes.blit_string s start !scratch 0 (!i - start);
      let stop, n = unescape s !scratch !i (!i - start) in
      pos := stop;
      Bytes.sub_string !scratch 0 n
    end
  in
  (* An integer of at most 17 digits cannot overflow and is summed in
     place; any other number goes through [String.sub] and the stdlib. *)
  let parse_number () =
    let start = !pos in
    if peek () = '-' then incr pos;
    let is_num_char c =
      (c >= '0' && c <= '9') || c = '.' || c = 'e' || c = 'E' || c = '+' || c = '-'
    in
    let digits = !pos and acc = ref 0 in
    while !pos < len && s.[!pos] >= '0' && s.[!pos] <= '9' do
      acc := (10 * !acc) + Char.code s.[!pos] - 48;
      incr pos
    done;
    if !pos > digits && !pos - digits < 18 && not (!pos < len && is_num_char s.[!pos])
    then Int (if start < digits then - !acc else !acc)
    else begin
      while !pos < len && is_num_char s.[!pos] do
        incr pos
      done;
      let text = String.sub s start (!pos - start) in
      if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') text then
        match float_of_string_opt text with
        | Some f -> Float f
        | None -> fail "bad number"
      else
        match int_of_string_opt text with
        | Some n -> Int n
        | None -> fail "bad number"
    end
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | 'n' -> literal "null" Null
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | '"' -> Str (parse_string_lit ())
    | '[' ->
        incr pos;
        skip_ws ();
        if peek () = ']' then begin
          incr pos;
          Arr []
        end
        else begin
          let items = ref [ parse_value () ] in
          skip_ws ();
          while peek () = ',' do
            incr pos;
            items := parse_value () :: !items;
            skip_ws ()
          done;
          expect ']';
          Arr (List.rev !items)
        end
    | '{' ->
        incr pos;
        skip_ws ();
        if peek () = '}' then begin
          incr pos;
          Obj []
        end
        else begin
          let field () =
            skip_ws ();
            let k = parse_string_lit () in
            skip_ws ();
            expect ':';
            (k, parse_value ())
          in
          let fields = ref [ field () ] in
          skip_ws ();
          while peek () = ',' do
            incr pos;
            fields := field () :: !fields;
            skip_ws ()
          done;
          expect '}';
          Obj (List.rev !fields)
        end
    | c when c = '-' || (c >= '0' && c <= '9') -> parse_number ()
    | _ -> fail "unexpected character"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> len then fail "trailing garbage";
  v

(* Object field access, for consumers of parsed documents. *)
let member key = function Obj fields -> List.assoc_opt key fields | _ -> None
let to_int = function Int n -> Some n | _ -> None
let to_str = function Str s -> Some s | _ -> None
