module Loc = S1_loc.Loc

type error = { line : int; col : int; message : string }

exception Parse_error of error

let fixnum_min = -(1 lsl 35)
let fixnum_max = (1 lsl 35) - 1

(* Side table from parsed form to its source position.  Sexp values are
   immutable and freshly allocated by the reader, so physical identity is
   the key; buckets are indexed by structural hash and searched with
   [==].  [add_loc] is also open to later pipeline stages (the macro
   expander propagates an original form's location onto its expansion). *)
type loctab = { lt_file : string; lt_tbl : (int, (Sexp.t * Loc.t) list) Hashtbl.t }

let create_loctab ?(file = "<string>") () = { lt_file = file; lt_tbl = Hashtbl.create 64 }

let find_loc t (s : Sexp.t) : Loc.t option =
  let rec search = function
    | [] -> None
    | (s', l) :: rest -> if s' == s then Some l else search rest
  in
  match Hashtbl.find_opt t.lt_tbl (Hashtbl.hash s) with
  | None -> None
  | Some bucket -> search bucket

let add_loc t (s : Sexp.t) (l : Loc.t) =
  if find_loc t s = None then
    let h = Hashtbl.hash s in
    let bucket = match Hashtbl.find_opt t.lt_tbl h with Some b -> b | None -> [] in
    Hashtbl.replace t.lt_tbl h ((s, l) :: bucket)

type state = {
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable col : int;
  mutable on_form : Sexp.t -> line:int -> col:int -> unit;
}

let make src = { src; pos = 0; line = 1; col = 1; on_form = (fun _ ~line:_ ~col:_ -> ()) }
let eof st = st.pos >= String.length st.src
let peek st = if eof st then '\000' else st.src.[st.pos]
let peek2 st = if st.pos + 1 >= String.length st.src then '\000' else st.src.[st.pos + 1]

let advance st =
  (if not (eof st) then
     if st.src.[st.pos] = '\n' then (
       st.line <- st.line + 1;
       st.col <- 1)
     else st.col <- st.col + 1);
  st.pos <- st.pos + 1

let fail st message = raise (Parse_error { line = st.line; col = st.col; message })

let is_ws c = c = ' ' || c = '\t' || c = '\n' || c = '\r' || c = '\012'

let is_terminating c =
  is_ws c || c = '(' || c = ')' || c = '"' || c = ';' || c = '\'' || c = '`' || c = ','

let rec skip_ws st =
  if eof st then ()
  else
    match peek st with
    | c when is_ws c ->
        advance st;
        skip_ws st
    | ';' ->
        while (not (eof st)) && peek st <> '\n' do
          advance st
        done;
        skip_ws st
    | '#' when peek2 st = '|' ->
        advance st;
        advance st;
        skip_block_comment st 1;
        skip_ws st
    | _ -> ()

and skip_block_comment st depth =
  if depth = 0 then ()
  else if eof st then fail st "unterminated block comment"
  else if peek st = '|' && peek2 st = '#' then (
    advance st;
    advance st;
    skip_block_comment st (depth - 1))
  else if peek st = '#' && peek2 st = '|' then (
    advance st;
    advance st;
    skip_block_comment st (depth + 1))
  else (
    advance st;
    skip_block_comment st depth)

(* Token text of an atom: maximal run of non-terminating chars. *)
let read_raw_atom st =
  let start = st.pos in
  while (not (eof st)) && not (is_terminating (peek st)) do
    advance st
  done;
  String.sub st.src start (st.pos - start)

(* Classify an atom's text as a number or a symbol. *)
let classify st text =
  let n = String.length text in
  if n = 0 then fail st "empty atom"
  else
    let is_digit c = c >= '0' && c <= '9' in
    let starts_numeric =
      is_digit text.[0]
      || ((text.[0] = '+' || text.[0] = '-' || text.[0] = '.') && n > 1 && is_digit text.[1])
      || (text.[0] = '.' && n > 1 && is_digit text.[1])
    in
    if not starts_numeric then Sexp.Sym (String.uppercase_ascii text)
    else
      (* integer? *)
      let body, neg =
        if text.[0] = '+' then (String.sub text 1 (n - 1), false)
        else if text.[0] = '-' then (String.sub text 1 (n - 1), true)
        else (text, false)
      in
      let all_digits s = s <> "" && String.for_all is_digit s in
      if all_digits body then (
        match int_of_string_opt text with
        | Some v when v >= fixnum_min && v <= fixnum_max -> Sexp.Int v
        | _ ->
            let digits = if neg then "-" ^ body else body in
            Sexp.Big digits)
      else
        match String.index_opt body '/' with
        | Some i
          when all_digits (String.sub body 0 i)
               && all_digits (String.sub body (i + 1) (String.length body - i - 1)) ->
            let num = int_of_string (String.sub body 0 i) in
            let den = int_of_string (String.sub body (i + 1) (String.length body - i - 1)) in
            if den = 0 then fail st "ratio with zero denominator"
            else Sexp.Ratio ((if neg then -num else num), den)
        | _ -> (
            (* float: optional precision suffix [sdht] replacing 'e' or
               appended as e.g. 1.5d0 *)
            let prec = ref Sexp.Single in
            let canon = Bytes.of_string text in
            let seen_marker = ref false in
            String.iteri
              (fun i c ->
                match Char.lowercase_ascii c with
                | ('s' | 'd' | 'h' | 't' | 'e') when not !seen_marker ->
                    seen_marker := true;
                    (match Char.lowercase_ascii c with
                    | 'h' -> prec := Sexp.Half
                    | 'd' -> prec := Sexp.Double
                    | 't' -> prec := Sexp.Twice
                    | _ -> prec := Sexp.Single);
                    Bytes.set canon i 'e'
                | _ -> ())
              text;
            match float_of_string_opt (Bytes.to_string canon) with
            | Some f -> Sexp.Float (f, !prec)
            | None -> Sexp.Sym (String.uppercase_ascii text))

let read_string_lit st =
  advance st (* opening quote *);
  let buf = Buffer.create 16 in
  let rec loop () =
    if eof st then fail st "unterminated string"
    else
      match peek st with
      | '"' -> advance st
      | '\\' ->
          advance st;
          if eof st then fail st "unterminated string escape"
          else (
            (match peek st with
            | 'n' -> Buffer.add_char buf '\n'
            | 't' -> Buffer.add_char buf '\t'
            | c -> Buffer.add_char buf c);
            advance st;
            loop ())
      | c ->
          Buffer.add_char buf c;
          advance st;
          loop ()
  in
  loop ();
  Sexp.Str (Buffer.contents buf)

let read_char_lit st =
  (* after "#\\" *)
  if eof st then fail st "unterminated character literal"
  else
    let first = peek st in
    advance st;
    (* Named characters: read following alphabetic run. *)
    if (first >= 'a' && first <= 'z') || (first >= 'A' && first <= 'Z') then (
      let start = st.pos in
      while (not (eof st)) && not (is_terminating (peek st)) do
        advance st
      done;
      let rest = String.sub st.src start (st.pos - start) in
      if rest = "" then Sexp.Char first
      else
        match String.uppercase_ascii (String.make 1 first ^ rest) with
        | "SPACE" -> Sexp.Char ' '
        | "NEWLINE" -> Sexp.Char '\n'
        | "TAB" -> Sexp.Char '\t'
        | "RETURN" -> Sexp.Char '\r'
        | other -> fail st (Printf.sprintf "unknown character name #\\%s" other))
    else Sexp.Char first

let rec read_form st =
  skip_ws st;
  if eof st then fail st "unexpected end of input"
  else begin
    let line = st.line and col = st.col in
    let form = read_form_at st in
    st.on_form form ~line ~col;
    form
  end

and read_form_at st =
    match peek st with
    | '(' ->
        advance st;
        read_list st []
    | ')' -> fail st "unexpected ')'"
    | '\'' ->
        advance st;
        Sexp.List [ Sexp.Sym "QUOTE"; read_form st ]
    | '`' ->
        advance st;
        Sexp.List [ Sexp.Sym "QUASIQUOTE"; read_form st ]
    | ',' ->
        advance st;
        if peek st = '@' then (
          advance st;
          Sexp.List [ Sexp.Sym "UNQUOTE-SPLICING"; read_form st ])
        else Sexp.List [ Sexp.Sym "UNQUOTE"; read_form st ]
    | '"' -> read_string_lit st
    | '#' -> (
        match peek2 st with
        | '\'' ->
            advance st;
            advance st;
            Sexp.List [ Sexp.Sym "FUNCTION"; read_form st ]
        | '\\' ->
            advance st;
            advance st;
            read_char_lit st
        | c -> fail st (Printf.sprintf "unsupported reader macro #%c" c))
    | _ -> (
        let text = read_raw_atom st in
        (* A lone "." is only legal inside a list, handled there. *)
        if text = "." then fail st "misplaced dot" else classify st text)

and read_list st acc =
  skip_ws st;
  if eof st then fail st "unterminated list"
  else
    match peek st with
    | ')' ->
        advance st;
        Sexp.List (List.rev acc)
    | '.' when is_terminating (peek2 st) || peek2 st = '\000' ->
        if acc = [] then fail st "dot at head of list"
        else (
          advance st;
          let tail = read_form st in
          skip_ws st;
          if eof st || peek st <> ')' then fail st "expected ')' after dotted tail"
          else (
            advance st;
            match tail with
            | Sexp.List items -> Sexp.List (List.rev_append acc items)
            | Sexp.Dotted (items, tl) -> Sexp.Dotted (List.rev_append acc items, tl)
            | atom -> Sexp.Dotted (List.rev acc, atom)))
    | _ -> read_list st (read_form st :: acc)

let parse_string src =
  let st = make src in
  let rec loop acc =
    skip_ws st;
    if eof st then List.rev acc else loop (read_form st :: acc)
  in
  loop []

let parse_string_located ?(file = "<string>") src =
  let st = make src in
  let tab = create_loctab ~file () in
  st.on_form <- (fun form ~line ~col -> add_loc tab form (Loc.make ~file ~line ~col));
  let rec loop acc =
    skip_ws st;
    if eof st then List.rev acc else loop (read_form st :: acc)
  in
  (loop [], tab)

let parse_one src =
  match parse_string src with
  | [ x ] -> x
  | [] -> raise (Parse_error { line = 1; col = 1; message = "no form in input" })
  | _ -> raise (Parse_error { line = 1; col = 1; message = "more than one form in input" })
