type float_prec = Half | Single | Double | Twice

type t =
  | Sym of string
  | Int of int
  | Big of string
  | Ratio of int * int
  | Float of float * float_prec
  | Str of string
  | Char of char
  | List of t list
  | Dotted of t list * t

let rec equal a b =
  match (a, b) with
  | Sym x, Sym y -> String.equal x y
  | Int x, Int y -> x = y
  | Big x, Big y -> String.equal x y
  | Ratio (n1, d1), Ratio (n2, d2) -> n1 = n2 && d1 = d2
  | Float (x, p), Float (y, q) ->
      p = q && Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Str x, Str y -> String.equal x y
  | Char x, Char y -> Char.equal x y
  | List xs, List ys -> List.length xs = List.length ys && List.for_all2 equal xs ys
  | Dotted (xs, x), Dotted (ys, y) ->
      List.length xs = List.length ys && List.for_all2 equal xs ys && equal x y
  | _, _ -> false

let rec compare a b =
  let tag = function
    | Sym _ -> 0 | Int _ -> 1 | Big _ -> 2 | Ratio _ -> 3 | Float _ -> 4
    | Str _ -> 5 | Char _ -> 6 | List _ -> 7 | Dotted _ -> 8
  in
  match (a, b) with
  | Sym x, Sym y -> String.compare x y
  | Int x, Int y -> Int.compare x y
  | Big x, Big y -> String.compare x y
  | Ratio (n1, d1), Ratio (n2, d2) ->
      let c = Int.compare n1 n2 in
      if c <> 0 then c else Int.compare d1 d2
  | Float (x, p), Float (y, q) ->
      let c = Stdlib.compare p q in
      if c <> 0 then c else Int64.compare (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Str x, Str y -> String.compare x y
  | Char x, Char y -> Char.compare x y
  | List xs, List ys -> compare_lists xs ys
  | Dotted (xs, x), Dotted (ys, y) ->
      let c = compare_lists xs ys in
      if c <> 0 then c else compare x y
  | _, _ -> Int.compare (tag a) (tag b)

and compare_lists xs ys =
  match (xs, ys) with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | x :: xs', y :: ys' ->
      let c = compare x y in
      if c <> 0 then c else compare_lists xs' ys'

let sym s = Sym s
let int n = Int n
let flo f = Float (f, Single)
let list xs = List xs
let quote x = List [ Sym "QUOTE"; x ]
let nil = List []
let t_bool b = if b then Sym "T" else nil
let is_nil = function List [] -> true | _ -> false

let uncons = function
  | List (x :: xs) -> Some (x, List xs)
  | Dotted ([ x ], tl) -> Some (x, tl)
  | Dotted (x :: xs, tl) -> Some (x, Dotted (xs, tl))
  | _ -> None


(* Printing ------------------------------------------------------------- *)

let prec_suffix = function Half -> "h0" | Single -> "" | Double -> "d0" | Twice -> "t0"

let float_literal f p =
  (* Choose a decimal rendering that reads back equal; default precision
     gets no suffix but must contain a '.' or exponent so the reader sees a
     float. *)
  let base =
    if Float.is_integer f && Float.abs f < 1e16 then Printf.sprintf "%.1f" f
    else
      let s = Printf.sprintf "%.17g" f in
      let shorter = Printf.sprintf "%.12g" f in
      if float_of_string shorter = f then shorter else s
  in
  base ^ prec_suffix p

let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let rec pp fmt t =
  match t with
  | Sym s -> Format.pp_print_string fmt s
  | Int n -> Format.pp_print_int fmt n
  | Big s -> Format.pp_print_string fmt s
  | Ratio (n, d) -> Format.fprintf fmt "%d/%d" n d
  | Float (f, p) -> Format.pp_print_string fmt (float_literal f p)
  | Str s -> Format.fprintf fmt "\"%s\"" (escape_string s)
  | Char c -> Format.fprintf fmt "#\\%c" c
  | List [ Sym "QUOTE"; x ] -> Format.fprintf fmt "'%a" pp x
  | List [ Sym "FUNCTION"; x ] -> Format.fprintf fmt "#'%a" pp x
  | List xs ->
      Format.fprintf fmt "@[<hov 1>(%a)@]"
        (Format.pp_print_list ~pp_sep:Format.pp_print_space pp)
        xs
  | Dotted (xs, tl) ->
      Format.fprintf fmt "@[<hov 1>(%a .@ %a)@]"
        (Format.pp_print_list ~pp_sep:Format.pp_print_space pp)
        xs pp tl

let to_string t = Format.asprintf "%a" pp t
