(** Knowledge about primitive operations.

    This is the table behind several "table-driven" passes in the paper:
    compile-time expression evaluation ("invoking primitive functions
    known to be free of side effects on constant operands", §5),
    associative/commutative canonicalization and identity-operand
    elimination, side-effects classification (which calls are to
    "immutable mathematical functions", §7), and the representation
    annotations of the type-specific operators (§6.2). *)

module Sexp = S1_sexp.Sexp
module N = S1_runtime.Numerics
module B = S1_runtime.Bignum
open S1_ir

type t = {
  name : string;
  min_args : int;
  max_args : int;  (** -1 = any *)
  pure : bool;  (** free of observable side effects *)
  may_alloc : bool;  (** may allocate heap storage *)
  commutative : bool;
  associative : bool;
  identity : Sexp.t option;  (** two-sided identity element *)
  arg_rep : Node.rep option;  (** required operand representation (type-specific ops) *)
  res_rep : Node.rep option;  (** delivered representation *)
  fold : (Sexp.t list -> Sexp.t option) option;  (** compile-time evaluation *)
}

(* Sexp constants <-> the numeric tower, without touching a heap. *)
let num_of_sexp (s : Sexp.t) : N.num option =
  match s with
  | Sexp.Int n -> Some (N.Int (B.of_int n))
  | Sexp.Big d -> Some (N.Int (B.of_string d))
  | Sexp.Ratio (n, d) -> Some (N.normalize_ratio (B.of_int n) (B.of_int d))
  | Sexp.Float (f, (Sexp.Single | Sexp.Half)) ->
      Some (N.Single (S1_machine.Float36.single_of_float f))
  | Sexp.Float (f, (Sexp.Double | Sexp.Twice)) -> Some (N.Double f)
  | _ -> None

let sexp_of_num (n : N.num) : Sexp.t option =
  match n with
  | N.Int b -> (
      match B.to_int_opt b with
      | Some v when v >= -(1 lsl 35) && v < 1 lsl 35 -> Some (Sexp.Int v)
      | _ -> Some (Sexp.Big (B.to_string b)))
  | N.Rat (num, den) -> (
      match (B.to_int_opt num, B.to_int_opt den) with
      | Some n', Some d' -> Some (Sexp.Ratio (n', d'))
      | _ -> None)
  | N.Single f -> Some (Sexp.Float (f, Sexp.Single))
  | N.Double f -> Some (Sexp.Float (f, Sexp.Double))
  | N.Cpx _ -> None (* no literal syntax for complex; don't fold *)

let bool_sexp b = if b then Sexp.Sym "T" else Sexp.nil

(* Folders; any exception means "don't fold". *)
let guard f args = try f args with _ -> None

let fold_nary_num f init =
  guard (fun args ->
      let nums = List.map (fun a -> Option.get (num_of_sexp a)) args in
      match nums with
      | [] -> sexp_of_num init
      | x :: rest -> sexp_of_num (List.fold_left f x rest))

let fold_sub =
  guard (fun args ->
      let nums = List.map (fun a -> Option.get (num_of_sexp a)) args in
      match nums with
      | [ x ] -> sexp_of_num (N.neg x)
      | x :: rest -> sexp_of_num (List.fold_left N.sub x rest)
      | [] -> None)

let fold_div =
  guard (fun args ->
      let nums = List.map (fun a -> Option.get (num_of_sexp a)) args in
      match nums with
      | [ x ] -> sexp_of_num (N.div (N.of_int 1) x)
      | x :: rest -> sexp_of_num (List.fold_left N.div x rest)
      | [] -> None)

let fold_chain rel =
  guard (fun args ->
      let nums = List.map (fun a -> Option.get (num_of_sexp a)) args in
      let rec go = function
        | a :: (b :: _ as rest) -> rel (N.compare_ a b) 0 && go rest
        | _ -> true
      in
      Some (bool_sexp (go nums)))

let fold_num_eq =
  guard (fun args ->
      let nums = List.map (fun a -> Option.get (num_of_sexp a)) args in
      let rec go = function
        | a :: (b :: _ as rest) -> N.equal_value a b && go rest
        | _ -> true
      in
      Some (bool_sexp (go nums)))

let fold1 f = guard (function [ a ] -> f (Option.get (num_of_sexp a)) | _ -> None)

(* Strict single-float folders for the type-specific operators: folding
   must not mask a type error the runtime would signal. *)
let all_floats args =
  List.for_all (function Sexp.Float (_, (Sexp.Single | Sexp.Half)) -> true | _ -> false) args

let fold_flo_nary f init =
  guard (fun args ->
      if not (all_floats args) then None
      else
        let nums = List.map (fun a -> Option.get (num_of_sexp a)) args in
        match nums with
        | [] -> sexp_of_num init
        | x :: rest -> sexp_of_num (List.fold_left f x rest))

let all_ints args = List.for_all (function Sexp.Int _ | Sexp.Big _ -> true | _ -> false) args

let fold_fix_nary f init =
  guard (fun args ->
      if not (all_ints args) then None
      else
        let nums = List.map (fun a -> Option.get (num_of_sexp a)) args in
        match nums with
        | [] -> sexp_of_num init
        | x :: rest -> sexp_of_num (List.fold_left f x rest))

let fold_fix_sub =
  guard (fun args ->
      if not (all_ints args) then None
      else
        let nums = List.map (fun a -> Option.get (num_of_sexp a)) args in
        match nums with
        | [ x ] -> sexp_of_num (N.neg x)
        | x :: rest -> sexp_of_num (List.fold_left N.sub x rest)
        | [] -> None)

let fold_flo_sub =
  guard (fun args ->
      if not (all_floats args) then None
      else
        let nums = List.map (fun a -> Option.get (num_of_sexp a)) args in
        match nums with
        | [ x ] -> sexp_of_num (N.neg x)
        | x :: rest -> sexp_of_num (List.fold_left N.sub x rest)
        | [] -> None)
let fold_pred p = fold1 (fun n -> Some (bool_sexp (p n)))
let fold_unary f = fold1 (fun n -> sexp_of_num (f n))

let fold_rounding f =
  guard (fun args ->
      match List.map (fun a -> Option.get (num_of_sexp a)) args with
      | [ x ] -> sexp_of_num (fst (f x))
      | [ x; y ] -> sexp_of_num (fst (f (N.div x y)))
      | _ -> None)

(* Structural folders on quoted constants. *)
let as_quoted_list = function
  | Sexp.List items -> Some items
  | _ -> None

let fold_car =
  guard (function
    | [ arg ] -> (
        match as_quoted_list arg with
        | Some (x :: _) -> Some x
        | Some [] -> Some Sexp.nil
        | None -> None)
    | _ -> None)

let fold_cdr =
  guard (function
    | [ arg ] -> (
        match as_quoted_list arg with
        | Some (_ :: rest) -> Some (Sexp.List rest)
        | Some [] -> Some Sexp.nil
        | None -> None)
    | _ -> None)

let fold_not =
  guard (function [ a ] -> Some (bool_sexp (Sexp.is_nil a)) | _ -> None)

let fold_null = fold_not

(* The table ------------------------------------------------------------- *)

let prim ?(pure = true) ?(may_alloc = false) ?(commutative = false) ?(associative = false)
    ?identity ?arg_rep ?res_rep ?fold name min_args max_args =
  { name; min_args; max_args; pure; may_alloc; commutative; associative; identity; arg_rep;
    res_rep; fold }

let table =
  [
    (* generic arithmetic: pure but may allocate results *)
    prim "+" 0 (-1) ~may_alloc:true ~commutative:true ~associative:true
      ~identity:(Sexp.Int 0) ~fold:(fold_nary_num N.add (N.of_int 0));
    prim "*" 0 (-1) ~may_alloc:true ~commutative:true ~associative:true
      ~identity:(Sexp.Int 1) ~fold:(fold_nary_num N.mul (N.of_int 1));
    prim "-" 1 (-1) ~may_alloc:true ~fold:fold_sub;
    prim "/" 1 (-1) ~may_alloc:true ~fold:fold_div;
    prim "1+" 1 1 ~may_alloc:true ~fold:(fold_unary (fun n -> N.add n (N.of_int 1)));
    prim "1-" 1 1 ~may_alloc:true ~fold:(fold_unary (fun n -> N.sub n (N.of_int 1)));
    prim "<" 1 (-1) ~fold:(fold_chain ( < ));
    prim "<=" 1 (-1) ~fold:(fold_chain ( <= ));
    prim ">" 1 (-1) ~fold:(fold_chain ( > ));
    prim ">=" 1 (-1) ~fold:(fold_chain ( >= ));
    prim "=" 1 (-1) ~fold:fold_num_eq;
    prim "/=" 2 2;
    prim "MAX" 1 (-1) ~may_alloc:true ~commutative:true ~associative:true;
    prim "MIN" 1 (-1) ~may_alloc:true ~commutative:true ~associative:true;
    prim "ABS" 1 1 ~may_alloc:true ~fold:(fold_unary N.abs_);
    prim "FLOOR" 1 2 ~may_alloc:true ~fold:(fold_rounding N.floor_);
    prim "CEILING" 1 2 ~may_alloc:true ~fold:(fold_rounding N.ceiling_);
    prim "TRUNCATE" 1 2 ~may_alloc:true ~fold:(fold_rounding N.truncate_);
    prim "ROUND" 1 2 ~may_alloc:true ~fold:(fold_rounding N.round_);
    prim "MOD" 2 2 ~may_alloc:true;
    prim "REM" 2 2 ~may_alloc:true;
    prim "GCD" 0 (-1) ~may_alloc:true ~commutative:true ~associative:true;
    prim "ZEROP" 1 1 ~fold:(fold_pred N.zerop);
    prim "PLUSP" 1 1 ~fold:(fold_pred N.plusp);
    prim "MINUSP" 1 1 ~fold:(fold_pred N.minusp);
    prim "ODDP" 1 1 ~fold:(fold_pred N.oddp);
    prim "EVENP" 1 1 ~fold:(fold_pred N.evenp);
    prim "SQRT" 1 1 ~may_alloc:true;
    prim "SIN" 1 1 ~may_alloc:true;
    prim "COS" 1 1 ~may_alloc:true;
    prim "ATAN" 1 2 ~may_alloc:true;
    prim "EXP" 1 1 ~may_alloc:true;
    prim "LOG" 1 1 ~may_alloc:true;
    prim "EXPT" 2 2 ~may_alloc:true ~fold:(guard (function
      | [ a; b ] ->
          sexp_of_num (N.expt (Option.get (num_of_sexp a)) (Option.get (num_of_sexp b)))
      | _ -> None));
    prim "FLOAT" 1 1 ~may_alloc:true;
    (* type-specific single-float operators (§6.2): operands and results in
       raw machine form *)
    prim "+$F" 1 (-1) ~may_alloc:true ~commutative:true ~associative:true
      ~identity:(Sexp.Float (0.0, Sexp.Single)) ~arg_rep:Node.SWFLO ~res_rep:Node.SWFLO
      ~fold:(fold_flo_nary N.add (N.Single 0.0));
    prim "*$F" 1 (-1) ~may_alloc:true ~commutative:true ~associative:true
      ~identity:(Sexp.Float (1.0, Sexp.Single)) ~arg_rep:Node.SWFLO ~res_rep:Node.SWFLO
      ~fold:(fold_flo_nary N.mul (N.Single 1.0));
    prim "-$F" 1 (-1) ~may_alloc:true ~arg_rep:Node.SWFLO ~res_rep:Node.SWFLO
      ~fold:fold_flo_sub;
    prim "/$F" 2 (-1) ~may_alloc:true ~arg_rep:Node.SWFLO ~res_rep:Node.SWFLO ~fold:fold_div;
    prim "MAX$F" 1 (-1) ~may_alloc:true ~commutative:true ~associative:true ~arg_rep:Node.SWFLO
      ~res_rep:Node.SWFLO;
    prim "MIN$F" 1 (-1) ~may_alloc:true ~commutative:true ~associative:true ~arg_rep:Node.SWFLO
      ~res_rep:Node.SWFLO;
    prim "SQRT$F" 1 1 ~may_alloc:true ~arg_rep:Node.SWFLO ~res_rep:Node.SWFLO;
    prim "SIN$F" 1 1 ~may_alloc:true ~arg_rep:Node.SWFLO ~res_rep:Node.SWFLO;
    prim "COS$F" 1 1 ~may_alloc:true ~arg_rep:Node.SWFLO ~res_rep:Node.SWFLO;
    prim "SINC$F" 1 1 ~may_alloc:true ~arg_rep:Node.SWFLO ~res_rep:Node.SWFLO;
    prim "COSC$F" 1 1 ~may_alloc:true ~arg_rep:Node.SWFLO ~res_rep:Node.SWFLO;
    prim "EXP$F" 1 1 ~may_alloc:true ~arg_rep:Node.SWFLO ~res_rep:Node.SWFLO;
    prim "LOG$F" 1 1 ~may_alloc:true ~arg_rep:Node.SWFLO ~res_rep:Node.SWFLO;
    prim "ATAN$F" 2 2 ~may_alloc:true ~arg_rep:Node.SWFLO ~res_rep:Node.SWFLO;
    prim "<$F" 2 2 ~arg_rep:Node.SWFLO ~res_rep:Node.BIT;
    prim "=$F" 2 2 ~arg_rep:Node.SWFLO ~res_rep:Node.BIT;
    (* type-specific fixnum operators *)
    prim "+&" 1 (-1) ~commutative:true ~associative:true ~identity:(Sexp.Int 0)
      ~arg_rep:Node.SWFIX ~res_rep:Node.SWFIX ~fold:(fold_fix_nary N.add (N.of_int 0));
    prim "-&" 1 (-1) ~arg_rep:Node.SWFIX ~res_rep:Node.SWFIX ~fold:fold_fix_sub;
    prim "*&" 1 (-1) ~commutative:true ~associative:true ~identity:(Sexp.Int 1)
      ~arg_rep:Node.SWFIX ~res_rep:Node.SWFIX ~fold:(fold_fix_nary N.mul (N.of_int 1));
    prim "<&" 2 2 ~arg_rep:Node.SWFIX ~res_rep:Node.BIT ~fold:(fold_chain ( < ));
    prim "=&" 2 2 ~arg_rep:Node.SWFIX ~res_rep:Node.BIT ~fold:fold_num_eq;
    (* list structure *)
    prim "CONS" 2 2 ~may_alloc:true;
    prim "LIST" 0 (-1) ~may_alloc:true;
    prim "LIST*" 1 (-1) ~may_alloc:true;
    prim "APPEND" 0 (-1) ~may_alloc:true;
    prim "REVERSE" 1 1 ~may_alloc:true;
    prim "CAR" 1 1 ~fold:fold_car;
    prim "CDR" 1 1 ~fold:fold_cdr;
    prim "CAAR" 1 1;
    prim "CADR" 1 1;
    prim "CDAR" 1 1;
    prim "CDDR" 1 1;
    prim "CADDR" 1 1;
    prim "LENGTH" 1 1
      ~fold:(guard (function
        | [ Sexp.List items ] -> Some (Sexp.Int (List.length items))
        | _ -> None));
    prim "NTH" 2 2;
    prim "NTHCDR" 2 2;
    prim "LAST" 1 1;
    prim "ASSOC" 2 2;
    prim "ASSQ" 2 2;
    prim "MEMBER" 2 2;
    prim "MEMQ" 2 2;
    prim "COPY-LIST" 1 1 ~may_alloc:true;
    prim "NCONC" 0 (-1) ~pure:false;
    prim "REMOVE" 2 2 ~may_alloc:true;
    prim "COUNT" 2 2;
    prim "POSITION" 2 2;
    prim "SUBST" 3 3 ~may_alloc:true;
    prim "SORT" 2 2 ~pure:false ~may_alloc:true;
    prim "RPLACA" 2 2 ~pure:false;
    prim "RPLACD" 2 2 ~pure:false;
    (* predicates *)
    prim "NULL" 1 1 ~fold:fold_null;
    prim "NOT" 1 1 ~fold:fold_not;
    prim "ATOM" 1 1
      ~fold:(guard (function
        | [ Sexp.List (_ :: _) ] -> Some (bool_sexp false)
        | [ _ ] -> Some (bool_sexp true)
        | _ -> None));
    prim "CONSP" 1 1;
    prim "LISTP" 1 1;
    prim "SYMBOLP" 1 1;
    prim "NUMBERP" 1 1
      ~fold:(guard (fun args ->
          match args with [ a ] -> Some (bool_sexp (num_of_sexp a <> None)) | _ -> None));
    prim "INTEGERP" 1 1;
    prim "FLOATP" 1 1;
    prim "RATIONALP" 1 1;
    prim "COMPLEXP" 1 1;
    prim "STRINGP" 1 1;
    prim "VECTORP" 1 1;
    prim "FUNCTIONP" 1 1;
    prim "EQ" 2 2;
    prim "EQL" 2 2;
    prim "EQUAL" 2 2;
    (* symbols: reading is impure-ish (depends on dynamic state) *)
    prim "SYMBOL-VALUE" 1 1 ~pure:false;
    prim "SET" 2 2 ~pure:false;
    prim "SYMBOL-FUNCTION" 1 1 ~pure:false;
    prim "SYMBOL-NAME" 1 1 ~may_alloc:true;
    prim "GENSYM" 0 1 ~pure:false;
    prim "GET" 2 2 ~pure:false;
    prim "PUTPROP" 3 3 ~pure:false;
    (* vectors: reads depend on mutable state *)
    prim "MAKE-VECTOR" 1 2 ~pure:false ~may_alloc:true;
    prim "VECTOR" 0 (-1) ~pure:false ~may_alloc:true;
    prim "VECTOR-LENGTH" 1 1;
    prim "AREF" 2 2 ~pure:false;
    prim "ASET" 3 3 ~pure:false;
    (* strings *)
    prim "STRING=" 2 2;
    prim "STRING-APPEND" 0 (-1) ~may_alloc:true;
    prim "STRING-LENGTH" 1 1;
    (* control and io *)
    prim "FUNCALL" 1 (-1) ~pure:false;
    prim "APPLY" 2 (-1) ~pure:false;
    prim "MAPCAR" 2 2 ~pure:false ~may_alloc:true;
    prim "MAPC" 2 2 ~pure:false;
    prim "REDUCE" 2 3 ~pure:false;
    prim "IDENTITY" 1 1;
    prim "ERROR" 1 (-1) ~pure:false;
    prim "THROW" 2 2 ~pure:false;
    prim "PRIN1" 1 1 ~pure:false;
    prim "PRINC" 1 1 ~pure:false;
    prim "PRINT" 1 1 ~pure:false;
    prim "TERPRI" 0 0 ~pure:false;
    prim "COMPLEX" 2 2 ~may_alloc:true;
    prim "REALPART" 1 1;
    prim "IMAGPART" 1 1;
    prim "NUMERATOR" 1 1;
    prim "DENOMINATOR" 1 1;
  ]

(* Keyed with [String.equal]: the analyses look a callee up at every call
   node they re-derive, and the generic table would compare polymorphically. *)
module By_name = Hashtbl.Make (String)

let by_name : t By_name.t =
  let h = By_name.create 128 in
  List.iter (fun p -> By_name.replace h p.name p) table;
  h

let find name = By_name.find_opt by_name name
let is_primitive name = By_name.mem by_name name

(* Which prim calls the code generator compiles inline, by name and
   arity.  Everything else goes through the runtime as a native call
   whose result arrives as a tagged POINTER in A.  Representation
   analysis must make the exact same judgement as the generator —
   a 3-ary (- a b c) is a native call even with inlining on, and
   claiming the table's raw SWFLO result rep for it made the pdl-number
   path reinterpret the tagged result word as float bits (found by the
   differential fuzzer) — so the table lives here, next to the prim
   table, and both sides consult it. *)
let inlinable fname nargs =
  match fname with
  | "+$F" | "-$F" | "*$F" | "/$F" | "MAX$F" | "MIN$F" | "ATAN$F" -> nargs = 2 || nargs = 1
  | "SQRT$F" | "SINC$F" | "COSC$F" | "SIN$F" | "COS$F" | "EXP$F" | "LOG$F" -> nargs = 1
  | "<$F" | "=$F" | "<&" | "=&" -> nargs = 2
  | "+&" | "-&" | "*&" -> nargs = 2 || nargs = 1
  | "+" | "-" | "*" | "/" | "MAX" | "MIN" | "MOD" | "REM" -> nargs = 2 || nargs = 1
  | "<" | "<=" | ">" | ">=" | "=" -> nargs = 2
  | "1+" | "1-" | "ZEROP" | "ODDP" | "EVENP" | "SQRT" | "SIN" | "COS" | "EXP" | "LOG" ->
      nargs = 1
  | "FLOOR" | "CEILING" | "TRUNCATE" | "ROUND" -> nargs = 1
  | "CAR" | "CDR" | "NOT" | "NULL" -> nargs = 1
  | "CONS" | "EQ" | "EQL" | "EQUAL" | "THROW" | "ATAN" -> nargs = 2
  | "FUNCALL" -> nargs >= 1
  | _ -> false

