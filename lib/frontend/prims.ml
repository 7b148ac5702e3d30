(** Knowledge about primitive operations.

    This is the table behind several "table-driven" passes in the paper:
    compile-time expression evaluation ("invoking primitive functions
    known to be free of side effects on constant operands", §5),
    associative/commutative canonicalization and identity-operand
    elimination, side-effects classification (which calls are to
    "immutable mathematical functions", §7), declared-type
    specialization, the representation annotations of the type-specific
    operators (§6.2), the pdl-number lifetime analysis (§6.3), and which
    calls the code generator open-codes.  It is the only description of
    a primitive: every pass reads a call's facts from one {!find}. *)

module Sexp = S1_sexp.Sexp
module N = S1_runtime.Numerics
module B = S1_runtime.Bignum
open S1_ir

type t = {
  name : string;
  open_coded : (int * int) option;
      (** the arities [lo, hi] Gen.gen_prim compiles inline ([hi = max_int]:
          any number); every other call goes through the runtime as a
          native call *)
  pure : bool;  (** free of observable side effects *)
  may_alloc : bool;  (** may allocate heap storage *)
  timeless : bool;
      (** reads no mutable storage: a call over timeless operands has the
          same value whenever it is evaluated *)
  stores_args : bool;  (** may let an argument pointer outlive the call *)
  transfers_control : bool;  (** may leave by a non-local exit (THROW, ERROR) *)
  commutative : bool;
  associative : bool;
  identity : Sexp.t option;  (** two-sided identity element *)
  arg_rep : Node.rep option;  (** required operand representation (type-specific ops) *)
  res_rep : Node.rep option;  (** delivered representation *)
  single_float : string option;
      (** the single-float operator a call over declared single floats is
          specialized to *)
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

let prim ?open_coded ?(pure = true) ?(may_alloc = false) ?(timeless = false)
    ?(stores_args = false) ?(transfers_control = false) ?(commutative = false)
    ?(associative = false) ?identity ?arg_rep ?res_rep ?single_float ?fold name =
  { name; open_coded; pure; may_alloc; timeless; stores_args; transfers_control; commutative;
    associative; identity; arg_rep; res_rep; single_float; fold }

(* A one-operand single-float operator, compiled inline to one
   instruction (SIN$F and COS$F scale their operand first). *)
let flo1 name =
  prim name ~open_coded:(1, 1) ~timeless:true ~may_alloc:true ~arg_rep:Node.SWFLO
    ~res_rep:Node.SWFLO

let table =
  [
    (* generic arithmetic: pure but may allocate results *)
    prim "+" ~open_coded:(1, 2) ~timeless:true ~single_float:"+$F" ~may_alloc:true
      ~commutative:true ~associative:true ~identity:(Sexp.Int 0)
      ~fold:(fold_nary_num N.add (N.of_int 0));
    prim "*" ~open_coded:(1, 2) ~timeless:true ~single_float:"*$F" ~may_alloc:true
      ~commutative:true ~associative:true ~identity:(Sexp.Int 1)
      ~fold:(fold_nary_num N.mul (N.of_int 1));
    prim "-" ~open_coded:(1, 2) ~timeless:true ~single_float:"-$F" ~may_alloc:true ~fold:fold_sub;
    prim "/" ~open_coded:(2, 2) ~single_float:"/$F" ~may_alloc:true ~fold:fold_div;
    prim "1+" ~open_coded:(1, 1) ~timeless:true ~may_alloc:true
      ~fold:(fold_unary (fun n -> N.add n (N.of_int 1)));
    prim "1-" ~open_coded:(1, 1) ~timeless:true ~may_alloc:true
      ~fold:(fold_unary (fun n -> N.sub n (N.of_int 1)));
    prim "<" ~open_coded:(2, 2) ~timeless:true ~single_float:"<$F" ~fold:(fold_chain ( < ));
    prim "<=" ~open_coded:(2, 2) ~timeless:true ~fold:(fold_chain ( <= ));
    prim ">" ~open_coded:(2, 2) ~timeless:true ~fold:(fold_chain ( > ));
    prim ">=" ~open_coded:(2, 2) ~timeless:true ~fold:(fold_chain ( >= ));
    prim "=" ~open_coded:(2, 2) ~timeless:true ~single_float:"=$F" ~fold:fold_num_eq;
    prim "/=";
    prim "MAX" ~open_coded:(1, 2) ~timeless:true ~single_float:"MAX$F" ~may_alloc:true
      ~commutative:true ~associative:true;
    prim "MIN" ~open_coded:(1, 2) ~timeless:true ~single_float:"MIN$F" ~may_alloc:true
      ~commutative:true ~associative:true;
    prim "ABS" ~timeless:true ~may_alloc:true ~fold:(fold_unary N.abs_);
    prim "FLOOR" ~open_coded:(1, 1) ~may_alloc:true ~fold:(fold_rounding N.floor_);
    prim "CEILING" ~open_coded:(1, 1) ~may_alloc:true ~fold:(fold_rounding N.ceiling_);
    prim "TRUNCATE" ~open_coded:(1, 1) ~may_alloc:true ~fold:(fold_rounding N.truncate_);
    prim "ROUND" ~open_coded:(1, 1) ~may_alloc:true ~fold:(fold_rounding N.round_);
    prim "MOD" ~may_alloc:true;
    prim "REM" ~may_alloc:true;
    prim "GCD" ~may_alloc:true ~commutative:true ~associative:true;
    prim "ZEROP" ~open_coded:(1, 1) ~timeless:true ~fold:(fold_pred N.zerop);
    prim "PLUSP" ~timeless:true ~fold:(fold_pred N.plusp);
    prim "MINUSP" ~timeless:true ~fold:(fold_pred N.minusp);
    prim "ODDP" ~open_coded:(1, 1) ~timeless:true ~fold:(fold_pred N.oddp);
    prim "EVENP" ~open_coded:(1, 1) ~timeless:true ~fold:(fold_pred N.evenp);
    (* "immutable mathematical functions" (§7): timeless because they read
       only immutable number boxes, and EQ is not guaranteed on numbers in
       this dialect (§6.3), so fresh result boxes may be re-created freely *)
    prim "SQRT" ~open_coded:(1, 1) ~timeless:true ~single_float:"SQRT$F" ~may_alloc:true;
    prim "SIN" ~open_coded:(1, 1) ~timeless:true ~single_float:"SIN$F" ~may_alloc:true;
    prim "COS" ~open_coded:(1, 1) ~timeless:true ~single_float:"COS$F" ~may_alloc:true;
    prim "ATAN" ~open_coded:(2, 2) ~timeless:true ~single_float:"ATAN$F" ~may_alloc:true;
    prim "EXP" ~open_coded:(1, 1) ~timeless:true ~single_float:"EXP$F" ~may_alloc:true;
    prim "LOG" ~open_coded:(1, 1) ~timeless:true ~single_float:"LOG$F" ~may_alloc:true;
    prim "EXPT" ~timeless:true ~may_alloc:true ~fold:(guard (function
      | [ a; b ] ->
          sexp_of_num (N.expt (Option.get (num_of_sexp a)) (Option.get (num_of_sexp b)))
      | _ -> None));
    prim "FLOAT" ~timeless:true ~may_alloc:true;
    (* type-specific single-float operators (§6.2): operands and results in
       raw machine form *)
    prim "+$F" ~open_coded:(2, 2) ~timeless:true ~may_alloc:true ~commutative:true
      ~associative:true ~identity:(Sexp.Float (0.0, Sexp.Single)) ~arg_rep:Node.SWFLO
      ~res_rep:Node.SWFLO ~fold:(fold_flo_nary N.add (N.Single 0.0));
    prim "*$F" ~open_coded:(2, 2) ~timeless:true ~may_alloc:true ~commutative:true
      ~associative:true ~identity:(Sexp.Float (1.0, Sexp.Single)) ~arg_rep:Node.SWFLO
      ~res_rep:Node.SWFLO ~fold:(fold_flo_nary N.mul (N.Single 1.0));
    prim "-$F" ~open_coded:(1, 2) ~timeless:true ~may_alloc:true ~arg_rep:Node.SWFLO
      ~res_rep:Node.SWFLO ~fold:fold_flo_sub;
    prim "/$F" ~open_coded:(2, 2) ~timeless:true ~may_alloc:true ~arg_rep:Node.SWFLO
      ~res_rep:Node.SWFLO ~fold:fold_div;
    prim "MAX$F" ~open_coded:(2, 2) ~timeless:true ~may_alloc:true ~commutative:true
      ~associative:true ~arg_rep:Node.SWFLO ~res_rep:Node.SWFLO;
    prim "MIN$F" ~open_coded:(2, 2) ~timeless:true ~may_alloc:true ~commutative:true
      ~associative:true ~arg_rep:Node.SWFLO ~res_rep:Node.SWFLO;
    flo1 "SQRT$F";
    flo1 "SIN$F";
    flo1 "COS$F";
    flo1 "SINC$F";
    flo1 "COSC$F";
    flo1 "EXP$F";
    flo1 "LOG$F";
    prim "ATAN$F" ~open_coded:(2, 2) ~timeless:true ~may_alloc:true ~arg_rep:Node.SWFLO
      ~res_rep:Node.SWFLO;
    prim "<$F" ~open_coded:(2, 2) ~timeless:true ~arg_rep:Node.SWFLO ~res_rep:Node.BIT;
    prim "=$F" ~open_coded:(2, 2) ~timeless:true ~arg_rep:Node.SWFLO ~res_rep:Node.BIT;
    (* type-specific fixnum operators *)
    prim "+&" ~open_coded:(1, 2) ~timeless:true ~commutative:true ~associative:true
      ~identity:(Sexp.Int 0) ~arg_rep:Node.SWFIX ~res_rep:Node.SWFIX
      ~fold:(fold_fix_nary N.add (N.of_int 0));
    prim "-&" ~open_coded:(1, 2) ~timeless:true ~arg_rep:Node.SWFIX ~res_rep:Node.SWFIX
      ~fold:fold_fix_sub;
    prim "*&" ~open_coded:(1, 2) ~timeless:true ~commutative:true ~associative:true
      ~identity:(Sexp.Int 1) ~arg_rep:Node.SWFIX ~res_rep:Node.SWFIX
      ~fold:(fold_fix_nary N.mul (N.of_int 1));
    prim "<&" ~open_coded:(2, 2) ~timeless:true ~arg_rep:Node.SWFIX ~res_rep:Node.BIT
      ~fold:(fold_chain ( < ));
    prim "=&" ~open_coded:(2, 2) ~timeless:true ~arg_rep:Node.SWFIX ~res_rep:Node.BIT
      ~fold:fold_num_eq;
    (* list structure *)
    prim "CONS" ~open_coded:(2, 2) ~stores_args:true ~may_alloc:true;
    prim "LIST" ~stores_args:true ~may_alloc:true;
    prim "LIST*" ~stores_args:true ~may_alloc:true;
    prim "APPEND" ~stores_args:true ~may_alloc:true;
    prim "REVERSE" ~stores_args:true ~may_alloc:true;
    prim "CAR" ~open_coded:(1, 1) ~fold:fold_car;
    prim "CDR" ~open_coded:(1, 1) ~fold:fold_cdr;
    prim "CAAR";
    prim "CADR";
    prim "CDAR";
    prim "CDDR";
    prim "CADDR";
    prim "LENGTH"
      ~fold:(guard (function
        | [ Sexp.List items ] -> Some (Sexp.Int (List.length items))
        | _ -> None));
    prim "NTH";
    prim "NTHCDR";
    prim "LAST";
    prim "ASSOC";
    prim "ASSQ";
    prim "MEMBER";
    prim "MEMQ";
    prim "COPY-LIST" ~may_alloc:true;
    prim "NCONC" ~pure:false;
    prim "REMOVE" ~may_alloc:true;
    prim "COUNT";
    prim "POSITION";
    prim "SUBST" ~may_alloc:true;
    prim "SORT" ~pure:false ~may_alloc:true;
    prim "RPLACA" ~stores_args:true ~pure:false;
    prim "RPLACD" ~stores_args:true ~pure:false;
    (* predicates *)
    prim "NULL" ~open_coded:(1, 1) ~timeless:true ~fold:fold_null;
    prim "NOT" ~open_coded:(1, 1) ~timeless:true ~fold:fold_not;
    prim "ATOM" ~timeless:true
      ~fold:(guard (function
        | [ Sexp.List (_ :: _) ] -> Some (bool_sexp false)
        | [ _ ] -> Some (bool_sexp true)
        | _ -> None));
    prim "CONSP" ~timeless:true;
    prim "LISTP" ~timeless:true;
    prim "SYMBOLP" ~timeless:true;
    prim "NUMBERP" ~timeless:true
      ~fold:(guard (fun args ->
          match args with [ a ] -> Some (bool_sexp (num_of_sexp a <> None)) | _ -> None));
    prim "INTEGERP" ~timeless:true;
    prim "FLOATP" ~timeless:true;
    prim "RATIONALP";
    prim "COMPLEXP";
    prim "STRINGP";
    prim "VECTORP";
    prim "FUNCTIONP";
    prim "EQ" ~open_coded:(2, 2) ~timeless:true;
    prim "EQL" ~open_coded:(2, 2) ~timeless:true;
    prim "EQUAL" ~open_coded:(2, 2);
    (* symbols: reading is impure-ish (depends on dynamic state) *)
    prim "SYMBOL-VALUE" ~pure:false;
    prim "SET" ~stores_args:true ~pure:false;
    prim "SYMBOL-FUNCTION" ~pure:false;
    prim "SYMBOL-NAME" ~may_alloc:true;
    prim "GENSYM" ~pure:false;
    prim "GET" ~pure:false;
    prim "PUTPROP" ~stores_args:true ~pure:false;
    (* vectors: reads depend on mutable state *)
    prim "MAKE-VECTOR" ~stores_args:true ~pure:false ~may_alloc:true;
    prim "VECTOR" ~stores_args:true ~pure:false ~may_alloc:true;
    prim "VECTOR-LENGTH";
    prim "AREF" ~pure:false;
    prim "ASET" ~stores_args:true ~pure:false;
    (* strings *)
    prim "STRING=";
    prim "STRING-APPEND" ~may_alloc:true;
    prim "STRING-LENGTH";
    (* control and io *)
    prim "FUNCALL" ~open_coded:(1, max_int) ~stores_args:true ~pure:false;
    prim "APPLY" ~stores_args:true ~pure:false;
    prim "MAPCAR" ~stores_args:true ~pure:false ~may_alloc:true;
    prim "MAPC" ~stores_args:true ~pure:false;
    prim "REDUCE" ~stores_args:true ~pure:false;
    prim "IDENTITY" ~timeless:true;
    prim "ERROR" ~transfers_control:true ~pure:false;
    prim "THROW" ~open_coded:(2, 2) ~stores_args:true ~transfers_control:true ~pure:false;
    prim "PRIN1" ~pure:false;
    prim "PRINC" ~pure:false;
    prim "PRINT" ~pure:false;
    prim "TERPRI" ~pure:false;
    prim "COMPLEX" ~may_alloc:true;
    prim "REALPART";
    prim "IMAGPART";
    prim "NUMERATOR";
    prim "DENOMINATOR";
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

(* Does the code generator compile this call inline at [nargs] arguments?
   Representation analysis and TN packing must judge exactly as the
   generator does: claiming the table's raw SWFLO result for a call that
   is really a native one made the pdl-number path read the tagged
   result word as float bits (found by the differential fuzzer for
   3-ary [-]). *)
let open_codes p nargs =
  match p.open_coded with Some (lo, hi) -> lo <= nargs && nargs <= hi | None -> false
