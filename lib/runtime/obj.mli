(** Lisp object representations over simulated memory.

    Every Lisp value is one 36-bit word: a 5-bit tag plus either an
    immediate datum (fixnums, characters, half-floats) or the address of
    a payload in heap or static memory.  Layouts (word offsets within the
    payload):

    - cons: \[0\] car, \[1\] cdr
    - symbol: \[0\] print-name (string), \[1\] global value cell,
      \[2\] function cell, \[3\] property list, \[4\] flags (bit 0:
      proclaimed special)
    - single flonum: \[0\] raw SWFLO word
    - double flonum: \[0\]\[1\] raw DWFLO pair
    - bignum: \[0\] raw sign (0 or 1), \[1..\] base-2^30 digits
    - ratio: \[0\] numerator, \[1\] denominator (integers, normalized)
    - complex: \[0\] real part, \[1\] imaginary part
    - string: \[0\] raw character count, then 4 nine-bit bytes per word
    - vector: \[0\] raw length, \[1..\] elements
    - closure: \[0\] code object word, \[1\] environment
    - code: \[0\] raw entry address, \[1\] name, \[2\] raw min args,
      \[3\] raw max args (-1 = &rest)

    Objects allocated with [where = `Static] are immortal and live in the
    static region (symbols, quoted constants); [`Heap] objects are
    collected. *)

type where = [ `Heap | `Static ]

type t = {
  mem : S1_machine.Mem.t;
  heap : Heap.t;
  nil : int;  (** the NIL word; its car and cdr read as NIL *)
}

val create : S1_machine.Mem.t -> Heap.t -> t

(** {1 Immediates} *)

val fixnum : int -> int
(** @raise Invalid_argument outside the 31-bit immediate range. *)

val fixnum_value : int -> int
val is_fixnum : int -> bool
val char_ : char -> int
val char_value : int -> char
val unbound : int

val tag_of : int -> S1_machine.Tags.t

(** {1 Conses} *)

val cons : ?where:where -> t -> int -> int -> int
val car : t -> int -> int
val cdr : t -> int -> int
val set_car : t -> int -> int -> unit
val set_cdr : t -> int -> int -> unit
val is_cons : t -> int -> bool
val is_nil : t -> int -> bool
val list_of : ?where:where -> t -> int list -> int
val to_list : t -> int -> int list
(** @raise Failure on dotted/circular structure beyond a large bound. *)

(** {1 Numbers} *)

val single : ?where:where -> t -> float -> int
val single_word : ?where:where -> t -> int -> int  (** a single flonum holding this SWFLO word *)

val single_value : t -> int -> float
val double : ?where:where -> t -> float -> int
val double_value : t -> int -> float
val bignum : ?where:where -> t -> Bignum.t -> int
val bignum_value : t -> int -> Bignum.t
val integer : ?where:where -> t -> Bignum.t -> int
(** Fixnum if it fits, else a bignum object. *)

val ratio : ?where:where -> t -> int -> int -> int
(** Numerator and denominator {e words} (already normalized). *)

val ratio_parts : t -> int -> int * int
val complex : ?where:where -> t -> int -> int -> int
val complex_parts : t -> int -> int * int

(** {1 Strings and vectors} *)

val string_ : ?where:where -> t -> string -> int
val string_value : t -> int -> string
val vector : ?where:where -> t -> int array -> int
val vector_length : t -> int -> int
val vector_ref : t -> int -> int -> int
val vector_set : t -> int -> int -> int -> unit

(** {1 Symbols} *)

val symbol : t -> string -> int
(** Allocate an {e uninterned} symbol (static).  Interning lives in
    {!Rt}. *)

val symbol_name : t -> int -> string
val symbol_value_cell : t -> int -> int
(** Address of the global value cell. *)

val symbol_function_cell : t -> int -> int
val symbol_plist_cell : t -> int -> int
val symbol_is_special : t -> int -> bool
val symbol_set_special : t -> int -> unit

(** {1 Functions} *)

val code : ?where:where -> t -> entry:int -> name:int -> min_args:int -> max_args:int -> int
(** [max_args = -1] means &rest. *)

val code_entry : t -> int -> int
val code_name : t -> int -> int
val code_min_args : t -> int -> int
val code_max_args : t -> int -> int
val closure : ?where:where -> t -> code:int -> env:int -> int
val closure_code : t -> int -> int
val closure_env : t -> int -> int
