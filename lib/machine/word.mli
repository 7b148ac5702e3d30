(** 36-bit machine words.

    The S-1 has 36-bit words, quarter-word (9-bit byte) addressable.  We
    carry words in OCaml [int]s with only the low 36 bits significant.
    Arithmetic wraps modulo 2^36 (two's complement).  A word interpreted
    as a Lisp value is a 5-bit tag (bits 31..35) plus a 31-bit datum
    (bits 0..30): either a virtual address or an immediate. *)

val bits : int            (** 36 *)

val mask : int            (** 2^36 - 1 *)

val addr_mask : int       (** 2^31 - 1 *)

val of_int : int -> int
(** Truncate an OCaml int to a 36-bit word (two's complement wraparound). *)

val to_signed : int -> int
(** Sign-extend a 36-bit word to an OCaml int. *)

val add : int -> int -> int
val sub : int -> int -> int
val mul : int -> int -> int
val neg : int -> int
(** Wrapping 36-bit arithmetic. *)

val logand : int -> int -> int
val logor : int -> int -> int
val logxor : int -> int -> int
val lognot : int -> int
val shift : int -> int -> int
(** [shift w n] shifts left for positive [n], arithmetic-right for
    negative [n], within 36 bits. *)

(** {1 Tagged-pointer layout} *)

val make_ptr : tag:int -> addr:int -> int
(** Pack a 5-bit tag and 31-bit address into a word. *)

val tag_of : int -> int
(** Extract bits 31..35. *)

val addr_of : int -> int
(** Extract bits 0..30 (unsigned address/datum field). *)

val datum_signed : int -> int
(** Extract the 31-bit datum field, sign-extended (for immediate fixnums). *)

val fixnum_min : int
val fixnum_max : int
(** Range of an immediate 31-bit fixnum datum. *)

val pp : Format.formatter -> int -> unit
(** Octal word rendering, the PDP-10/S-1 house style. *)
