(** Arbitrary-precision integers.

    S-1 Lisp provides "integers of indefinite size" (paper §2); fixnums
    that overflow the 31-bit immediate datum spill into heap-allocated
    bignums.  This is a self-contained implementation (sign + magnitude in
    base 2^30 little-endian digit arrays) — the sealed environment has no
    zarith, and the compiler pipeline needs exact integer arithmetic for
    constant folding as well.

    Division here truncates toward zero; the Lisp-level floor/ceiling/
    round flavours are derived in {!Numerics}. *)

type t

val zero : t
val one : t

val of_int : int -> t
val to_int_opt : t -> int option
(** [None] when the value exceeds OCaml's native int range. *)

val of_string : string -> t
(** Decimal, with optional leading sign. @raise Invalid_argument on junk. *)

val to_string : t -> string

val of_float : float -> t
(** Truncates toward zero. @raise Invalid_argument on NaN/infinity. *)

val to_float : t -> float

val compare : t -> t -> int
val equal : t -> t -> bool
val sign : t -> int
val is_zero : t -> bool
val is_even : t -> bool

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

val divmod : t -> t -> t * t
(** Truncating division: [divmod a b] is [(q, r)] with [a = q*b + r],
    [|r| < |b|], and [r] carrying the sign of [a].
    @raise Division_by_zero *)

val gcd : t -> t -> t
(** Non-negative gcd; [gcd 0 0 = 0]. *)

val shift_left : t -> int -> t

val fits_fixnum : t -> bool
(** Does the value fit the 31-bit immediate fixnum datum? *)

val digits : t -> int array
(** Little-endian base-2^30 magnitude digits (no leading zeros; empty for
    zero).  Used to serialize into heap words. *)

val of_digits : sign:int -> int array -> t
(** Inverse of {!digits} (normalizes). *)

val pp : Format.formatter -> t -> unit
