(** S-1 floating-point formats.

    The S-1 used a variant of the (then-draft) IEEE 754 format adapted to
    36-bit words, with half (18-bit), single (36-bit), double (72-bit) and
    twice (144-bit) widths.  We implement the single-word format exactly
    as a bit-level encoding (1 sign, 9 exponent, 26 fraction, bias 255,
    with infinities and NaN — the paper's "overflow/underflow/undefined"
    values), the half-word format (1/5/12, bias 15), and carry doubles as
    IEEE 64-bit values split across two 36-bit words.  Twice-precision is
    stored as a double plus a zero extension (sufficient for the compiler
    and benches; no S-1 software ever shipped that relied on the extra
    bits). *)

(** {1 Single-word floats (SWFLO)} *)

val encode_single : float -> int
(** Round an OCaml float to the nearest 36-bit S-1 single and return its
    word encoding.  Overflow encodes as infinity; NaN as the "undefined"
    value. *)

val decode_single : int -> float
(** Exact conversion of a 36-bit S-1 single to an OCaml float (every
    36-bit single is representable in IEEE double). *)

val single_of_float : float -> float
(** [decode_single (encode_single f)]: the rounding a store-to-memory
    performs. *)

(** {1 Half-word floats (HWFLO)} *)

val encode_half : float -> int
val decode_half : int -> float

(** {1 Double-word floats (DWFLO)} *)

val encode_double : float -> int * int
(** Split an IEEE double across two 36-bit words (high word first; low
    word holds the remaining 28 bits in its top). *)

val decode_double : int * int -> float

(** {1 The generic codec}

    Any [{ebits; fbits}] format, on [Float.frexp]/[Float.ldexp]: it is
    the half-word codec, and the reference the single-word fast path
    (which works on the IEEE bits) must match bit for bit. *)

type fmt = { ebits : int; fbits : int }

val single : fmt
val half : fmt
val encode : fmt -> float -> int
val decode : fmt -> int -> float

(** {1 Predicates} *)

val single_is_inf : int -> bool
