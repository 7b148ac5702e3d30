(** Surface syntax of the S-1 Lisp dialect: s-expressions.

    This is the representation produced by {!Reader} and consumed by the
    compiler front end.  It is purely syntactic: symbols are uninterned
    strings, numbers carry their literal precision, and list structure is
    ordinary OCaml lists (with an explicit constructor for dotted pairs,
    which are rare in source programs but legal). *)

(** Floating-point literal precision markers, mirroring the S-1's four
    float widths (Table 3 of the paper: HWFLO/SWFLO/DWFLO/TWFLO). Literal
    syntax: [1.5h0], [1.5] or [1.5s0], [1.5d0], [1.5t0]. *)
type float_prec = Half | Single | Double | Twice

type t =
  | Sym of string                 (** symbol, case-preserved but upcased on read *)
  | Int of int                    (** fixnum-size integer literal *)
  | Big of string                 (** integer literal exceeding fixnum range, decimal digits *)
  | Ratio of int * int            (** e.g. [2/3]; normalized sign on read *)
  | Float of float * float_prec   (** float literal with precision marker *)
  | Str of string                 (** double-quoted string *)
  | Char of char                  (** [#\a] character literal *)
  | List of t list                (** proper list *)
  | Dotted of t list * t          (** improper list: at least one element, then tail *)

val equal : t -> t -> bool
(** Structural equality ([Float] compares by bit pattern and precision). *)

val compare : t -> t -> int

(** {1 Convenience constructors} *)

val sym : string -> t
val int : int -> t
val flo : float -> t
val list : t list -> t
val quote : t -> t             (** [quote x] is [(quote x)] *)

val t_bool : bool -> t
(** [t_bool b] is the symbol [T] or the empty list [()] (Lisp NIL). *)

val nil : t
(** The empty list, Lisp's false. *)

val is_nil : t -> bool

(** {1 Accessors} *)

val uncons : t -> (t * t) option
(** [uncons s] views a (proper or dotted) nonempty list as car/cdr. *)


val pp : Format.formatter -> t -> unit
(** Pretty-print with standard Lisp conventions: quote sugar, upcased
    symbols, precision-suffixed floats.  Inverse of {!Reader.parse_string}
    up to whitespace. *)

val to_string : t -> string
