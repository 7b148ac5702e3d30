(** Reader: parse s-expression surface syntax into {!Sexp.t}.

    Supports the classic Lisp reader conveniences used in the paper's
    examples:
    - ['x] for [(QUOTE x)], [#'f] for [(FUNCTION f)]
    - [`x], [,x], [,@x] for [(QUASIQUOTE x)] / [(UNQUOTE x)] /
      [(UNQUOTE-SPLICING x)] (expanded away by the front end)
    - [;] line comments and [#| ... |#] block comments
    - integer, ratio ([2/3]) and float literals with precision suffixes
      ([1.5h0], [1.5] / [1.5s0] / [1.5e3], [1.5d0], [1.5t0])
    - [#\c] character literals and ["..."] strings
    - dotted lists [(a b . c)]

    Symbols are upcased on read (traditional Lisp behaviour; the paper's
    transcripts print upper case). *)

type error = { line : int; col : int; message : string }

exception Parse_error of error

val parse_string : string -> Sexp.t list
(** Parse every form in the string. Raises {!Parse_error}. *)

(** {1 Located parsing}

    [parse_string_located] additionally returns a side table mapping
    every parsed form (and subform) to its 1-based [line:col] position.
    The table is keyed by {e physical} identity — the reader allocates
    every [Sexp.t] fresh, so the association is unambiguous.  Later
    stages (the macro expander) may [add_loc] further entries to
    propagate an original form's position onto a rewritten form. *)

type loctab

val create_loctab : ?file:string -> unit -> loctab
val find_loc : loctab -> Sexp.t -> S1_loc.Loc.t option

val add_loc : loctab -> Sexp.t -> S1_loc.Loc.t -> unit
(** First association wins; adding a location for a form that already
    has one is a no-op. *)

val parse_string_located : ?file:string -> string -> Sexp.t list * loctab
(** Parse every form, recording positions under [file] (default
    ["<string>"]). Raises {!Parse_error}. *)

val parse_one : string -> Sexp.t
(** Parse exactly one form; error when the input holds zero or >1 forms. *)

val fixnum_min : int
val fixnum_max : int
(** Bounds of a 36-bit two's complement fixnum; integer literals outside
    this range read as {!Sexp.Big}. *)
