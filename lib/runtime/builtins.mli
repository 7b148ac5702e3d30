(** The standard library: Lisp primitives implemented as native code
    objects.

    Each builtin is an OCaml function registered once per process as a
    native service ({!Rt.register_native}); each boot from scratch loads
    a callable code object (a [SVC]+[RET] stub) for it into the symbol's
    function cell ({!Rt.install_native}); [Interp.boot] clones the rest.
    Compiled code and the interpreter reach the
    same implementations, so the two agree bit-for-bit on library
    semantics.

    The set covers the MACLISP-family core the paper's examples use:
    list structure, predicates, the full generic arithmetic tower, the
    type-specific operators ([+$f], [*$f], [sin$f], [sinc$f], [+&], …)
    of paper §6.2, property lists, vectors, [funcall]/[apply]/[mapcar],
    and printing. *)

val boot : ?config:S1_machine.Mem.config -> unit -> Rt.t
(** Create a runtime with all builtins installed, from scratch. *)

val names : unit -> string list
(** All builtin function names (upper case); populated by the first
    boot. *)
