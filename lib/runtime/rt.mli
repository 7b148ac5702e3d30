(** The runtime system: a booted S-1 Lisp world.

    [Rt.t] owns the simulated machine, the heap, the obarray, the
    deep-binding stack, the catch-frame stack and the system-service
    handlers.  Both halves of the repo sit on top of it: the reference
    interpreter evaluates directly against it, and compiled code runs on
    its CPU reaching it through [SVC] traps — which is what lets the test
    suite differentially compare the two. *)

type t = {
  cpu : S1_machine.Cpu.t;
  mem : S1_machine.Mem.t;
  heap : Heap.t;
  obj : Obj.t;
  nil : int;
  t_ : int;  (** the symbol T, whose global value is itself *)
  mutable obarray : (string, int) Hashtbl.t;
  mutable macros : (string, int) Hashtbl.t;
      (** DEFMACRO expanders: macro name -> function word, compiled or
          interpreted; one table for every engine over this world *)
  mutable catches : catch_frame list;
  mutable protected : int list;  (** extra GC roots held by OCaml-side code *)
  mutable engine_roots : unit -> int list;
      (** further GC roots an engine over this world holds (the
          interpreter's constants and closure environments) *)
  out : Buffer.t;  (** sink for PRINT and friends *)
  mutable gensym_counter : int;
  mutable fuel : int option;
      (** per-call simulator cycle budget override ([None] = CPU
          default); capped by the differential fuzzer so miscompiled
          non-termination surfaces as a finding *)
}

and catch_frame = {
  c_tag : int;
  c_sp : int;
  c_fp : int;
  c_tp : int;
  c_env : int;
  c_sb : int;
  c_handler : int;  (** code address to resume at; thrown value in register A *)
  c_catches_below : int;  (** catch-stack depth below this frame *)
}

exception Lisp_error of string
(** Lisp-level error conditions (wrong type, unbound variable, ...);
    raised out of the simulator by error services and by runtime
    primitives. *)

exception Thrown of int * int
(** (tag, value): a THROW whose innermost matching catch frame is an
    interpreter marker ([c_handler = -1]).  The interpreter's catch
    consumes it; see {!do_throw}. *)

val do_throw : t -> int -> int -> unit
(** Unwind to the innermost catch whose tag is [eq] to the first
    argument: redirect the simulator to a compiled handler, or raise
    {!Thrown} for an interpreter marker.
    @raise Lisp_error when no catch frame matches. *)

val frame_args : t -> int list
(** Arguments of the currently executing CALL frame (for native
    handlers). *)

val certify_word : t -> int -> int
(** Pointer certification (§6.3): heap-copy a number box that lives on
    the control stack (a pdl number); all other values pass through. *)

(** {1 Freeze and thaw}

    An immutable copy of what loading code, interning names and
    defining macros write into a world.  Boot images ([Interp.boot],
    through [create ~from]) and transactional image replay
    ([Serve.execute_in]) are both this pair. *)

type frozen = {
  f_static : int array;  (** static words, base to allocation pointer *)
  f_code : S1_machine.Isa.instr array;  (** the code store up to its end *)
  f_symbols : (int * int * string) list;
  f_segments : (int * int * S1_machine.Asm.mark array) list;
  f_obarray : (string, int) Hashtbl.t;  (** a private copy, never mutated *)
  f_macros : (string, int) Hashtbl.t;  (** likewise *)
  f_gensym : int;
}

val freeze : t -> frozen

val thaw : t -> frozen -> unit
(** Rewrite the world a state was frozen from, or any world of the same
    memory configuration, to that state, leaving heap,
    stacks and registers alone.  The obarray keeps its iteration order. *)

val create : ?config:S1_machine.Mem.config -> ?from:frozen -> unit -> t
(** Boot a fresh world: NIL and T, service handlers, GC root hooks.
    (Standard-library functions are installed by {!Builtins.boot}.)
    With [from], a state frozen from a world of the same memory
    configuration, the world starts as {!thaw} would leave it, without
    first building the tables and T that thawing replaces. *)

(** {1 Symbols} *)

val intern : t -> string -> int
val find_symbol : t -> string -> int option
val gensym : t -> string -> int
val symbol_name : t -> int -> string

(** {1 Conversion to and from surface syntax} *)

val sexp_to_value : ?where:Obj.where -> t -> S1_sexp.Sexp.t -> int
val value_to_sexp : t -> int -> S1_sexp.Sexp.t
(** Best effort: functions and closures render as [#<...>] symbols. *)

val print_value : t -> int -> string
(** [prin1]-style readable printing. *)

val princ_value : t -> int -> string
(** [princ]-style: strings unquoted, characters raw. *)

(** {1 Predicates} *)

val truthy : t -> int -> bool
val bool_word : t -> bool -> int
val eq : t -> int -> int -> bool
val eql : t -> int -> int -> bool
val equal : t -> int -> int -> bool

(** {1 Special variables (deep binding)} *)

val bind_special : t -> int -> int -> unit
val unbind_specials : t -> int -> unit
(** Pop [n] bindings. *)

val lookup_special_cell : t -> int -> int
(** Address of the innermost binding's value cell, or of the symbol's
    global cell — the address compiled code caches (paper §4.4). *)

val symbol_value_dynamic : t -> int -> int
(** @raise Lisp_error when unbound. *)

val set_symbol_value_dynamic : t -> int -> int -> unit
val proclaim_special : t -> int -> unit

(** {1 Functions} *)

val set_function : t -> int -> int -> unit
(** [set_function rt symbol fobj]. *)

val function_of : t -> int -> int
(** Contents of a symbol's function cell. @raise Lisp_error if undefined. *)

val register_native : name:string -> min_args:int -> max_args:int ->
  (t -> int list -> int) -> int
(** Register an OCaml function as a native service with arity checking,
    for every world, and return its service id.  Handlers receive their
    world, so one registration per process serves all of them. *)

val install_native : t -> name:string -> svc:int -> min_args:int -> max_args:int -> unit
(** Load a [SVC]+[RET] stub for a registered native into this world and
    install it in the symbol's function cell. *)

val call : t -> int -> int list -> int
(** Invoke a Lisp function object on argument words, running the
    simulator; safe to use reentrantly from native handlers (FUNCALL,
    MAPCAR). *)

val with_deadline : t -> cycles:int -> (unit -> 'a) -> 'a
(** Arm the CPU watchdog ({!S1_machine.Cpu.t.deadline}) for the dynamic
    extent of the thunk: a cumulative cycle budget over every nested
    simulator run (macroexpanders, DEFVAR initializers, toplevel
    effects).  Expiry raises a {!S1_machine.Cpu.Trap} with kind
    [Deadline_expired].  Nests conservatively — an enclosing tighter
    deadline stays in force. *)

(** {1 GC protection} *)

val protect : t -> int -> unit
val with_protected : t -> int list -> (unit -> 'a) -> 'a
(** Roots for values a native holds across allocations. *)

(** {1 Output} *)

val output : t -> string
val clear_output : t -> unit
