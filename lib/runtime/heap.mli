(** The garbage-collected Lisp heap, living inside simulated memory.

    Every heap object is a header word followed by its payload; Lisp
    pointers address the first payload word, so compiled code reaches
    [car] at offset 0 and [cdr] at offset 1 without knowing about headers.
    The header records an object kind, the payload size, and the mark bit.

    Collection is {b mark–sweep with conservative root scanning}: the
    roots are the machine registers, the control stack (which freely
    mixes Lisp pointers with raw "scratch" machine numbers — exactly the
    pdl-number situation of paper §6.3), the special-binding stack, the
    static region, and any extra roots the runtime registers (catch
    frames).  A word is treated as a pointer only if its tag, target
    range, and target header all agree, so raw floats that happen to
    alias a heap address can at worst retain garbage, never corrupt it.

    The paper's own collector was a multiprocessing-aware copying design
    (the [DTP-GC] forwarding tag); we substitute non-moving mark–sweep
    because compiled code keeps raw and tagged data indistinguishably in
    registers and stack slots, and a conservative non-moving collector is
    sound for that without register type maps.  [DTP-GC] survives here in
    its other Table 4 role: the stamp on scratch (non-pointer) stack
    words. *)

type kind =
  | Free
  | Cons
  | Symbol
  | Single
  | Double
  | Bignum_obj
  | Ratio_obj
  | Complex_obj
  | String_obj
  | Vector_obj
  | Closure_obj
  | Code_obj

val kind_of_int : int -> kind
val kind_to_int : kind -> int

type t

type stats = {
  mutable allocations : int;
  mutable words_allocated : int;  (** cumulative, the X4 bench metric *)
  mutable collections : int;
  mutable live_after_last_gc : int;
}

val create : S1_machine.Mem.t -> t
val stats : t -> stats
val mem : t -> S1_machine.Mem.t

val set_extra_roots : t -> (unit -> int list) -> unit
(** Additional root words supplied by the runtime (catch frames etc.). *)

val set_register_roots : t -> (unit -> int array) -> unit
(** The CPU register file, scanned conservatively at collection time. *)

val set_stack_tops : t -> (unit -> int * int) -> unit
(** Returns (SP, SB): current extents of the control and binding stacks. *)

val set_alloc_hook : t -> (int -> unit) -> unit
(** Called with each allocation's total words (header included); the
    runtime wires this to the CPU's call-path profiler so allocation
    volume gains call-path context. *)

exception Heap_exhausted of { requested : int }
(** Allocation failed even after a full collection.  The service layer
    converts this into a {!S1_machine.Cpu.Trap} so the embedding world
    survives; host-side allocation (constant interning) lets it
    propagate typed. *)

val alloc : t -> kind -> int -> int
(** [alloc h kind nwords] returns the payload address of a fresh object
    with zeroed payload, collecting if needed.
    @raise Heap_exhausted when the heap is full even after collection. *)

val header_kind : t -> int -> kind
(** Kind of the object whose payload starts at the given address. *)

val collect : t -> unit
(** Force a full collection. *)

val live_words : t -> int
(** Words currently allocated to live (reachable at last GC or since
    allocated) objects, headers included. *)

val is_valid_object : t -> int -> bool
(** Does this address look like a current heap object payload? (used by
    conservative scanning and by tests). *)
