(** Simulated data memory: one flat 36-bit-word address space divided into
    regions.

    - {b SQ page}: system quantities at fixed low addresses (NIL, T, the
      service linkage constants) — the paper's [(SQ *:SQ-...)] operands.
    - {b static}: assembler data blocks and load-time (quoted) constants;
      scanned but never moved by the collector.
    - {b heap}: the garbage-collected region, a non-moving mark–sweep
      heap with bump allocation and a free list, managed by the runtime.
    - {b stack}: the control stack, growing upward.  Pointer
      {e certification} (paper §6.3) is exactly [is_stack_addr].
    - {b bind}: the deep-binding special-variable stack.

    The address space is demand-paged in 1K-word pages: every page reads
    as zero until its first write gives it its own storage, so a memory
    costs the pages written, not its {!size}.  Addresses, region bounds
    and range failures do not depend on paging. *)

type config = {
  sq_words : int;
  static_words : int;
  heap_words : int;
  stack_words : int;
  bind_words : int;
}

val default_config : config

type t

val create : ?config:config -> unit -> t
val config : t -> config

val id : t -> int
(** Process-unique identity, for cheap keying of per-memory tables. *)

val read : t -> int -> int
val write : t -> int -> int -> unit
(** Bounds-checked word access. @raise Failure on out-of-range address. *)

val size : t -> int

(** {1 Region geometry} *)

val static_base : t -> int
val static_limit : t -> int
val heap_base : t -> int
val heap_limit : t -> int
val stack_base : t -> int
val stack_limit : t -> int
val bind_base : t -> int
val bind_limit : t -> int

val is_stack_addr : t -> int -> bool
(** True when the address lies in the control-stack region — an "unsafe"
    (pdl) pointer target. *)


(** {1 Static allocation}

    Bump allocation in the static region, used by the loader for
    assembler data blocks and immortal quoted constants. *)

val alloc_static : t -> int -> int
(** [alloc_static m n] reserves [n] words, returns the base address.
    @raise Failure when the static region is exhausted. *)

val static_used : t -> int

(** {1 Transactional loads}

    A failed image load must be a clean no-op on the world: take a
    snapshot before replaying, restore it after a trap.  Restoring
    rewrites the live static words and the allocation pointer, so
    re-interning the same symbols afterwards lands at the same
    addresses — byte-determinism survives the rollback. *)

val static_snapshot : t -> int array
(** Copy of the live static words (base up to the allocation pointer). *)

val static_restore : t -> int array -> unit
(** Rewrite the live static words and allocation pointer from a
    {!static_snapshot}, zeroing the words it rolls back above the
    snapshot's end.  @raise Failure if larger than the region. *)
