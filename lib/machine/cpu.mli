(** The S-1 simulator: a closure-threaded interpreter with a cycle cost
    model and execution statistics.

    Code lives in a growable instruction store indexed by "code address"
    (one slot per instruction; {!Isa.words} models the fetch-width cost).
    The first fetch of a slot decodes its instruction into an OCaml
    closure with its operands, jump target and cycle charge resolved;
    later fetches run the closure.  Data, stacks and the Lisp heap live
    in a {!Mem.t}.

    The Lisp function-call convention is microcoded in [CALL]/[TCALL]/
    [RET] (standing in for the paper's [%SETUP]/[%CALL] macro expansions):

    - caller pushes arguments left to right, then [CALL fobj n];
    - [CALL] sets RTA := n (the "procedure interface information" of
      Table 4), pushes the linkage \[ret, saved FP, saved TP, saved ENV,
      n\], sets FP to the top of the linkage, loads ENV from closure
      objects, and jumps;
    - argument [i] (1-based) of an [n]-argument frame is [M(FP-5-n+i)];
    - the callee leaves its result in register {!Isa.a}; [RET] unwinds;
    - [TCALL] rewrites the current frame in place (the paper's
      tail-recursive calls compiling to "parameter-passing gotos"),
      giving O(1) stack for tail recursion — measured by test X1. *)

type stats = {
  mutable cycles : int;
  mutable instructions : int;
  mutable movs : int;  (** MOV count — the §6.1 metric *)
  mutable mem_traffic : int;
  mutable calls : int;
  mutable tcalls : int;
  mutable svcs : int;
  mutable stack_high : int;  (** high-water mark of SP, words above stack base *)
  mutable bind_high : int;
      (** high-water mark of the special-binding (deep-binding) stack,
          words above bind base — maintained by the runtime's
          [bind_special] *)
}

type profile = {
  mutable p_cycles : int array;  (** cycles attributed per code address *)
  mutable p_instrs : int array;
  mutable p_movs : int array;
  p_opcodes : (string, int) Hashtbl.t;  (** mnemonic -> executions *)
  p_entry_calls : (int, int) Hashtbl.t;  (** entry pc -> CALL/TCALL count *)
}

type cg_frame = {
  fr_name : string;
  fr_fp : int;  (** machine FP of the mirrored frame; [min_int] for the root *)
  fr_prev_path : string;  (** call path below this frame (O(1) pop) *)
}

type cg_edge = { mutable e_calls : int; mutable e_tcalls : int }

(** The call-path profiler's state: a shadow call stack mirroring the
    machine's frame chain (tail calls {e replace} the top frame), with
    per-call-path exclusive-cycle counters, a caller→callee edge table,
    and per-path heap-allocation totals.  See {!enable_callgraph}. *)
type callgraph = {
  mutable cg_stack : cg_frame list;  (** top first; the root is never popped *)
  mutable cg_path : string;  (** ";"-joined frame names, root first *)
  mutable cg_cell : int ref;  (** cached counter of [cg_path] *)
  mutable cg_charged : int;  (** [stats.cycles] already attributed to a path *)
  cg_paths : (string, int ref) Hashtbl.t;
  cg_edges : (string * string, cg_edge) Hashtbl.t;
  cg_alloc : (string, int ref) Hashtbl.t;
  mutable cg_depth : int;
  mutable cg_depth_high : int;
}

type t = {
  mem : Mem.t;
  mutable code : Isa.instr array;
      (** written only by {!load}; a slot's decoded closure in [ops] is
          valid until {!code_release} drops it *)
  mutable ops : (t -> unit) array;
      (** decoded [code]; grows on demand, never past [code]'s length *)
  mutable code_len : int;
  regs : int array;
  mutable pc : int;
  mutable halted : bool;
  stats : stats;
  mutable service : t -> int -> unit;  (** runtime service trap handler *)
  mutable bad_function_svc : int;  (** service invoked by CALL on a non-function *)
  mutable profile : profile option;  (** per-PC attribution; None = off (zero cost) *)
  mutable callgraph : callgraph option;  (** call-path attribution; None = off *)
  mutable symbols : (int * int * string) list;
      (** (lo, hi, name): loaded code ranges, hi exclusive; newest first *)
  mutable mark_segments : (int * int * Asm.mark array) list;
      (** (lo, hi, marks): PC line maps per loaded image, hi exclusive;
          lookups never cross a segment boundary *)
  mutable deadline : int option;
      (** watchdog: absolute [stats.cycles] value past which any {!run}
          — nested re-entries from macroexpanders and toplevel effects
          included — traps {!Deadline_expired}.  A cumulative per-job
          budget, unlike the per-run [fuel] allowance. *)
}

(** {1 Traps}

    Machine faults are structured: a kind (so embedders can distinguish
    recoverable resource exhaustion from a corrupt program), the faulting
    pc, and the source position of the faulting instruction when the code
    was loaded with a PC line map. *)

type trap_kind =
  | Control_stack_overflow
  | Control_stack_underflow
  | Bind_stack_overflow  (** special-binding (deep-binding) stack full *)
  | Heap_exhaustion  (** allocation failed even after a full GC *)
  | Fuel_exhaustion
  | Deadline_expired
      (** the cumulative cycle watchdog ({!t.deadline}) expired — the
          supervised compile service's per-unit deadline *)
  | Illegal_instruction  (** unresolved label, malformed operand *)
  | Bad_address  (** pc or memory access outside the mapped regions *)
  | Wrong_type  (** value of the wrong representation reached a raw op *)
  | Machine_check  (** residual machine faults (division by zero, ...) *)

val trap_kind_name : trap_kind -> string
(** Stable kebab-case name, used in messages and metrics. *)

exception
  Trap of { kind : trap_kind; pc : int; message : string; loc : S1_loc.Loc.t option }

val trap : t -> trap_kind -> ('a, unit, string, 'b) format4 -> 'a
(** Raise a {!Trap} at the current pc, resolving [loc] through
    {!provenance_at}.  Exposed so runtime services can signal
    machine-level faults (heap, bind stack) uniformly. *)

val trap_message : exn -> string option
(** One-line rendering of a {!Trap}, [None] for other exceptions. *)

val create : ?mem:Mem.t -> unit -> t

val load : t -> Asm.program -> Asm.image
(** Assemble at the current end of the code store and install. *)

val label_addr : Asm.image -> string -> int

val reset_stats : t -> unit
val reset_stack : t -> unit
(** Reset SP/FP/TP to the stack base (fresh activation). *)

val get_reg : t -> Isa.reg -> int
val set_reg : t -> Isa.reg -> int -> unit

val push : t -> int -> unit
val pop : t -> int
(** The stack operations CALL uses, exposed for runtime services. *)

val run : ?fuel:int -> t -> at:int -> unit
(** Start execution at a code address and run to [Halt].  Whether the
    run attributes cycles to the profiler and call graph is decided once,
    at entry, from {!profiling} and {!callgraph_on}.
    @raise Trap on machine faults, when fuel (default 500M cycles) is
    exhausted, or with kind {!Deadline_expired} when the cumulative
    watchdog ({!t.deadline}) fires first. *)

val code_mark : t -> int
(** Current end of the code store; pass to {!code_release} to roll a
    failed load back. *)

val code_release : t -> int -> unit
(** Truncate the code store to a {!code_mark}, dropping symbol ranges,
    PC line maps and decoded closures past it, so a re-load lands at the
    same addresses with the same provenance. *)

val call_function : ?fuel:int -> t -> fobj:int -> args:int list -> int
(** Host-side entry: push [args], [CALL] the function object, run until
    it returns, and return the word left in register {!Isa.a}.  Used by
    the REPL, examples, tests and benches. *)

val pp_stats : Format.formatter -> stats -> unit

(** {1 Profiling}

    With profiling enabled, {!run} attributes every cycle and
    instruction to the fetched PC, and [CALL]/[TCALL] count arrivals per
    entry address.  {!add_symbol} names loaded code ranges (the compiler
    driver and the runtime's native stubs register every function they
    load) so {!profile_by_function} can fold the PC-level tables into a
    hottest-functions table. *)

val enable_profile : t -> unit
val profiling : t -> bool
val reset_profile : t -> unit
(** Zero the attribution tables (keeps profiling enabled). *)

val add_symbol : t -> lo:int -> hi:int -> name:string -> unit
val symbol_at : t -> int -> string option

type func_profile = {
  f_name : string;
  f_entry : int;  (** lowest loaded code address of the symbol; [max_int] for "?" *)
  f_cycles : int;
  f_instructions : int;
  f_movs : int;
  f_calls : int;
}

val profile_by_function : t -> func_profile list
(** Sorted by cycles descending, ties broken by entry address then name
    (byte-deterministic); unsymbolized code pools under ["?"]. *)

(** {1 Call-path profiling}

    With the callgraph enabled, the CALL/TCALL/RET microcode maintains a
    shadow call stack and {!run} attributes every cycle to the full
    call path current at fetch time (so a CALL's own cycles charge to
    the caller).  Invariants:

    - a tail call replaces the top shadow frame: tail recursion adds no
      shadow depth, mirroring the machine's O(1)-stack tail calls;
    - a CATCH/THROW unwind pops exactly the shadow frames whose machine
      FP lies above the catch target ({!shadow_unwind_to});
    - the exclusive cycles of all paths sum to exactly [stats.cycles]
      when stats and callgraph were reset together, nested host
      re-entries included. *)

val enable_callgraph : t -> unit
val callgraph_on : t -> bool

val reset_callgraph : t -> unit
(** Fresh attribution tables and a root-only shadow stack (keeps the
    callgraph enabled).  Only meaningful between toplevel calls. *)

val shadow_path : t -> string
(** The current call path (";"-joined, root first); [""] when off. *)

val shadow_depth : t -> int
(** Current shadow-stack depth (the root counts); [0] when off. *)

val shadow_depth_high : t -> int

val shadow_push : t -> string -> unit
(** Push a synthetic frame for a host-side boundary (native service
    handler, [Rt.call] re-entry); popped by {!shadow_truncate}, not RET. *)

val shadow_truncate : t -> int -> unit
(** Pop frames until the depth is back to the given value (the root
    always survives).  No-op if already at or below it. *)

val shadow_unwind_to : t -> fp:int -> unit
(** Pop every frame whose machine FP is strictly above [fp] — the
    CATCH/THROW unwind, which bypasses the RETs of abandoned frames. *)

val shadow_charge_alloc : t -> int -> unit
(** Attribute heap words to the current call path (wired to the heap's
    allocation hook by [Rt.create]). *)

val folded_stacks : t -> (string * int) list
(** Call paths with nonzero exclusive cycles, sorted by path — the
    flamegraph folded-stack collapse ("f;g;h 1234"). *)

val folded_alloc : t -> (string * int) list
(** Heap words allocated per call path, sorted by path. *)

val render_folded : t -> string
(** {!folded_stacks} as newline-terminated "path count" lines. *)

val inclusive_cycles : t -> name:string -> int
(** Total cycles of paths the function appears on (once per path). *)

type edge_profile = {
  ep_caller : string;
  ep_callee : string;
  ep_calls : int;
  ep_tcalls : int;
  ep_incl_cycles : int;  (** cycles of paths containing the edge *)
  ep_excl_cycles : int;  (** cycles of paths whose leaf is the edge *)
}

val call_edges : t -> edge_profile list
(** The gprof-style caller→callee table, sorted by inclusive cycles
    descending, ties by names (byte-deterministic). *)

(** {1 Provenance}

    Loaded images carry a PC line map ({!Asm.image.marks}); the profiler
    joins its per-PC attribution against it to report hottest source
    lines and hottest IR nodes. *)

val provenance_at : t -> int -> Asm.mark option
(** The mark covering a code address: greatest [m_addr <= pc] within the
    image that contains [pc]; [None] for unmapped code (runtime stubs,
    hand-assembled programs). *)

type line_profile = {
  ln_file : string;  (** ["(runtime)"] for unmapped code, ["(no-source)"] for unlocated nodes *)
  ln_line : int;  (** 0 for the two synthetic buckets *)
  ln_cycles : int;
  ln_instructions : int;
  ln_movs : int;
}

val profile_by_line : t -> line_profile list
(** Per-PC attribution folded by source line, descending by cycles.
    Every executed PC lands in exactly one bucket, so cycle totals sum
    to [stats.cycles] when stats and profile were reset together. *)

type node_profile = {
  np_node : int;  (** IR node id; -1 for unmapped code *)
  np_loc : S1_loc.Loc.t option;
  np_cycles : int;
  np_instructions : int;
}

val profile_by_node : t -> node_profile list
(** Per-PC attribution folded by generating IR node, descending by cycles. *)

val opcode_histogram : t -> (string * int) list
(** Executions per opcode family, descending. *)

val pp_profile : Format.formatter -> t -> unit
