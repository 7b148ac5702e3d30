(** The simulated S-1-like instruction set.

    This models the architectural features the paper's compiler actually
    exploits (§3):

    - 36-bit words; values are 5-bit tag + 31-bit address/datum.
    - 32 general-purpose registers, some with conventional roles.
    - "2½-address" arithmetic: a three-operand form is only encodable if
      the destination or the first source is one of the two RT registers
      (RTA = R4, RTB = R6).  {!validate} enforces this, which is what
      makes the TNBIND RT-register dance observable in this repo.
    - rich addressing modes including one level of pointer deference
      (used to dereference Lisp number pointers directly in operands);
    - tagged-pointer construction in one instruction ([MOVP]);
    - floating-point arithmetic including [FSIN]/[FCOS] (argument in
      {e cycles}, not radians — hence the compiler's sin→sinc rewrite),
      [FSQRT], [FMAX], [FEXP], [FLOG], [FATAN];
    - sixteen rounding flavours folded into division variants
      ([DIV.F]/[DIV.C]/[DIV.T]/[DIV.R], [MOD], [REM]) and float→int
      conversion;
    - a microcoded Lisp call ([CALL]/[TCALL]), standing in for the
      paper's [%SETUP]/[%CALL] assembler macros;
    - system-service traps ([SVC]) into the runtime (heap allocation,
      generic arithmetic, special-variable binding — the paper's
      [*:SQ-...] system quantities);
    - vector instructions ([VDOT], [VADD]) from the S-1's
      signal-processing repertoire. *)

(** {1 Registers} *)

type reg = int

val nregs : int
val rta : reg  (** R4 — RT "bottleneck" register A *)

val rtb : reg  (** R6 — RT "bottleneck" register B *)

val a : reg    (** pointer accumulator; function return value *)

val t1 : reg
val t2 : reg   (** code-generator scratch *)

val env : reg  (** current closure environment *)

val sb : reg   (** special-binding (deep binding) stack pointer *)

val sp : reg   (** stack pointer (grows upward) *)

val fp : reg   (** frame pointer *)

val tp : reg   (** temporaries pointer (scratch area of the frame) *)

val cp : reg   (** code/linkage pointer *)

val reg_name : reg -> string

(** {1 Operands} *)

type operand =
  | Reg of reg
  | Imm of int  (** immediate 36-bit word *)
  | Mabs of int  (** M\[addr\]: absolute memory (symbol value/function cells) *)
  | Ind of reg * int  (** M\[R + disp\] *)
  | Idx of { base : reg; disp : int; index : reg; shift : int }
      (** M\[R + disp + (R_index << shift)\] *)
  | Defind of reg * int * int  (** M\[addr_of(M\[R + disp\]) + off\]: deref a pointer in memory *)
  | Defreg of reg * int  (** M\[addr_of(R) + off\]: deref a pointer in a register *)
  | Lab of string  (** code-label address (resolved by the assembler) *)
  | Dlab of string * int  (** data-label address + offset *)

(** {1 Conditions and opcode families} *)

type cond = EQ | NEQ | LSS | LEQ | GTR | GEQ

val cond_name : cond -> string
val cond_holds : cond -> int -> bool
(** [cond_holds c n] applies [c] to the sign of comparison result [n]. *)

type rounding = Floor | Ceiling | Truncate | Round

type binop =
  | ADD | SUB | MULT
  | DIV of rounding  (** integer division, quotient *)
  | MOD | REM
  | AND | OR | XOR
  | ASH  (** arithmetic shift; second operand is the (signed) count *)
  | FADD | FSUB | FMULT | FDIV | FMAX | FMIN | FATAN  (** FATAN is atan2 *)

type unop =
  | NEG | NOT | FNEG | FABS
  | FSQRT
  | FSIN  (** sine, argument in cycles (S-1 convention) *)
  | FCOS  (** cosine, argument in cycles *)
  | FEXP | FLOG
  | FLOAT  (** fixnum datum -> single float *)
  | FIX of rounding  (** single float -> fixnum datum *)
  | DATUM  (** sign-extended 31-bit datum field (untag a fixnum) *)

type width = S | D

(** {1 Instructions} *)

type target = L of string | Abs of int

type instr =
  | Mov of operand * operand  (** dst := src *)
  | Movp of Tags.t * operand * operand
      (** dst := pointer with given tag to the {e address} of src (which
          must be an addressable operand); the paper's [MOVP]. *)
  | Gettag of operand * operand  (** dst := tag field of src *)
  | Getaddr of operand * operand  (** dst := address field of src (zero-extended) *)
  | Settag of Tags.t * operand  (** retag dst in place *)
  | Bin of binop * width * operand * operand * operand
      (** [Bin (op, w, dst, s1, s2)]: dst := s1 op s2.  Encodable only in
          the 2½-address forms — see {!validate}. *)
  | Un of unop * width * operand * operand  (** dst := op src *)
  | Jmp of cond * operand * operand * target  (** integer compare and branch *)
  | Fjmp of cond * operand * operand * target  (** float compare and branch *)
  | Jmpz of cond * operand * target  (** compare against zero and branch *)
  | Jmptag of cond * operand * Tags.t * target  (** branch on tag field *)
  | Jmpa of target
  | Jmpi of operand  (** computed jump; operand holds a code address *)
  | Jsp of reg * target  (** R := return code address; jump (subroutine linkage) *)
  | Push of operand  (** SP += 1; M\[SP\] := src *)
  | Pop of operand  (** dst := M\[SP\]; SP -= 1 *)
  | Allocs of operand * int  (** push [n] copies of the fill word (frame setup) *)
  | Call of operand * int
      (** call the function object (code/closure/symbol) with n pushed
          arguments; pushes the return linkage (microcoded %CALL) *)
  | Tcall of operand * int  (** tail call: reuse the current frame *)
  | Ret  (** return from a CALL frame; result in register {!a} *)
  | Svc of int  (** trap to runtime service *)
  | Vdot of operand * operand * operand * operand
      (** dst := dot product of two unboxed float vectors (addr, addr, len) *)
  | Vadd of operand * operand * operand * operand
      (** element-wise add: (dst_addr, src_addr, src_addr ... len in 4th) *)
  | Halt
  | Nop

(** {1 Static properties} *)

val validate : instr -> (unit, string) result
(** Check encodability: 2½-address discipline for [Bin], writability of
    destinations, shift ranges.  The code generator must only emit
    instructions that validate; the assembler rejects others. *)

val words : instr -> int
(** Instruction size in 36-bit words (1–3), from the operand complexity. *)

val base_cycles : instr -> int
(** Execution cost excluding operand memory traffic. *)

val operand_cycles : operand -> int
(** Memory-access cost contributed by one operand. *)

val is_mov : instr -> bool
(** Data-movement instructions (MOV only) — the §6.1 "no MOV needed"
    metric. *)

val mnemonic : instr -> string
(** Opcode-family name ("MOV", "FADD.S", "%CALL", ...) — the profiler's
    opcode-histogram bucket. *)

val binop_name : binop -> string
val unop_name : unop -> string
val width_name : width -> string
(** Stable sub-opcode names ("DIV.F", "FIX.T", ...): listing syntax and
    the serialized image format both key on them. *)

(** {1 Printing} *)

val pp_operand : Format.formatter -> operand -> unit
val pp_instr : Format.formatter -> instr -> unit
(** Parenthesized assembly in the style of the paper's Table 4. *)

val svc_name : int -> string
val register_svc : string -> int
(** Allocate a service id with a symbolic [*:SQ-...] name (used by the
    runtime at setup; the table is global and append-only). *)
