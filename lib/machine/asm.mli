(** Symbolic assembler for the simulated S-1.

    Programs are lists of {!item}s: labelled instructions with string
    targets, plus data blocks (dispatch tables — the paper's Table 4 uses
    one for &optional argument-count dispatch).  [assemble] resolves
    labels, validates every instruction (the 2½-address discipline among
    other things), places data blocks in the static region of a {!Mem.t},
    and produces a code image of decoded instructions.

    Code lives in its own index space ("Harvard style"): code addresses
    are instruction indices, while {!Isa.words} still models fetch size
    and cost.  Data addresses are ordinary memory words. *)

type datum =
  | Word of int  (** literal 36-bit word *)
  | Labref of string  (** resolves to the code address of a label *)

type item =
  | Label of string
  | Instr of Isa.instr
  | Data of string * datum list  (** named static data block *)
  | Comment of string  (** listing only; no code *)
  | Mark of int * S1_loc.Loc.t option
      (** provenance: instructions that follow (until the next mark) were
          generated from IR node [id] at the given source position; no
          code, excluded from listings *)

type program = item list

type mark = {
  m_addr : int;  (** absolute code address of the first covered instruction *)
  m_node : int;  (** IR node id *)
  m_loc : S1_loc.Loc.t option;
}

type image = {
  org : int;  (** code address of the first instruction *)
  instrs : Isa.instr array;  (** fully resolved: targets are [Abs], label operands are [Imm] *)
  labels : (string * int) list;  (** code labels to absolute code addresses *)
  data_labels : (string * int) list;  (** data labels to memory addresses *)
  code_words : int;  (** total size in 36-bit words *)
  marks : mark array;  (** the PC line map, ascending by address *)
}

exception Asm_error of string list

(** {1 Sentinels}

    A program may leave world words to its loader: sentinel [i], a word
    above the 36-bit word space, in an [Imm] or [Mabs] operand or a data
    word stands for word [i] of the {!relocation} the program is
    assembled with. *)

val sentinel : int -> int

type relocation
(** The words a unit's sentinels stand for, with their operands built
    once. *)

val relocation : int array -> relocation
val relocate_word : relocation -> int -> int

val relocate : relocation -> program -> program
(** The program with every sentinel resolved, through the operand map
    assembly resolves them with. *)

val assemble : ?reloc:relocation -> Mem.t -> org:int -> program -> image
(** Resolves labels and, under [reloc], sentinels, rebuilding only the
    instructions that hold one; every other instruction is kept as it is.
    @raise Asm_error listing every diagnostic. *)

val pp_program : Format.formatter -> program -> unit
(** Parenthesized assembly listing in the paper's style: labels at the
    margin, instructions indented, comments after [;]. *)

val listing : program -> string
