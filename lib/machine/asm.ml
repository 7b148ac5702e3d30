type datum = Word of int | Labref of string

type item =
  | Label of string
  | Instr of Isa.instr
  | Data of string * datum list
  | Comment of string
  | Mark of int * S1_loc.Loc.t option

type program = item list

type mark = { m_addr : int; m_node : int; m_loc : S1_loc.Loc.t option }

type image = {
  org : int;
  instrs : Isa.instr array;
  labels : (string * int) list;
  data_labels : (string * int) list;
  code_words : int;
  marks : mark array;
}

exception Asm_error of string list

(* Sentinels ------------------------------------------------------------ *)

(* World words left to the loader are placeholders far above the 36-bit
   word space: sentinel [i] stands for word [i] of the relocation the
   program is assembled with.  Nothing between the generator and the
   assembler inspects immediate values (the peephole rewrites control
   flow only), and sizes and costs are taken from the resolved
   instruction, so a sentinel program assembles exactly like its
   resolved counterpart. *)
let sentinel_base = 1 lsl 40
let sentinel i = sentinel_base + i

(* The resolved words with their operands, built once per unit so that
   resolving an operand allocates nothing. *)
type relocation = { r_words : int array; r_imm : Isa.operand array; r_mabs : Isa.operand array }

let relocation words =
  {
    r_words = words;
    r_imm = Array.map (fun w -> Isa.Imm w) words;
    r_mabs = Array.map (fun w -> Isa.Mabs w) words;
  }

let no_relocation = relocation [||]
let relocate_word r w = if w >= sentinel_base then r.r_words.(w - sentinel_base) else w

let relocate_operand r (o : Isa.operand) =
  match o with
  | Isa.Imm w when w >= sentinel_base -> r.r_imm.(w - sentinel_base)
  | Isa.Mabs w when w >= sentinel_base -> r.r_mabs.(w - sentinel_base)
  | o -> o

let relocate r prog =
  List.map
    (function
      | Instr i -> Instr (Isa.map ~operand:(relocate_operand r) ~target:Fun.id i)
      | Data (l, ds) ->
          Data (l, List.map (function Word w -> Word (relocate_word r w) | d -> d) ds)
      | (Label _ | Comment _ | Mark _) as it -> it)
    prog

(* Code labels are keyed with [String.equal]: every label and every
   branch to one is looked up here. *)
module Labels = Hashtbl.Make (String)

let no_mark = { m_addr = 0; m_node = -1; m_loc = None }

let assemble ?(reloc = no_relocation) mem ~org prog =
  let errors = ref [] in
  let err fmt_str = Printf.ksprintf (fun s -> errors := s :: !errors) fmt_str in
  (* Pass 1: lay out code indices and data blocks; count the provenance
     marks. *)
  let code_labels = Labels.create 16 in
  (* data blocks are few (an &optional dispatch table), newest first *)
  let data_labels = ref [] in
  let n_marks = ref 0 in
  let n_instrs =
    List.fold_left
      (fun idx item ->
        match item with
        | Label l ->
            (* placing a label already placed leaves the count as it was *)
            let placed = Labels.length code_labels in
            Labels.replace code_labels l (org + idx);
            if Labels.length code_labels = placed then err "duplicate label %s" l;
            idx
        | Instr _ -> idx + 1
        | Data (l, ws) ->
            if List.mem_assoc l !data_labels then err "duplicate data label %s" l;
            data_labels := (l, Mem.alloc_static mem (List.length ws)) :: !data_labels;
            idx
        | Comment _ -> idx
        | Mark _ ->
            incr n_marks;
            idx)
      0 prog
  in
  let target = function
    | Isa.L l -> (
        match Labels.find_opt code_labels l with
        | Some a -> Isa.Abs a
        | None ->
            err "undefined label %s" l;
            Isa.Abs 0)
    | Isa.Abs _ as t -> t
  in
  let operand (o : Isa.operand) : Isa.operand =
    match o with
    | Isa.Lab l -> (
        match Labels.find_opt code_labels l with
        | Some a -> Isa.Imm a
        | None ->
            err "undefined label %s in operand" l;
            Isa.Imm 0)
    | Isa.Dlab (l, off) -> (
        match List.assoc_opt l !data_labels with
        | Some a -> Isa.Imm (a + off)
        | None ->
            err "undefined data label %s in operand" l;
            Isa.Imm 0)
    | o -> relocate_operand reloc o
  in
  (* Pass 2: resolve, validate, emit, and place the marks at their
     absolute code addresses (the PC line map).  An instruction with
     nothing to resolve is kept as it is ({!Isa.map}). *)
  let instrs = Array.make n_instrs Isa.Nop in
  let marks = Array.make !n_marks no_mark in
  let words = ref 0 in
  let idx = ref 0 and m = ref 0 in
  List.iter
    (fun item ->
      match item with
      | Label _ | Comment _ -> ()
      | Mark (node, loc) ->
          marks.(!m) <- { m_addr = org + !idx; m_node = node; m_loc = loc };
          incr m
      | Instr i ->
          let r = Isa.map ~operand ~target i in
          (match Isa.validate r with
          | Ok () -> ()
          | Error msg -> err "at %d (%s): %s" (org + !idx) (Format.asprintf "%a" Isa.pp_instr i) msg);
          instrs.(!idx) <- r;
          words := !words + Isa.words r;
          incr idx
      | Data (l, ws) ->
          let base = List.assoc l !data_labels in
          List.iteri
            (fun i d ->
              let v =
                match d with
                | Word w -> relocate_word reloc w
                | Labref lab -> (
                    match Labels.find_opt code_labels lab with
                    | Some a -> a
                    | None ->
                        err "undefined label %s in data block %s" lab l;
                        0)
              in
              Mem.write mem (base + i) v)
            ws)
    prog;
  if !errors <> [] then raise (Asm_error (List.rev !errors));
  {
    org;
    instrs;
    labels = Labels.fold (fun k v acc -> (k, v) :: acc) code_labels [];
    data_labels = !data_labels;
    code_words = !words;
    marks;
  }

let pp_item fmt = function
  | Label l -> Format.fprintf fmt "%s" l
  | Instr i -> Format.fprintf fmt "        %a" Isa.pp_instr i
  | Data (l, ws) ->
      Format.fprintf fmt "%s  (DATA%a)" l
        (fun fmt ws ->
          List.iter
            (fun d ->
              match d with
              | Word w -> Format.fprintf fmt " %d" (Word.to_signed w)
              | Labref lab -> Format.fprintf fmt " %s" lab)
            ws)
        ws
  | Comment c -> Format.fprintf fmt "        ;%s" c
  | Mark (node, loc) ->
      Format.fprintf fmt "        ;node %d%s" node
        (match loc with Some l -> " " ^ S1_loc.Loc.to_string l | None -> "")

(* Marks are provenance metadata, not part of the paper-style listing;
   keep them out so listings stay byte-stable. *)
let pp_program fmt prog =
  let prog = List.filter (function Mark _ -> false | _ -> true) prog in
  Format.pp_open_vbox fmt 0;
  List.iteri
    (fun i item ->
      if i > 0 then Format.pp_print_cut fmt ();
      pp_item fmt item)
    prog;
  Format.pp_close_box fmt ()

let listing prog = Format.asprintf "%a" pp_program prog
