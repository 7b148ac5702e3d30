type reg = int

let nregs = 32
let rta = 4
let rtb = 6
let a = 20
let t1 = 21
let t2 = 22
let env = 24
let sb = 25
let sp = 28
let fp = 29
let tp = 30
let cp = 31

let reg_name r =
  match r with
  | 4 -> "RTA"
  | 6 -> "RTB"
  | 20 -> "A"
  | 21 -> "T1"
  | 22 -> "T2"
  | 24 -> "ENV"
  | 25 -> "SB"
  | 28 -> "SP"
  | 29 -> "FP"
  | 30 -> "TP"
  | 31 -> "CP"
  | n -> Printf.sprintf "R%d" n

type operand =
  | Reg of reg
  | Imm of int
  | Mabs of int
  | Ind of reg * int
  | Idx of { base : reg; disp : int; index : reg; shift : int }
  | Defind of reg * int * int
  | Defreg of reg * int
  | Lab of string
  | Dlab of string * int

type cond = EQ | NEQ | LSS | LEQ | GTR | GEQ

let cond_name = function
  | EQ -> "EQ"
  | NEQ -> "NEQ"
  | LSS -> "LSS"
  | LEQ -> "LEQ"
  | GTR -> "GTR"
  | GEQ -> "GEQ"

let cond_holds c n =
  match c with
  | EQ -> n = 0
  | NEQ -> n <> 0
  | LSS -> n < 0
  | LEQ -> n <= 0
  | GTR -> n > 0
  | GEQ -> n >= 0

type rounding = Floor | Ceiling | Truncate | Round

type binop =
  | ADD | SUB | MULT
  | DIV of rounding
  | MOD | REM
  | AND | OR | XOR
  | ASH
  | FADD | FSUB | FMULT | FDIV | FMAX | FMIN | FATAN

type unop =
  | NEG | NOT | FNEG | FABS
  | FSQRT
  | FSIN
  | FCOS
  | FEXP | FLOG
  | FLOAT
  | FIX of rounding
  | DATUM

type width = S | D

type target = L of string | Abs of int

type instr =
  | Mov of operand * operand
  | Movp of Tags.t * operand * operand
  | Gettag of operand * operand
  | Getaddr of operand * operand
  | Settag of Tags.t * operand
  | Bin of binop * width * operand * operand * operand
  | Un of unop * width * operand * operand
  | Jmp of cond * operand * operand * target
  | Fjmp of cond * operand * operand * target
  | Jmpz of cond * operand * target
  | Jmptag of cond * operand * Tags.t * target
  | Jmpa of target
  | Jmpi of operand
  | Jsp of reg * target
  | Push of operand
  | Pop of operand
  | Allocs of operand * int
  | Call of operand * int
  | Tcall of operand * int
  | Ret
  | Svc of int
  | Vdot of operand * operand * operand * operand
  | Vadd of operand * operand * operand * operand
  | Halt
  | Nop

(* Validation ----------------------------------------------------------- *)

let writable = function
  | Reg _ | Mabs _ | Ind _ | Idx _ | Defind _ | Defreg _ -> true
  | Imm _ | Lab _ | Dlab _ -> false

let addressable = function
  | Mabs _ | Ind _ | Idx _ | Defind _ | Defreg _ | Dlab _ -> true
  | Reg _ | Imm _ | Lab _ -> false

let is_rt = function Reg r -> r = rta || r = rtb | _ -> false
let same_operand (x : operand) (y : operand) = x = y

let validate i =
  let err fmt_str = Printf.ksprintf (fun s -> Error s) fmt_str in
  match i with
  | Bin (_, _, dst, s1, _) ->
      if not (writable dst) then err "destination of arithmetic is not writable"
      else if same_operand dst s1 || is_rt dst || is_rt s1 then Ok ()
      else err "2.5-address violation: three distinct operands need RTA/RTB as dst or s1"
  | Mov (dst, _) | Un (_, _, dst, _) | Gettag (dst, _) | Getaddr (dst, _) ->
      if writable dst then Ok () else err "destination not writable"
  | Settag (_, dst) -> if writable dst then Ok () else err "SETTAG destination not writable"
  | Movp (_, dst, src) ->
      if not (writable dst) then err "MOVP destination not writable"
      else if addressable src then Ok ()
      else err "MOVP source must be an addressable (memory) operand"
  | Pop dst -> if writable dst then Ok () else err "POP destination not writable"
  | Vdot (dst, _, _, _) ->
      if writable dst then Ok () else err "VDOT destination not writable"
  | Vadd _ ->
      (* VADD's first operand is the destination *address* (a value) *)
      Ok ()
  | Jmp _ | Fjmp _ | Jmpz _ | Jmptag _ | Jmpa _ | Jmpi _ | Jsp _ | Push _ | Allocs _ | Call _
  | Tcall _ | Ret | Svc _ | Halt | Nop ->
      Ok ()

(* Sizing and cost ------------------------------------------------------ *)

let short_imm v = v >= -2048 && v < 2048
let short_disp d = d >= -256 && d < 256

let operand_words = function
  | Reg _ -> 0
  | Mabs _ -> 1
  | Imm v -> if short_imm v then 0 else 1
  | Ind (_, d) -> if short_disp d then 0 else 1
  | Idx _ -> 1
  | Defind _ -> 1
  | Defreg _ -> 0
  | Lab _ -> 1
  | Dlab _ -> 1

(* [map] answers the instruction itself when every operand and target
   maps to itself (physically): assembling a program whose operands need
   no resolving rebuilds nothing. *)
let map ~operand:op ~target:tg i =
  match i with
  | Mov (d, s) ->
      let d' = op d and s' = op s in
      if d' == d && s' == s then i else Mov (d', s')
  | Movp (t, d, s) ->
      let d' = op d and s' = op s in
      if d' == d && s' == s then i else Movp (t, d', s')
  | Gettag (d, s) ->
      let d' = op d and s' = op s in
      if d' == d && s' == s then i else Gettag (d', s')
  | Getaddr (d, s) ->
      let d' = op d and s' = op s in
      if d' == d && s' == s then i else Getaddr (d', s')
  | Settag (t, d) ->
      let d' = op d in
      if d' == d then i else Settag (t, d')
  | Bin (b, w, d, s1, s2) ->
      let d' = op d and s1' = op s1 and s2' = op s2 in
      if d' == d && s1' == s1 && s2' == s2 then i else Bin (b, w, d', s1', s2')
  | Un (u, w, d, s) ->
      let d' = op d and s' = op s in
      if d' == d && s' == s then i else Un (u, w, d', s')
  | Jmp (c, s1, s2, t) ->
      let s1' = op s1 and s2' = op s2 and t' = tg t in
      if s1' == s1 && s2' == s2 && t' == t then i else Jmp (c, s1', s2', t')
  | Fjmp (c, s1, s2, t) ->
      let s1' = op s1 and s2' = op s2 and t' = tg t in
      if s1' == s1 && s2' == s2 && t' == t then i else Fjmp (c, s1', s2', t')
  | Jmpz (c, s, t) ->
      let s' = op s and t' = tg t in
      if s' == s && t' == t then i else Jmpz (c, s', t')
  | Jmptag (c, s, tag, t) ->
      let s' = op s and t' = tg t in
      if s' == s && t' == t then i else Jmptag (c, s', tag, t')
  | Jmpa t ->
      let t' = tg t in
      if t' == t then i else Jmpa t'
  | Jmpi s ->
      let s' = op s in
      if s' == s then i else Jmpi s'
  | Jsp (r, t) ->
      let t' = tg t in
      if t' == t then i else Jsp (r, t')
  | Push s ->
      let s' = op s in
      if s' == s then i else Push s'
  | Pop d ->
      let d' = op d in
      if d' == d then i else Pop d'
  | Allocs (f, n) ->
      let f' = op f in
      if f' == f then i else Allocs (f', n)
  | Call (f, n) ->
      let f' = op f in
      if f' == f then i else Call (f', n)
  | Tcall (f, n) ->
      let f' = op f in
      if f' == f then i else Tcall (f', n)
  | Vdot (d, x, y, n) ->
      let d' = op d and x' = op x and y' = op y and n' = op n in
      if d' == d && x' == x && y' == y && n' == n then i else Vdot (d', x', y', n')
  | Vadd (d, x, y, n) ->
      let d' = op d and x' = op x and y' = op y and n' = op n in
      if d' == d && x' == x && y' == y && n' == n then i else Vadd (d', x', y', n')
  | Ret | Svc _ | Halt | Nop -> i

let words i =
  (* One base word; complex operands take an extension word each, but at
     most two extension words per instruction (the S-1's 1-3 word formats).
     Multi-operand pseudo-ops (CALL, VDOT) occupy up to 3 words. *)
  let w = operand_words in
  let ext =
    match i with
    | Mov (d, s) | Movp (_, d, s) | Gettag (d, s) | Getaddr (d, s) | Un (_, _, d, s) -> w d + w s
    | Settag (_, d) -> w d
    | Bin (_, _, d, s1, s2) -> w d + w s1 + w s2
    | Jmp (_, s1, s2, _) | Fjmp (_, s1, s2, _) -> w s1 + w s2
    | Jmpz (_, s, _) | Jmptag (_, s, _, _) | Jmpi s | Push s | Pop s -> w s
    | Allocs (f, _) | Call (f, _) | Tcall (f, _) -> w f
    | Vdot (d, x, y, n) | Vadd (d, x, y, n) -> w d + w x + w y + w n
    | Jmpa _ | Jsp _ | Ret | Svc _ | Halt | Nop -> 0
  in
  1 + min 2 ext

let operand_cycles = function
  | Reg _ | Imm _ | Lab _ -> 0
  | Mabs _ | Ind _ | Dlab _ -> 1
  | Idx _ -> 2
  | Defreg _ -> 1
  | Defind _ -> 2

let base_cycles = function
  | Mov _ | Movp _ | Gettag _ | Getaddr _ | Settag _ -> 1
  | Bin (op, w, _, _, _) -> (
      let wf = match w with S -> 1 | D -> 2 in
      match op with
      | ADD | SUB | AND | OR | XOR | ASH -> 1
      | MULT -> 4 * wf
      | DIV _ | MOD | REM -> 12 * wf
      | FADD | FSUB | FMAX | FMIN -> 3 * wf
      | FMULT -> 5 * wf
      | FDIV -> 14 * wf
      | FATAN -> 30 * wf)
  | Un (op, w, _, _) -> (
      let wf = match w with S -> 1 | D -> 2 in
      match op with
      | NEG | NOT | FNEG | FABS | DATUM -> 1
      | FLOAT | FIX _ -> 2
      | FSQRT -> 16 * wf
      | FSIN | FCOS | FEXP | FLOG -> 30 * wf)
  | Jmp _ | Fjmp _ | Jmpz _ | Jmptag _ -> 2
  | Jmpa _ | Jmpi _ -> 1
  | Jsp _ -> 2
  | Push _ | Pop _ -> 2
  | Allocs (_, n) -> 1 + n
  | Call _ -> 8
  | Tcall _ -> 6
  | Ret -> 6
  | Svc _ -> 12
  | Vdot _ | Vadd _ -> 4 (* plus per-element cost charged by the CPU *)
  | Halt | Nop -> 1

let is_mov = function Mov _ -> true | _ -> false

(* Printing ------------------------------------------------------------- *)

let pp_operand fmt = function
  | Reg r -> Format.pp_print_string fmt (reg_name r)
  | Imm v -> Format.fprintf fmt "(? %d)" (Word.to_signed v)
  | Mabs a -> Format.fprintf fmt "(M %d)" a
  | Ind (r, d) -> Format.fprintf fmt "(%s %d)" (reg_name r) d
  | Idx { base; disp; index; shift } ->
      Format.fprintf fmt "(%s %d %s^%d)" (reg_name base) disp (reg_name index) shift
  | Defind (r, d, o) -> Format.fprintf fmt "(REF (%s %d) %d)" (reg_name r) d o
  | Defreg (r, o) -> Format.fprintf fmt "(REF %s %d)" (reg_name r) o
  | Lab l -> Format.pp_print_string fmt l
  | Dlab (l, 0) -> Format.fprintf fmt "(DATA-REF %s)" l
  | Dlab (l, o) -> Format.fprintf fmt "(DATA-REF %s %d)" l o

let pp_target fmt = function
  | L l -> Format.pp_print_string fmt l
  | Abs n -> Format.fprintf fmt "@@%d" n

let binop_name = function
  | ADD -> "ADD"
  | SUB -> "SUB"
  | MULT -> "MULT"
  | DIV Floor -> "DIV.F"
  | DIV Ceiling -> "DIV.C"
  | DIV Truncate -> "DIV.T"
  | DIV Round -> "DIV.R"
  | MOD -> "MOD"
  | REM -> "REM"
  | AND -> "AND"
  | OR -> "OR"
  | XOR -> "XOR"
  | ASH -> "ASH"
  | FADD -> "FADD"
  | FSUB -> "FSUB"
  | FMULT -> "FMULT"
  | FDIV -> "FDIV"
  | FMAX -> "FMAX"
  | FMIN -> "FMIN"
  | FATAN -> "FATAN"

let unop_name = function
  | NEG -> "NEG"
  | NOT -> "NOT"
  | FNEG -> "FNEG"
  | FABS -> "FABS"
  | FSQRT -> "FSQRT"
  | FSIN -> "FSIN"
  | FCOS -> "FCOS"
  | FEXP -> "FEXP"
  | FLOG -> "FLOG"
  | FLOAT -> "FLOAT"
  | FIX Floor -> "FIX.F"
  | FIX Ceiling -> "FIX.C"
  | FIX Truncate -> "FIX.T"
  | FIX Round -> "FIX.R"
  | DATUM -> "DATUM"

let width_name = function S -> "S" | D -> "D"

(* Service-name registry ------------------------------------------------ *)

(* Process-global and shared by every domain: image decoding on batch
   workers registers names while another domain's boot registers the
   natives, so both directions go through one lock. *)
let svc_names : (int, string) Hashtbl.t = Hashtbl.create 32
let svc_by_name : (string, int) Hashtbl.t = Hashtbl.create 32
let svc_next = ref 0
let svc_lock = Mutex.create ()

let register_svc name =
  Mutex.protect svc_lock (fun () ->
      match Hashtbl.find_opt svc_by_name name with
      | Some id -> id
      | None ->
          let id = !svc_next in
          incr svc_next;
          Hashtbl.replace svc_names id name;
          Hashtbl.replace svc_by_name name id;
          id)

let svc_name id =
  match Mutex.protect svc_lock (fun () -> Hashtbl.find_opt svc_names id) with
  | Some n -> n
  | None -> Printf.sprintf "*:SQ-SERVICE-%d" id

(* Opcode-family name, for the profiler's opcode histogram: one bucket
   per mnemonic, folding operand and condition variants together. *)
let mnemonic = function
  | Mov _ -> "MOV"
  | Movp _ -> "MOVP"
  | Gettag _ -> "GETTAG"
  | Getaddr _ -> "GETADDR"
  | Settag _ -> "SETTAG"
  | Bin (op, w, _, _, _) -> Printf.sprintf "%s.%s" (binop_name op) (width_name w)
  | Un (op, w, _, _) -> Printf.sprintf "%s.%s" (unop_name op) (width_name w)
  | Jmp _ -> "JMP"
  | Fjmp _ -> "FJMP"
  | Jmpz _ -> "JMPZ"
  | Jmptag _ -> "JMPTAG"
  | Jmpa _ -> "JMPA"
  | Jmpi _ -> "JMPI"
  | Jsp _ -> "JSP"
  | Push _ -> "PUSH"
  | Pop _ -> "POP"
  | Allocs _ -> "ALLOC"
  | Call _ -> "%CALL"
  | Tcall _ -> "%TCALL"
  | Ret -> "%RET"
  | Svc _ -> "SVC"
  | Vdot _ -> "VDOT"
  | Vadd _ -> "VADD"
  | Halt -> "HALT"
  | Nop -> "NOP"

let pp_instr fmt i =
  let p = Format.fprintf in
  match i with
  | Mov (d, s) -> p fmt "(MOV %a %a)" pp_operand d pp_operand s
  | Movp (tag, d, s) -> p fmt "((MOVP %s) %a %a)" (Tags.name tag) pp_operand d pp_operand s
  | Gettag (d, s) -> p fmt "(GETTAG %a %a)" pp_operand d pp_operand s
  | Getaddr (d, s) -> p fmt "(GETADDR %a %a)" pp_operand d pp_operand s
  | Settag (tag, d) -> p fmt "((SETTAG %s) %a)" (Tags.name tag) pp_operand d
  | Bin (op, w, d, s1, s2) when d = s1 ->
      p fmt "((%s %s) %a %a)" (binop_name op) (width_name w) pp_operand d pp_operand s2
  | Bin (op, w, d, s1, s2) ->
      p fmt "((%s %s) %a %a %a)" (binop_name op) (width_name w) pp_operand d pp_operand s1
        pp_operand s2
  | Un (op, w, d, s) ->
      p fmt "((%s %s) %a %a)" (unop_name op) (width_name w) pp_operand d pp_operand s
  | Jmp (c, s1, s2, t) ->
      p fmt "((JMP %s) %a %a %a)" (cond_name c) pp_operand s1 pp_operand s2 pp_target t
  | Fjmp (c, s1, s2, t) ->
      p fmt "((FJMP %s) %a %a %a)" (cond_name c) pp_operand s1 pp_operand s2 pp_target t
  | Jmpz (c, s, t) -> p fmt "((JMPZ %s) %a %a)" (cond_name c) pp_operand s pp_target t
  | Jmptag (c, s, tag, t) ->
      p fmt "((JMPTAG %s) %a %s %a)" (cond_name c) pp_operand s (Tags.name tag) pp_target t
  | Jmpa t -> p fmt "(JMPA () %a)" pp_target t
  | Jmpi s -> p fmt "(JMPI %a)" pp_operand s
  | Jsp (r, t) -> p fmt "(JSP %s %a)" (reg_name r) pp_target t
  | Push s -> p fmt "((PUSH UP) SP %a)" pp_operand s
  | Pop d -> p fmt "((POP UP) %a SP)" pp_operand d
  | Allocs (f, n) -> p fmt "((ALLOC %d) %a (SP %d))" n pp_operand f (4 * n)
  | Call (f, n) -> p fmt "(%%CALL %a %d)" pp_operand f n
  | Tcall (f, n) -> p fmt "(%%TCALL %a %d)" pp_operand f n
  | Ret -> p fmt "(%%RET)"
  | Svc id -> p fmt "(JSP T2 (@@ (REF SQ %s)))" (svc_name id)
  | Vdot (d, x, y, n) ->
      p fmt "(VDOT %a %a %a %a)" pp_operand d pp_operand x pp_operand y pp_operand n
  | Vadd (d, x, y, n) ->
      p fmt "(VADD %a %a %a %a)" pp_operand d pp_operand x pp_operand y pp_operand n
  | Halt -> p fmt "(HALT)"
  | Nop -> p fmt "(NOP)"
