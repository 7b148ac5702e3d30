type stats = {
  mutable cycles : int;
  mutable instructions : int;
  mutable movs : int;
  mutable mem_traffic : int;
  mutable calls : int;
  mutable tcalls : int;
  mutable svcs : int;
  mutable stack_high : int;
  mutable bind_high : int;  (* special-binding stack high-water, in words *)
}

(* Per-PC execution attribution, maintained only while profiling is
   enabled (the arrays grow with the code store): cycles, executions and
   CALL/TCALL arrivals.  MOV counts and the opcode histogram are read off
   [code] when asked for. *)
type profile = {
  mutable p_cycles : int array;
  mutable p_instrs : int array;
  mutable p_calls : int array;  (* CALL/TCALL arrivals at an entry pc *)
}

module Itbl = Hashtbl.Make (Int)

type cg_edge = { mutable e_calls : int; mutable e_tcalls : int }

(* The call-path profiler: a calling-context tree (Ammons, Ball & Larus)
   whose nodes are ints, node 0 the root, each the child of its parent
   under one frame name, and a shadow call stack of (node, machine FP)
   pairs mirroring the machine's frame chain, maintained by the
   CALL/TCALL/RET microcode.  A tail call REPLACES the top frame, so the
   paper's O(1)-stack property of tail calls holds in the shadow stack
   too.  The machine FP lets a CATCH/THROW unwind, which restores
   registers without executing RETs, pop exactly the abandoned frames.
   Cycles charge to the node current at fetch; [cg_charged] tracks how
   much of [stats.cycles] has been attributed so far — nested simulator
   runs (a native service calling back into Lisp) charge their own
   cycles as they go, and the enclosing instruction only picks up the
   remainder, keeping the folded total exactly equal to [stats.cycles].
   Frame names are interned once; a node's "f;g;h" text is built only
   when read. *)
type callgraph = {
  mutable cg_parent : int array;
  mutable cg_name : int array;  (* frame name id *)
  mutable cg_cycles : int array;  (* exclusive cycles *)
  mutable cg_words : int array;  (* heap words *)
  mutable cg_text : string array;  (* "f;g;h" once read, else "" *)
  mutable cg_nodes : int;
  cg_children : int Itbl.t;  (* (parent, name id) -> node *)
  mutable cg_names : string array;  (* by name id *)
  cg_name_ids : (string, int) Hashtbl.t;
  cg_entries : int Itbl.t;  (* entry pc -> name id, valid for [cg_symbols] *)
  mutable cg_symbols : (int * int * string) list;
  cg_services : int Itbl.t;  (* service id -> name id *)
  cg_edges : cg_edge Itbl.t;  (* (caller, callee) name ids *)
  mutable cg_stack : int array;  (* shadow stack nodes; the root is never popped *)
  mutable cg_fps : int array;  (* machine FP per frame; min_int for the root *)
  mutable cg_depth : int;
  mutable cg_charged : int;  (* stats.cycles already attributed to some node *)
}

type t = {
  mem : Mem.t;
  mutable code : Isa.instr array;
  mutable ops : (t -> unit) array;
      (* [code] decoded lazily, one closure per slot; see "Decoded
         execution" below *)
  mutable code_len : int;
  regs : int array;
  mutable pc : int;
  mutable halted : bool;
  stats : stats;
  mutable service : t -> int -> unit;
  mutable bad_function_svc : int;
  mutable profile : profile option;
  mutable callgraph : callgraph option;
  mutable symbols : (int * int * string) list;
      (** (lo, hi, name): loaded code ranges, hi exclusive; newest first *)
  mutable mark_segments : (int * int * Asm.mark array) list;
      (** (lo, hi, marks ascending by address): PC line maps of loaded
          programs, hi exclusive; newest first.  Loads without marks (the
          runtime's hand-written stubs) contribute no segment. *)
  mutable deadline : int option;
      (** watchdog: absolute [stats.cycles] value past which any {!run}
          — including nested re-entries from macroexpanders and toplevel
          effects — traps {!Deadline_expired}.  Unlike [fuel], which is a
          per-run allowance, the deadline is a cumulative budget for a
          whole job, so a unit cannot dodge it by spreading work across
          many small calls. *)
}

(* Machine faults are structured traps, not bare strings: a long-lived
   world embedding the simulator needs to tell resource exhaustion
   (recoverable: unwind and keep the world) from a wild program counter
   (the program is junk, the world is still fine) without parsing
   messages.  [Machine_check] is the residual kind for faults with no
   better classification. *)
type trap_kind =
  | Control_stack_overflow
  | Control_stack_underflow
  | Bind_stack_overflow
  | Heap_exhaustion
  | Fuel_exhaustion
  | Deadline_expired
  | Illegal_instruction
  | Bad_address
  | Wrong_type
  | Machine_check

let trap_kind_name = function
  | Control_stack_overflow -> "control-stack-overflow"
  | Control_stack_underflow -> "control-stack-underflow"
  | Bind_stack_overflow -> "bind-stack-overflow"
  | Heap_exhaustion -> "heap-exhausted"
  | Fuel_exhaustion -> "fuel-exhausted"
  | Deadline_expired -> "deadline-expired"
  | Illegal_instruction -> "illegal-instruction"
  | Bad_address -> "bad-address"
  | Wrong_type -> "wrong-type"
  | Machine_check -> "machine-check"

(* [loc] is the source position of the faulting instruction, resolved
   through the PC line maps ({!provenance_at}) when the faulting code
   was loaded with marks. *)
exception
  Trap of { kind : trap_kind; pc : int; message : string; loc : S1_loc.Loc.t option }

let fresh_stats () =
  { cycles = 0; instructions = 0; movs = 0; mem_traffic = 0; calls = 0; tcalls = 0; svcs = 0;
    stack_high = 0; bind_high = 0 }

let halt_addr = 0

let label_addr (image : Asm.image) l =
  match List.assoc_opt l image.labels with
  | Some a -> a
  | None -> failwith (Printf.sprintf "no such label: %s" l)

let reset_stats cpu =
  let s = cpu.stats in
  s.cycles <- 0;
  s.instructions <- 0;
  s.movs <- 0;
  s.mem_traffic <- 0;
  s.calls <- 0;
  s.tcalls <- 0;
  s.svcs <- 0;
  s.stack_high <- 0;
  s.bind_high <- 0;
  (* Cycle attribution restarts with the counter. *)
  match cpu.callgraph with Some cg -> cg.cg_charged <- 0 | None -> ()

(* Profiling ------------------------------------------------------------- *)

let profiling cpu = match cpu.profile with Some _ -> true | None -> false

(* [a], or a copy filled with [x] past its end, with room for index [i]. *)
let grow a i x =
  if i < Array.length a then a
  else begin
    let fresh = Array.make (max (2 * Array.length a) (i + 1)) x in
    Array.blit a 0 fresh 0 (Array.length a);
    fresh
  end

let enable_profile cpu =
  if not (profiling cpu) then
    let n = max (Array.length cpu.code) 1 in
    cpu.profile <-
      Some { p_cycles = Array.make n 0; p_instrs = Array.make n 0; p_calls = Array.make n 0 }

let ensure_profile_capacity p pc =
  if pc >= Array.length p.p_cycles then begin
    p.p_cycles <- grow p.p_cycles pc 0;
    p.p_instrs <- grow p.p_instrs pc 0;
    p.p_calls <- grow p.p_calls pc 0
  end

(* A CALL/TCALL arrival at [entry]; an entry past the code store traps
   at its fetch and counts nothing. *)
let count_arrival cpu p entry =
  if entry < cpu.code_len then begin
    ensure_profile_capacity p entry;
    p.p_calls.(entry) <- p.p_calls.(entry) + 1
  end

let pc_counts cpu pc =
  match cpu.profile with
  | Some p when pc < Array.length p.p_cycles -> (p.p_cycles.(pc), p.p_instrs.(pc))
  | _ -> (0, 0)

let add_symbol cpu ~lo ~hi ~name = cpu.symbols <- (lo, hi, name) :: cpu.symbols

(* Provenance: which IR node (and source position) generated the
   instruction at [pc]?  The covering mark is the one with the greatest
   address <= pc within the segment containing pc; lookups never cross a
   segment boundary, so code loaded without marks resolves to [None]
   rather than to the previous program's last mark. *)
let provenance_at cpu pc : Asm.mark option =
  let rec find_segment = function
    | [] -> None
    | (lo, hi, marks) :: rest ->
        if pc >= lo && pc < hi then Some marks else find_segment rest
  in
  match find_segment cpu.mark_segments with
  | None -> None
  | Some marks ->
      (* binary search: greatest m_addr <= pc *)
      let n = Array.length marks in
      if n = 0 || marks.(0).Asm.m_addr > pc then None
      else begin
        let lo = ref 0 and hi = ref (n - 1) in
        while !lo < !hi do
          let mid = (!lo + !hi + 1) / 2 in
          if marks.(mid).Asm.m_addr <= pc then lo := mid else hi := mid - 1
        done;
        Some marks.(!lo)
      end

let trap cpu kind fmt_str =
  Printf.ksprintf
    (fun s ->
      let loc =
        match provenance_at cpu cpu.pc with Some m -> m.Asm.m_loc | None -> None
      in
      (if S1_obs.Timeline.enabled () then
         let args =
           [ ("pc", S1_obs.Json.Int cpu.pc); ("message", S1_obs.Json.Str s) ]
           @
           match loc with
           | Some l -> [ ("loc", S1_obs.Json.Str (S1_loc.Loc.to_string l)) ]
           | None -> []
         in
         S1_obs.Timeline.instant ~args ~cat:"trap" (trap_kind_name kind));
      raise (Trap { kind; pc = cpu.pc; message = s; loc }))
    fmt_str

let fail cpu fmt_str = trap cpu Machine_check fmt_str

(* The name of the loaded range holding [pc]; "?" outside every range. *)
let symbol_at cpu pc =
  let rec find = function
    | [] -> "?"
    | (lo, hi, name) :: rest -> if pc >= lo && pc < hi then name else find rest
  in
  find cpu.symbols

(* The call-path profiler ------------------------------------------------ *)

(* Name ids 0 and 1, interned when the tree is made. *)
let root_name = 0
let host_name = 1

(* A (parent, name) or (caller, callee) pair of ids as one table key. *)
let[@inline] pair a b = (a lsl 30) lor b

let cg_intern cg name =
  match Hashtbl.find cg.cg_name_ids name with
  | id -> id
  | exception Not_found ->
      let id = Hashtbl.length cg.cg_name_ids in
      cg.cg_names <- grow cg.cg_names id "";
      cg.cg_names.(id) <- name;
      Hashtbl.add cg.cg_name_ids name id;
      id

let fresh_callgraph ~charged =
  let cg =
    {
      cg_parent = Array.make 64 (-1);
      cg_name = Array.make 64 root_name;
      cg_cycles = Array.make 64 0;
      cg_words = Array.make 64 0;
      cg_text = [||];
      cg_nodes = 1;
      cg_children = Itbl.create 64;
      cg_names = [||];
      cg_name_ids = Hashtbl.create 64;
      cg_entries = Itbl.create 64;
      cg_symbols = [];
      cg_services = Itbl.create 16;
      cg_edges = Itbl.create 64;
      cg_stack = Array.make 16 0;
      cg_fps = Array.make 16 min_int;
      cg_depth = 1;
      cg_charged = charged;
    }
  in
  ignore (cg_intern cg "(root)");
  ignore (cg_intern cg "(host)");
  cg

let callgraph_on cpu = match cpu.callgraph with Some _ -> true | None -> false

let enable_callgraph cpu =
  if not (callgraph_on cpu) then cpu.callgraph <- Some (fresh_callgraph ~charged:cpu.stats.cycles)

let cg_child cg parent name =
  let key = pair parent name in
  match Itbl.find cg.cg_children key with
  | node -> node
  | exception Not_found ->
      let node = cg.cg_nodes in
      if node = Array.length cg.cg_parent then begin
        cg.cg_parent <- grow cg.cg_parent node (-1);
        cg.cg_name <- grow cg.cg_name node root_name;
        cg.cg_cycles <- grow cg.cg_cycles node 0;
        cg.cg_words <- grow cg.cg_words node 0
      end;
      cg.cg_parent.(node) <- parent;
      cg.cg_name.(node) <- name;
      cg.cg_nodes <- node + 1;
      Itbl.add cg.cg_children key node;
      node

let[@inline] cg_top cg = cg.cg_stack.(cg.cg_depth - 1)

let cg_push cg ~name ~fp =
  let node = cg_child cg (cg_top cg) name in
  let d = cg.cg_depth in
  if d = Array.length cg.cg_stack then begin
    cg.cg_stack <- grow cg.cg_stack d 0;
    cg.cg_fps <- grow cg.cg_fps d min_int
  end;
  cg.cg_stack.(d) <- node;
  cg.cg_fps.(d) <- fp;
  cg.cg_depth <- d + 1

(* The root frame is never popped. *)
let cg_pop cg = if cg.cg_depth > 1 then cg.cg_depth <- cg.cg_depth - 1

(* Tail call: the top frame is REPLACED, not pushed over — shadow depth
   mirrors the machine's O(1)-stack tail calls. *)
let cg_replace_top cg ~name ~fp =
  let d = cg.cg_depth in
  if d > 1 then begin
    cg.cg_stack.(d - 1) <- cg_child cg cg.cg_stack.(d - 2) name;
    cg.cg_fps.(d - 1) <- fp
  end
  else cg_push cg ~name ~fp (* tail call with only the root below: degrade to a push *)

(* The frame name of a function entry, memoised while the symbol list is
   physically unchanged ({!add_symbol}, {!code_release} and a thaw
   replace it). *)
let cg_entry_name cpu cg entry =
  if cg.cg_symbols != cpu.symbols then begin
    Itbl.reset cg.cg_entries;
    cg.cg_symbols <- cpu.symbols
  end;
  match Itbl.find cg.cg_entries entry with
  | id -> id
  | exception Not_found ->
      let id = cg_intern cg (symbol_at cpu entry) in
      Itbl.add cg.cg_entries entry id;
      id

(* The caller of a tail call is the frame it replaces. *)
let cg_enter cpu cg ~entry ~tail =
  let callee = cg_entry_name cpu cg entry in
  let key = pair cg.cg_name.(cg_top cg) callee in
  let e =
    match Itbl.find cg.cg_edges key with
    | e -> e
    | exception Not_found ->
        let e = { e_calls = 0; e_tcalls = 0 } in
        Itbl.add cg.cg_edges key e;
        e
  in
  if tail then begin
    e.e_tcalls <- e.e_tcalls + 1;
    cg_replace_top cg ~name:callee ~fp:cpu.regs.(Isa.fp)
  end
  else begin
    e.e_calls <- e.e_calls + 1;
    cg_push cg ~name:callee ~fp:cpu.regs.(Isa.fp)
  end

(* A node's call path, ";"-joined names from the root, built when first
   read. *)
let rec cg_path cg node =
  if Array.length cg.cg_text < cg.cg_nodes then cg.cg_text <- grow cg.cg_text (cg.cg_nodes - 1) "";
  match cg.cg_text.(node) with
  | "" ->
      let name = cg.cg_names.(cg.cg_name.(node)) in
      let text = if node = 0 then name else cg_path cg cg.cg_parent.(node) ^ ";" ^ name in
      cg.cg_text.(node) <- text;
      text
  | text -> text

let shadow_path cpu = match cpu.callgraph with Some cg -> cg_path cg (cg_top cg) | None -> ""
let shadow_depth cpu = match cpu.callgraph with Some cg -> cg.cg_depth | None -> 0

(* Synthetic frames for host-side boundaries (Rt.call re-entry, native
   service handlers): they mirror no machine frame of their own, so they
   inherit the current FP and are popped by truncation, not by RET. *)
let shadow_push_host cpu =
  match cpu.callgraph with
  | None -> ()
  | Some cg -> cg_push cg ~name:host_name ~fp:cpu.regs.(Isa.fp)

(* "*:SQ-CONS" -> "svc:CONS" *)
let svc_frame_name id =
  let name = Isa.svc_name id and prefix = "*:SQ-" in
  let n = String.length prefix in
  if String.length name > n && String.starts_with ~prefix name then
    "svc:" ^ String.sub name n (String.length name - n)
  else "svc:" ^ name

let shadow_push_service cpu id =
  match cpu.callgraph with
  | None -> ()
  | Some cg ->
      let name =
        match Itbl.find cg.cg_services id with
        | name -> name
        | exception Not_found ->
            let name = cg_intern cg (svc_frame_name id) in
            Itbl.add cg.cg_services id name;
            name
      in
      cg_push cg ~name ~fp:cpu.regs.(Isa.fp)

let shadow_truncate cpu depth =
  match cpu.callgraph with
  | None -> ()
  | Some cg -> if cg.cg_depth > depth then cg.cg_depth <- max 1 depth

(* CATCH/THROW unwind: the machine restored SP/FP/TP/ENV directly from
   the catch frame without executing the intervening RETs, so pop every
   shadow frame belonging to an abandoned machine frame (FP strictly
   above the catch target's FP). *)
let shadow_unwind_to cpu ~fp =
  match cpu.callgraph with
  | None -> ()
  | Some cg ->
      while cg.cg_depth > 1 && cg.cg_fps.(cg.cg_depth - 1) > fp do
        cg_pop cg
      done

let shadow_charge_alloc cpu words =
  match cpu.callgraph with
  | None -> ()
  | Some cg ->
      let node = cg_top cg in
      cg.cg_words.(node) <- cg.cg_words.(node) + words

(* Folded-stack export (flamegraph collapse format): one "path count"
   line per node with a nonzero count, sorted by path for
   byte-determinism. *)
let folded_of cpu counts =
  match cpu.callgraph with
  | None -> []
  | Some cg ->
      let rows = ref [] in
      for node = cg.cg_nodes - 1 downto 0 do
        let c = (counts cg).(node) in
        if c > 0 then rows := (cg_path cg node, c) :: !rows
      done;
      List.sort (fun (a, _) (b, _) -> String.compare a b) !rows

let folded_alloc cpu = folded_of cpu (fun cg -> cg.cg_words)

let render_folded cpu =
  let b = Buffer.create 1024 in
  List.iter (fun (p, c) -> Printf.bprintf b "%s %d\n" p c) (folded_of cpu (fun cg -> cg.cg_cycles));
  Buffer.contents b

type edge_profile = {
  ep_caller : string;
  ep_callee : string;
  ep_calls : int;
  ep_tcalls : int;
  ep_incl_cycles : int;  (* cycles of paths containing the edge *)
  ep_excl_cycles : int;  (* cycles of paths whose leaf is the edge *)
}

(* The gprof-style caller->callee table.  Exclusive cycles of an edge
   are the cycles of nodes whose leaf frame it enters; inclusive cycles
   count every node whose path contains the edge (once per path, even
   if recursion repeats it). *)
let call_edges cpu : edge_profile list =
  match cpu.callgraph with
  | None -> []
  | Some cg ->
      let incl = Itbl.create 64 and excl = Itbl.create 64 in
      let add tbl key n = Itbl.replace tbl key (n + Option.value ~default:0 (Itbl.find_opt tbl key)) in
      let edge node = pair cg.cg_name.(cg.cg_parent.(node)) cg.cg_name.(node) in
      let rec path_edges node acc = if node = 0 then acc else path_edges cg.cg_parent.(node) (edge node :: acc) in
      for node = 1 to cg.cg_nodes - 1 do
        let c = cg.cg_cycles.(node) in
        if c > 0 then begin
          add excl (edge node) c;
          List.iter (fun e -> add incl e c) (List.sort_uniq compare (path_edges node []))
        end
      done;
      let get tbl key = Option.value ~default:0 (Itbl.find_opt tbl key) in
      Itbl.fold
        (fun key e acc ->
          {
            ep_caller = cg.cg_names.(key lsr 30);
            ep_callee = cg.cg_names.(key land ((1 lsl 30) - 1));
            ep_calls = e.e_calls;
            ep_tcalls = e.e_tcalls;
            ep_incl_cycles = get incl key;
            ep_excl_cycles = get excl key;
          }
          :: acc)
        cg.cg_edges []
      |> List.sort (fun a b ->
             match compare b.ep_incl_cycles a.ep_incl_cycles with
             | 0 -> compare (a.ep_caller, a.ep_callee) (b.ep_caller, b.ep_callee)
             | n -> n)

(* Per-PC views ----------------------------------------------------------- *)

type tally = {
  mutable t_pc : int;  (* lowest PC that executed *)
  mutable t_cycles : int;
  mutable t_instrs : int;
  mutable t_movs : int;
  mutable t_calls : int;
}

(* The one per-PC group-by: every PC that executed or was called into
   folds into the row [key pc] names.  MOV counts come from the
   instruction now at the PC, exact because {!code_release} zeroes the
   rows of the slots it drops. *)
let tally_by cpu key =
  match cpu.profile with
  | None -> []
  | Some p ->
      let rows = Hashtbl.create 32 in
      for pc = 0 to min cpu.code_len (Array.length p.p_cycles) - 1 do
        let n = p.p_instrs.(pc) in
        if n > 0 || p.p_calls.(pc) > 0 then begin
          let k = key pc in
          let t =
            match Hashtbl.find_opt rows k with
            | Some t -> t
            | None ->
                let t = { t_pc = pc; t_cycles = 0; t_instrs = 0; t_movs = 0; t_calls = 0 } in
                Hashtbl.add rows k t;
                t
          in
          if t.t_instrs = 0 then t.t_pc <- pc;
          t.t_cycles <- t.t_cycles + p.p_cycles.(pc);
          t.t_instrs <- t.t_instrs + n;
          if Isa.is_mov cpu.code.(pc) then t.t_movs <- t.t_movs + n;
          t.t_calls <- t.t_calls + p.p_calls.(pc)
        end
      done;
      Hashtbl.fold (fun k t acc -> (k, t) :: acc) rows []

(* Rows of PCs that executed, hottest first, ties broken by key. *)
let executed rows =
  List.filter (fun (_, t) -> t.t_instrs > 0) rows
  |> List.sort (fun (ka, a) (kb, b) ->
         match compare b.t_cycles a.t_cycles with 0 -> compare ka kb | n -> n)

type func_profile = {
  f_name : string;
  f_entry : int;  (** lowest loaded code address of the symbol; max_int for "?" *)
  f_cycles : int;
  f_instructions : int;
  f_movs : int;
  f_calls : int;
}

(* PCs outside any loaded symbol range (the halt stub, hand-assembled
   test code) pool under "?"; ties (equal cycles) break on entry PC, then
   name, so --profile output is byte-deterministic. *)
let profile_by_function cpu : func_profile list =
  let entry_of name =
    List.fold_left (fun acc (lo, _, n) -> if n = name && lo < acc then lo else acc) max_int cpu.symbols
  in
  tally_by cpu (symbol_at cpu)
  |> List.map (fun (name, t) ->
         { f_name = name; f_entry = entry_of name; f_cycles = t.t_cycles;
           f_instructions = t.t_instrs; f_movs = t.t_movs; f_calls = t.t_calls })
  |> List.sort (fun a b ->
         match compare b.f_cycles a.f_cycles with
         | 0 -> compare (a.f_entry, a.f_name) (b.f_entry, b.f_name)
         | n -> n)

type line_profile = {
  ln_file : string;  (** ["(runtime)"] for unmapped code, ["(no-source)"] for unlocated nodes *)
  ln_line : int;  (** 0 for the two synthetic buckets *)
  ln_cycles : int;
  ln_instructions : int;
  ln_movs : int;
}

(* Every executed PC lands in exactly one bucket (a real source line, or
   one of the two synthetic ones), so the cycle column sums to exactly
   [stats.cycles] whenever stats and the profile were reset together. *)
let profile_by_line cpu : line_profile list =
  let line_at pc =
    match provenance_at cpu pc with
    | Some { Asm.m_loc = Some l; _ } -> (l.S1_loc.Loc.file, l.S1_loc.Loc.line)
    | Some { Asm.m_loc = None; _ } -> ("(no-source)", 0)
    | None -> ("(runtime)", 0)
  in
  executed (tally_by cpu line_at)
  |> List.map (fun ((file, line), t) ->
         { ln_file = file; ln_line = line; ln_cycles = t.t_cycles;
           ln_instructions = t.t_instrs; ln_movs = t.t_movs })

let opcode_histogram cpu =
  tally_by cpu (fun pc -> Isa.mnemonic cpu.code.(pc))
  |> List.filter_map (fun (op, t) -> if t.t_instrs > 0 then Some (op, t.t_instrs) else None)
  |> List.sort (fun (ka, a) (kb, b) -> match compare b a with 0 -> compare ka kb | n -> n)

let pp_profile fmt cpu =
  let fns = profile_by_function cpu in
  let total = List.fold_left (fun acc f -> acc + f.f_cycles) 0 fns in
  let pct c = if total = 0 then 0.0 else 100.0 *. float_of_int c /. float_of_int total in
  Format.fprintf fmt "@[<v>%-28s %12s %6s %10s %8s %8s@," "function" "cycles" "%" "instrs"
    "movs" "calls";
  List.iter
    (fun f ->
      Format.fprintf fmt "%-28s %12d %5.1f%% %10d %8d %8d@," f.f_name f.f_cycles (pct f.f_cycles)
        f.f_instructions f.f_movs f.f_calls)
    fns;
  Format.fprintf fmt "@,%-28s %12d@," "total" total;
  (match call_edges cpu with
  | [] -> ()
  | edges ->
      Format.fprintf fmt "@,%-40s %8s %8s %12s %12s@," "caller -> callee" "calls" "tcalls"
        "incl" "excl";
      List.iter
        (fun e ->
          Format.fprintf fmt "%-40s %8d %8d %12d %12d@,"
            (e.ep_caller ^ " -> " ^ e.ep_callee)
            e.ep_calls e.ep_tcalls e.ep_incl_cycles e.ep_excl_cycles)
        edges);
  (match profile_by_line cpu with
  | [] -> ()
  | lines ->
      Format.fprintf fmt "@,%-28s %12s %6s %10s %8s@," "source line" "cycles" "%" "instrs"
        "movs";
      List.iter
        (fun l ->
          let label =
            if l.ln_line = 0 then l.ln_file else Printf.sprintf "%s:%d" l.ln_file l.ln_line
          in
          Format.fprintf fmt "%-28s %12d %5.1f%% %10d %8d@," label l.ln_cycles (pct l.ln_cycles)
            l.ln_instructions l.ln_movs)
        lines);
  (* by generating IR node; -1 for unmapped code *)
  let node_at pc = match provenance_at cpu pc with Some m -> m.Asm.m_node | None -> -1 in
  (match executed (tally_by cpu node_at) with
  | [] -> ()
  | nodes ->
      Format.fprintf fmt "@,%-28s %12s %6s %10s@," "IR node" "cycles" "%" "instrs";
      List.iter
        (fun (node, t) ->
          let label =
            match provenance_at cpu t.t_pc with
            | Some { Asm.m_loc = Some l; _ } when node >= 0 ->
                Printf.sprintf "n%d @ %s" node (S1_loc.Loc.to_string l)
            | _ -> if node < 0 then "(runtime)" else Printf.sprintf "n%d" node
          in
          Format.fprintf fmt "%-28s %12d %5.1f%% %10d@," label t.t_cycles (pct t.t_cycles)
            t.t_instrs)
        nodes);
  (match opcode_histogram cpu with
  | [] -> ()
  | ops ->
      Format.fprintf fmt "@,%-28s %12s@," "opcode" "executed";
      List.iter (fun (op, n) -> Format.fprintf fmt "%-28s %12d@," op n) ops);
  Format.fprintf fmt "@]"

let get_reg cpu r = cpu.regs.(r)
let set_reg cpu r v = cpu.regs.(r) <- v land Word.mask

(* Operand evaluation --------------------------------------------------- *)

let eff_addr cpu (o : Isa.operand) =
  match o with
  | Mabs a -> a
  | Ind (r, d) -> cpu.regs.(r) + d
  | Idx { base; disp; index; shift } -> cpu.regs.(base) + disp + (cpu.regs.(index) lsl shift)
  | Defind (r, d, off) -> Word.addr_of (Mem.read cpu.mem (cpu.regs.(r) + d)) + off
  | Defreg (r, off) -> Word.addr_of cpu.regs.(r) + off
  | Reg _ | Imm _ | Lab _ | Dlab _ -> trap cpu Illegal_instruction "operand has no effective address"

let value cpu (o : Isa.operand) =
  cpu.stats.mem_traffic <- cpu.stats.mem_traffic + Isa.operand_cycles o;
  match o with
  | Reg r -> cpu.regs.(r)
  | Imm v -> v land Word.mask
  | Lab _ | Dlab _ -> trap cpu Illegal_instruction "unresolved label operand"
  | _ -> Mem.read cpu.mem (eff_addr cpu o)

let store cpu (o : Isa.operand) v =
  cpu.stats.mem_traffic <- cpu.stats.mem_traffic + Isa.operand_cycles o;
  match o with
  | Reg r -> cpu.regs.(r) <- v land Word.mask
  | Imm _ | Lab _ | Dlab _ -> trap cpu Illegal_instruction "store to non-writable operand"
  | _ -> Mem.write cpu.mem (eff_addr cpu o) v

(* Double-width (two-word) access: register pairs or adjacent memory. *)
let value2 cpu (o : Isa.operand) =
  match o with
  | Reg r ->
      if r + 1 >= Isa.nregs then trap cpu Illegal_instruction "double-width register pair out of range"
      else (cpu.regs.(r), cpu.regs.(r + 1))
  | Imm _ | Lab _ | Dlab _ -> trap cpu Illegal_instruction "double-width immediate"
  | _ ->
      let a = eff_addr cpu o in
      (Mem.read cpu.mem a, Mem.read cpu.mem (a + 1))

let store2 cpu (o : Isa.operand) (hi, lo) =
  match o with
  | Reg r ->
      if r + 1 >= Isa.nregs then trap cpu Illegal_instruction "double-width register pair out of range"
      else begin
        cpu.regs.(r) <- hi land Word.mask;
        cpu.regs.(r + 1) <- lo land Word.mask
      end
  | Imm _ | Lab _ | Dlab _ -> trap cpu Illegal_instruction "store to non-writable operand"
  | _ ->
      let a = eff_addr cpu o in
      Mem.write cpu.mem a hi;
      Mem.write cpu.mem (a + 1) lo

(* Stack ----------------------------------------------------------------- *)

let push cpu v =
  let sp = cpu.regs.(Isa.sp) + 1 in
  if sp >= Mem.stack_limit cpu.mem then trap cpu Control_stack_overflow "control stack overflow"
  else begin
    cpu.regs.(Isa.sp) <- sp;
    Mem.write cpu.mem sp v;
    let depth = sp - Mem.stack_base cpu.mem in
    if depth > cpu.stats.stack_high then cpu.stats.stack_high <- depth
  end

let pop cpu =
  let sp = cpu.regs.(Isa.sp) in
  if sp <= Mem.stack_base cpu.mem then trap cpu Control_stack_underflow "control stack underflow"
  else begin
    cpu.regs.(Isa.sp) <- sp - 1;
    Mem.read cpu.mem sp
  end

(* Call convention ------------------------------------------------------- *)

let code_tag = Tags.to_int Tags.Code
let closure_tag = Tags.to_int Tags.Closure

(* The entry address of a function object, or -1 for a non-function.  A
   Code-tagged word points at a code object whose payload word 0 is the
   raw entry address; a closure's payload pairs a code word with an
   environment word, which the call loads into ENV ([closure_env]). *)
let function_entry cpu fobj =
  let tag = Word.tag_of fobj in
  if tag = code_tag then Word.addr_of (Mem.read cpu.mem (Word.addr_of fobj))
  else if tag = closure_tag then
    let code_word = Mem.read cpu.mem (Word.addr_of fobj) in
    if Word.tag_of code_word = code_tag then Word.addr_of (Mem.read cpu.mem (Word.addr_of code_word))
    else -1
  else -1

(* A closure's environment word, or -1 (never a word) for a code object:
   read before the call rewrites any frame. *)
let closure_env cpu fobj =
  if Word.tag_of fobj = closure_tag then Mem.read cpu.mem (Word.addr_of fobj + 1) else -1

let do_call cpu fobj nargs ~ret =
  let entry = function_entry cpu fobj in
  if entry < 0 then begin
    if cpu.bad_function_svc >= 0 then begin
      cpu.regs.(0) <- fobj;
      cpu.service cpu cpu.bad_function_svc
    end
    else fail cpu "call to non-function word %#x" fobj
  end
  else begin
    let env = closure_env cpu fobj in
    cpu.stats.calls <- cpu.stats.calls + 1;
    (match cpu.profile with Some p -> count_arrival cpu p entry | None -> ());
    cpu.regs.(Isa.rta) <- nargs;
    push cpu ret;
    push cpu cpu.regs.(Isa.fp);
    push cpu cpu.regs.(Isa.tp);
    push cpu cpu.regs.(Isa.env);
    push cpu nargs;
    cpu.regs.(Isa.fp) <- cpu.regs.(Isa.sp);
    if env >= 0 then cpu.regs.(Isa.env) <- env;
    cpu.pc <- entry;
    match cpu.callgraph with Some cg -> cg_enter cpu cg ~entry ~tail:false | None -> ()
  end

let do_tcall cpu fobj nargs =
  let entry = function_entry cpu fobj in
  if entry < 0 then begin
    if cpu.bad_function_svc >= 0 then begin
      cpu.regs.(0) <- fobj;
      cpu.service cpu cpu.bad_function_svc
    end
    else fail cpu "tail call to non-function word %#x" fobj
  end
  else begin
    let env = closure_env cpu fobj in
    cpu.stats.tcalls <- cpu.stats.tcalls + 1;
    (match cpu.profile with Some p -> count_arrival cpu p entry | None -> ());
    let fp = cpu.regs.(Isa.fp) in
    let old_argc = Word.addr_of (Mem.read cpu.mem fp) in
    let ret = Mem.read cpu.mem (fp - 4) in
    let saved_fp = Mem.read cpu.mem (fp - 3) in
    let saved_tp = Mem.read cpu.mem (fp - 2) in
    let saved_env = Mem.read cpu.mem (fp - 1) in
    (* New args currently sit on top of the stack. *)
    let sp = cpu.regs.(Isa.sp) in
    let src = sp - nargs + 1 in
    let dst = fp - 4 - old_argc in
    for i = 0 to nargs - 1 do
      Mem.write cpu.mem (dst + i) (Mem.read cpu.mem (src + i))
    done;
    let lk = dst + nargs in
    Mem.write cpu.mem lk ret;
    Mem.write cpu.mem (lk + 1) saved_fp;
    Mem.write cpu.mem (lk + 2) saved_tp;
    Mem.write cpu.mem (lk + 3) saved_env;
    Mem.write cpu.mem (lk + 4) nargs;
    cpu.regs.(Isa.fp) <- lk + 4;
    cpu.regs.(Isa.sp) <- lk + 4;
    cpu.regs.(Isa.rta) <- nargs;
    if env >= 0 then cpu.regs.(Isa.env) <- env;
    cpu.pc <- entry;
    match cpu.callgraph with Some cg -> cg_enter cpu cg ~entry ~tail:true | None -> ()
  end

let do_ret cpu =
  let fp = cpu.regs.(Isa.fp) in
  let argc = Word.addr_of (Mem.read cpu.mem fp) in
  let ret = Mem.read cpu.mem (fp - 4) in
  cpu.regs.(Isa.sp) <- fp - 5 - argc;
  cpu.regs.(Isa.env) <- Mem.read cpu.mem (fp - 1);
  cpu.regs.(Isa.tp) <- Mem.read cpu.mem (fp - 2);
  cpu.regs.(Isa.fp) <- Mem.read cpu.mem (fp - 3);
  cpu.pc <- Word.addr_of ret;
  match cpu.callgraph with Some cg -> cg_pop cg | None -> ()

(* Arithmetic ------------------------------------------------------------ *)

let int_binop cpu (op : Isa.binop) x y =
  let sx = Word.to_signed x and sy = Word.to_signed y in
  let div_round rounding a b =
    if b = 0 then fail cpu "division by zero"
    else
      let q =
        match rounding with
        | Isa.Floor -> if (a < 0) <> (b < 0) && a mod b <> 0 then (a / b) - 1 else a / b
        | Isa.Ceiling -> if (a < 0) = (b < 0) && a mod b <> 0 then (a / b) + 1 else a / b
        | Isa.Truncate -> a / b
        | Isa.Round ->
            let fq = float_of_int a /. float_of_int b in
            let r = Float.round fq in
            (* ties to even *)
            let r = if Float.abs (fq -. Float.of_int (int_of_float r)) = 0.5 then
                      let fl = Float.floor fq in
                      if Float.rem fl 2.0 = 0.0 then int_of_float fl else int_of_float fl + 1
                    else int_of_float r
            in
            r
      in
      q
  in
  match op with
  | ADD -> Word.add x y
  | SUB -> Word.sub x y
  | MULT -> Word.mul x y
  | DIV r -> Word.of_int (div_round r sx sy)
  | MOD ->
      if sy = 0 then fail cpu "MOD by zero"
      else Word.of_int (sx - (sy * (if (sx < 0) <> (sy < 0) && sx mod sy <> 0 then (sx / sy) - 1 else sx / sy)))
  | REM -> if sy = 0 then fail cpu "REM by zero" else Word.of_int (sx mod sy)
  | AND -> Word.logand x y
  | OR -> Word.logor x y
  | XOR -> Word.logxor x y
  | ASH -> Word.shift x sy
  | FADD | FSUB | FMULT | FDIV | FMAX | FMIN | FATAN -> trap cpu Wrong_type "float op dispatched as int"

let float_binop cpu (op : Isa.binop) x y =
  match op with
  | FADD -> x +. y
  | FSUB -> x -. y
  | FMULT -> x *. y
  | FDIV -> x /. y
  | FMAX -> Float.max x y
  | FMIN -> Float.min x y
  | FATAN -> Float.atan2 x y
  | _ -> trap cpu Wrong_type "int op dispatched as float"

let is_float_binop : Isa.binop -> bool = function
  | FADD | FSUB | FMULT | FDIV | FMAX | FMIN | FATAN -> true
  | _ -> false

let two_pi = 2.0 *. Float.pi

let float_unop cpu (op : Isa.unop) x =
  match op with
  | FNEG -> -.x
  | FABS -> Float.abs x
  | FSQRT -> Float.sqrt x
  | FSIN -> Float.sin (two_pi *. x) (* argument in cycles: the S-1 convention *)
  | FCOS -> Float.cos (two_pi *. x)
  | FEXP -> Float.exp x
  | FLOG -> Float.log x
  | _ -> trap cpu Wrong_type "non-float unop dispatched as float"

(* Decoded execution ------------------------------------------------------ *)

(* Each code slot runs through [ops], a closure decoded from its
   instruction on first fetch (Feeley & Lapalme's closure generation,
   applied to the machine).  Decoding resolves the opcode, base cycles,
   jump targets, immediates and operand shapes; register, immediate and
   register+displacement operands of the hot instructions get closures of
   their own, the rest use the generic [value]/[store].  Every closure
   charges in one order, the instruction and its base cycles first, then
   each operand's traffic as it is accessed, so a trap part-way through
   leaves exactly what was charged up to the fault.  On entry [cpu.pc] is
   the closure's own address, so no closure captures it.

   Invariants: [ops] is never longer than [code] and grows, with room to
   spare, when a fetch runs past its end; slots at or past [code_len]
   hold [undecoded]; [code_release] resets the slots it drops, a load
   only writes fresh ones and [restore_code] releases every slot before
   it writes.  Nothing else writes [code]. *)

type shape = Sreg of int | Simm of int | Sind of int * int | Sgen

(* [Sgen] covers malformed operands too: they trap in the generic path. *)
let shape : Isa.operand -> shape = function
  | Reg r when r >= 0 && r < Isa.nregs -> Sreg r
  | Imm v -> Simm (v land Word.mask)
  | Ind (r, d) when r >= 0 && r < Isa.nregs -> Sind (r, d)
  | _ -> Sgen

let[@inline] tick cpu k =
  cpu.stats.instructions <- cpu.stats.instructions + 1;
  cpu.stats.cycles <- cpu.stats.cycles + k

let[@inline] count_mov cpu = cpu.stats.movs <- cpu.stats.movs + 1
let[@inline] traffic cpu = cpu.stats.mem_traffic <- cpu.stats.mem_traffic + 1
let[@inline] reg cpu r = Array.unsafe_get cpu.regs r
let[@inline] set cpu r v = Array.unsafe_set cpu.regs r (v land Word.mask)
let[@inline] next cpu = cpu.pc <- cpu.pc + 1
let[@inline] read_ind cpu r d = traffic cpu; Mem.read cpu.mem (reg cpu r + d)
let[@inline] write_ind cpu r d v = traffic cpu; Mem.write cpu.mem (reg cpu r + d) v
let[@inline] holds c x y = Isa.cond_holds c (Int.compare x y)
let code_ptr addr = Word.make_ptr ~tag:(Tags.to_int Tags.Code) ~addr

let jump_target cpu = function
  | Isa.Abs n -> n
  | Isa.L l -> trap cpu Illegal_instruction "unresolved target %s" l

let decode_mov d src : t -> unit =
  match (shape d, shape src) with
  | Sreg d, Sreg r -> fun cpu -> tick cpu 1; count_mov cpu; set cpu d (reg cpu r); next cpu
  | Sreg d, Simm v -> fun cpu -> tick cpu 1; count_mov cpu; set cpu d v; next cpu
  | Sreg d, Sind (r, k) -> fun cpu -> tick cpu 1; count_mov cpu; set cpu d (read_ind cpu r k); next cpu
  | Sind (r, k), Sreg x -> fun cpu -> tick cpu 1; count_mov cpu; write_ind cpu r k (reg cpu x); next cpu
  | Sind (r, k), Simm v -> fun cpu -> tick cpu 1; count_mov cpu; write_ind cpu r k v; next cpu
  | Sind (r, k), Sind (r2, k2) ->
      fun cpu ->
        tick cpu 1;
        count_mov cpu;
        let v = read_ind cpu r2 k2 in
        write_ind cpu r k v;
        next cpu
  | _ -> fun cpu -> tick cpu 1; count_mov cpu; store cpu d (value cpu src); next cpu

let decode_jmp c s1 s2 t : t -> unit =
  match (shape s1, shape s2, t) with
  | Sreg a, Simm b, Isa.Abs n ->
      let b = Word.to_signed b in
      fun cpu ->
        tick cpu 2;
        cpu.pc <- (if holds c (Word.to_signed (reg cpu a)) b then n else cpu.pc + 1)
  | Sreg a, Sreg b, Isa.Abs n ->
      fun cpu ->
        tick cpu 2;
        let x = Word.to_signed (reg cpu a) and y = Word.to_signed (reg cpu b) in
        cpu.pc <- (if holds c x y then n else cpu.pc + 1)
  | _ ->
      fun cpu ->
        tick cpu 2;
        let x = Word.to_signed (value cpu s1) in
        let y = Word.to_signed (value cpu s2) in
        cpu.pc <- (if holds c x y then jump_target cpu t else cpu.pc + 1)

(* Single-float arithmetic, one closure per operator, so the operands
   and the result stay in registers instead of host boxes.  FMAX, FMIN
   and FATAN take the generic path. *)
let decode_fbin (op : Isa.binop) k d s1 s2 : t -> unit =
  let open Float36 in
  match op with
  | FADD ->
      fun cpu ->
        tick cpu k;
        let x = value cpu s1 in
        let y = value cpu s2 in
        store cpu d (encode_single (decode_single x +. decode_single y));
        next cpu
  | FSUB ->
      fun cpu ->
        tick cpu k;
        let x = value cpu s1 in
        let y = value cpu s2 in
        store cpu d (encode_single (decode_single x -. decode_single y));
        next cpu
  | FMULT ->
      fun cpu ->
        tick cpu k;
        let x = value cpu s1 in
        let y = value cpu s2 in
        store cpu d (encode_single (decode_single x *. decode_single y));
        next cpu
  | _ (* FDIV *) ->
      fun cpu ->
        tick cpu k;
        let x = value cpu s1 in
        let y = value cpu s2 in
        store cpu d (encode_single (decode_single x /. decode_single y));
        next cpu

let decode (i : Isa.instr) : t -> unit =
  let k = Isa.base_cycles i in
  match i with
  | Mov (d, src) -> decode_mov d src
  | Movp (tag, d, src) ->
      let tag = Tags.to_int tag in
      fun cpu ->
        tick cpu k;
        let addr = eff_addr cpu src in
        store cpu d (Word.make_ptr ~tag ~addr);
        next cpu
  | Gettag (d, src) -> fun cpu -> tick cpu k; store cpu d (Word.tag_of (value cpu src)); next cpu
  | Getaddr (d, src) -> fun cpu -> tick cpu k; store cpu d (Word.addr_of (value cpu src)); next cpu
  | Settag (tag, d) ->
      let tag = Tags.to_int tag in
      fun cpu ->
        tick cpu k;
        let v = value cpu d in
        store cpu d (Word.make_ptr ~tag ~addr:(Word.addr_of v));
        next cpu
  | Bin (op, S, d, s1, s2) -> (
      match (op, shape d, shape s1, shape s2) with
      | ADD, Sreg d, Sreg a, Simm b -> fun cpu -> tick cpu 1; set cpu d (Word.add (reg cpu a) b); next cpu
      | ((FADD | FSUB | FMULT | FDIV) as op), _, _, _ -> decode_fbin op k d s1 s2
      | _ ->
          fun cpu ->
            tick cpu k;
            let x = value cpu s1 in
            let y = value cpu s2 in
            let r =
              if is_float_binop op then
                Float36.encode_single
                  (float_binop cpu op (Float36.decode_single x) (Float36.decode_single y))
              else int_binop cpu op x y
            in
            store cpu d r;
            next cpu)
  | Bin (op, D, d, s1, s2) ->
      fun cpu ->
        tick cpu k;
        let x = value2 cpu s1 in
        let y = value2 cpu s2 in
        if is_float_binop op then
          store2 cpu d
            (Float36.encode_double
               (float_binop cpu op (Float36.decode_double x) (Float36.decode_double y)))
        else fail cpu "double-width integer arithmetic unsupported";
        next cpu
  | Un (op, S, d, src) ->
      fun cpu ->
        tick cpu k;
        let x = value cpu src in
        let r =
          match op with
          | NEG -> Word.neg x
          | NOT -> Word.lognot x
          | DATUM -> Word.of_int (Word.datum_signed x)
          | FLOAT -> Float36.encode_single (float_of_int (Word.to_signed x))
          | FIX rounding ->
              let f = Float36.decode_single x in
              let v =
                match rounding with
                | Floor -> Float.floor f
                | Ceiling -> Float.ceil f
                | Truncate -> Float.trunc f
                | Round ->
                    (* ties to even, as the Lisp-level ROUND requires *)
                    if Float.abs (f -. Float.trunc f) = 0.5 then begin
                      let fl = Float.floor f in
                      if Float.rem fl 2.0 = 0.0 then fl else fl +. 1.0
                    end
                    else Float.round f
              in
              if Float.is_nan v || Float.abs v > 3.4e10 then fail cpu "FIX out of range"
              else Word.of_int (int_of_float v)
          | _ -> Float36.encode_single (float_unop cpu op (Float36.decode_single x))
        in
        store cpu d r;
        next cpu
  | Un (op, D, d, src) ->
      fun cpu ->
        tick cpu k;
        let x = Float36.decode_double (value2 cpu src) in
        (match op with
        | FNEG | FABS | FSQRT | FSIN | FCOS | FEXP | FLOG ->
            store2 cpu d (Float36.encode_double (float_unop cpu op x))
        | _ -> fail cpu "unsupported double-width unop");
        next cpu
  | Jmp (c, s1, s2, t) -> decode_jmp c s1 s2 t
  | Fjmp (c, s1, s2, t) ->
      fun cpu ->
        tick cpu k;
        let x = Float36.decode_single (value cpu s1) in
        let y = Float36.decode_single (value cpu s2) in
        cpu.pc <- (if Isa.cond_holds c (compare x y) then jump_target cpu t else cpu.pc + 1)
  | Jmpz (c, src, t) ->
      fun cpu ->
        tick cpu k;
        let x = Word.to_signed (value cpu src) in
        cpu.pc <- (if holds c x 0 then jump_target cpu t else cpu.pc + 1)
  | Jmptag (c, src, tag, t) -> (
      let tag = Tags.to_int tag in
      match (shape src, t) with
      | Sreg r, Abs n ->
          fun cpu ->
            tick cpu 2;
            cpu.pc <- (if holds c (Word.tag_of (reg cpu r)) tag then n else cpu.pc + 1)
      | _ ->
          fun cpu ->
            tick cpu k;
            let x = Word.tag_of (value cpu src) in
            cpu.pc <- (if holds c x tag then jump_target cpu t else cpu.pc + 1))
  | Jmpa (Abs n) -> fun cpu -> tick cpu 1; cpu.pc <- n
  | Jmpa t -> fun cpu -> tick cpu k; cpu.pc <- jump_target cpu t
  | Jmpi src -> fun cpu -> tick cpu k; cpu.pc <- Word.addr_of (value cpu src)
  | Jsp (r, t) ->
      fun cpu ->
        tick cpu k;
        cpu.regs.(r) <- code_ptr (cpu.pc + 1);
        cpu.pc <- jump_target cpu t
  | Push src -> (
      match shape src with
      | Sreg r -> fun cpu -> tick cpu 2; push cpu (reg cpu r); next cpu
      | Simm v -> fun cpu -> tick cpu 2; push cpu v; next cpu
      | Sind (r, d) -> fun cpu -> tick cpu 2; push cpu (read_ind cpu r d); next cpu
      | Sgen -> fun cpu -> tick cpu 2; push cpu (value cpu src); next cpu)
  | Pop d -> fun cpu -> tick cpu k; let v = pop cpu in store cpu d v; next cpu
  | Allocs (fill, n) ->
      fun cpu ->
        tick cpu k;
        let v = value cpu fill in
        for _ = 1 to n do
          push cpu v
        done;
        next cpu
  | Call (f, n) -> (
      match shape f with
      | Sreg r -> fun cpu -> tick cpu 8; do_call cpu (reg cpu r) n ~ret:(code_ptr (cpu.pc + 1))
      | _ -> fun cpu -> tick cpu 8; do_call cpu (value cpu f) n ~ret:(code_ptr (cpu.pc + 1)))
  | Tcall (f, n) -> (
      match shape f with
      | Sreg r -> fun cpu -> tick cpu 6; do_tcall cpu (reg cpu r) n
      | _ -> fun cpu -> tick cpu 6; do_tcall cpu (value cpu f) n)
  | Ret -> fun cpu -> tick cpu 6; do_ret cpu
  | Svc id -> fun cpu -> tick cpu 12; cpu.stats.svcs <- cpu.stats.svcs + 1; next cpu; cpu.service cpu id
  | Vdot (d, x, y, n) ->
      fun cpu ->
        tick cpu k;
        let xa = Word.addr_of (value cpu x) in
        let ya = Word.addr_of (value cpu y) in
        let len = Word.to_signed (value cpu n) in
        let acc = ref 0.0 in
        for i = 0 to len - 1 do
          acc :=
            !acc
            +. Float36.decode_single (Mem.read cpu.mem (xa + i))
               *. Float36.decode_single (Mem.read cpu.mem (ya + i))
        done;
        cpu.stats.cycles <- cpu.stats.cycles + (2 * max 0 len);
        store cpu d (Float36.encode_single !acc);
        next cpu
  | Vadd (d, x, y, n) ->
      fun cpu ->
        tick cpu k;
        let da = Word.addr_of (value cpu d) in
        let xa = Word.addr_of (value cpu x) in
        let ya = Word.addr_of (value cpu y) in
        let len = Word.to_signed (value cpu n) in
        for i = 0 to len - 1 do
          let v =
            Float36.decode_single (Mem.read cpu.mem (xa + i))
            +. Float36.decode_single (Mem.read cpu.mem (ya + i))
          in
          Mem.write cpu.mem (da + i) (Float36.encode_single v)
        done;
        cpu.stats.cycles <- cpu.stats.cycles + (2 * max 0 len);
        next cpu
  | Halt -> fun cpu -> tick cpu 1; cpu.halted <- true
  | Nop -> fun cpu -> tick cpu 1; next cpu

(* The filler of every slot not yet run: decode, install, execute. *)
let undecoded cpu =
  let pc = cpu.pc in
  let op = decode cpu.code.(pc) in
  cpu.ops.(pc) <- op;
  op cpu

let create ?mem () =
  let mem = match mem with Some m -> m | None -> Mem.create () in
  let cpu =
    {
      mem;
      code = Array.make 1024 Isa.Halt;
      ops = [||];
      code_len = 0;
      regs = Array.make Isa.nregs 0;
      pc = 0;
      halted = false;
      stats = fresh_stats ();
      service = (fun _ _ -> ());
      bad_function_svc = -1;
      profile = None;
      callgraph = None;
      symbols = [];
      mark_segments = [];
      deadline = None;
    }
  in
  (* Code address 0 is the universal halt used as the host's return
     continuation. *)
  cpu.code.(0) <- Isa.Halt;
  cpu.code_len <- 1;
  cpu.regs.(Isa.sp) <- Mem.stack_base mem;
  cpu.regs.(Isa.fp) <- Mem.stack_base mem;
  cpu.regs.(Isa.tp) <- Mem.stack_base mem;
  cpu.regs.(Isa.sb) <- Mem.bind_base mem;
  cpu

let ensure_capacity cpu n =
  if cpu.code_len + n > Array.length cpu.code then begin
    let cap = max (2 * Array.length cpu.code) (cpu.code_len + n) in
    let fresh = Array.make cap Isa.Halt in
    Array.blit cpu.code 0 fresh 0 cpu.code_len;
    cpu.code <- fresh
  end

let load ?reloc cpu prog =
  let org = cpu.code_len in
  let image = Asm.assemble ?reloc cpu.mem ~org prog in
  let n = Array.length image.instrs in
  ensure_capacity cpu n;
  Array.blit image.instrs 0 cpu.code cpu.code_len n;
  cpu.code_len <- cpu.code_len + n;
  if Array.length image.Asm.marks > 0 then
    cpu.mark_segments <- (org, org + n, image.Asm.marks) :: cpu.mark_segments;
  image

(* The fetch loops re-read [cpu.ops] on every fetch: a service can load
   code, growing the store, during a nested run.  [run] picks one loop
   per run; the instrumented one wraps the same closures. *)
let grow_ops cpu =
  let n = min (Array.length cpu.code) (cpu.code_len + (cpu.code_len / 4)) in
  let ops = Array.make n undecoded in
  Array.blit cpu.ops 0 ops 0 (Array.length cpu.ops);
  cpu.ops <- ops

let[@inline] fetch cpu =
  let pc = cpu.pc in
  if pc < 0 || pc >= cpu.code_len then trap cpu Bad_address "pc out of code range";
  if pc >= Array.length cpu.ops then grow_ops cpu;
  Array.unsafe_get cpu.ops pc

let run_plain cpu limit =
  let s = cpu.stats in
  while (not cpu.halted) && s.cycles < limit do
    (fetch cpu) cpu
  done

(* Every cycle an instruction adds charges to its PC and to the call path
   current at fetch time (so a CALL's own cycles charge to the caller),
   minus what a nested run already attributed. *)
let run_instrumented cpu limit =
  let s = cpu.stats in
  while (not cpu.halted) && s.cycles < limit do
    let op = fetch cpu in
    let pc = cpu.pc in
    let cycles0 = s.cycles in
    let node = match cpu.callgraph with Some cg -> cg_top cg | None -> 0 in
    op cpu;
    (match cpu.callgraph with
    | Some cg ->
        cg.cg_cycles.(node) <- cg.cg_cycles.(node) + (s.cycles - cg.cg_charged);
        cg.cg_charged <- s.cycles
    | None -> ());
    match cpu.profile with
    | None -> ()
    | Some p ->
        ensure_profile_capacity p pc;
        p.p_cycles.(pc) <- p.p_cycles.(pc) + (s.cycles - cycles0);
        p.p_instrs.(pc) <- p.p_instrs.(pc) + 1
  done

let run ?(fuel = 500_000_000) cpu ~at =
  cpu.pc <- at;
  cpu.halted <- false;
  let start = cpu.stats.cycles in
  let fuel_limit = start + fuel in
  let limit =
    match cpu.deadline with Some d -> min d fuel_limit | None -> fuel_limit
  in
  (* Mem raises Failure on out-of-range addresses; a wild pointer in a
     miscompiled program must surface as a structured trap, not as an
     untyped host exception. *)
  (try
     if not (profiling cpu || callgraph_on cpu) then run_plain cpu limit
     else run_instrumented cpu limit
   with Failure m -> trap cpu Bad_address "%s" m);
  if not cpu.halted then
    match cpu.deadline with
    | Some d when cpu.stats.cycles >= d ->
        (* No cycle counts in the message: the same deadline must render
           identically whether it fires during a cold compile or a warm
           replay, so incident journals stay byte-deterministic. *)
        trap cpu Deadline_expired "watchdog cycle deadline expired"
    | _ -> trap cpu Fuel_exhaustion "fuel exhausted after %d cycles" fuel

(* Rollback support for transactional loads: a mark taken before a load
   and released after a failure truncates the code store and drops the
   symbol ranges, PC line maps, decoded closures and per-PC profile rows
   of everything loaded past the mark, so a re-load lands at the same
   addresses with the same provenance and no inherited counts. *)
let code_mark cpu = cpu.code_len

let code_release cpu mark =
  if mark >= 0 && mark <= cpu.code_len then begin
    if mark < Array.length cpu.ops then
      Array.fill cpu.ops mark (min cpu.code_len (Array.length cpu.ops) - mark) undecoded;
    (match cpu.profile with
    | Some p when mark < Array.length p.p_cycles ->
        let n = Array.length p.p_cycles - mark in
        List.iter (fun a -> Array.fill a mark n 0) [ p.p_cycles; p.p_instrs; p.p_calls ]
    | _ -> ());
    cpu.code_len <- mark;
    cpu.symbols <- List.filter (fun (lo, _, _) -> lo < mark) cpu.symbols;
    cpu.mark_segments <- List.filter (fun (lo, _, _) -> lo < mark) cpu.mark_segments
  end

let restore_code cpu prefix =
  let n = Array.length prefix in
  code_release cpu 0;
  ensure_capacity cpu n;
  Array.blit prefix 0 cpu.code 0 n;
  cpu.code_len <- n

let call_function ?fuel cpu ~fobj ~args =
  List.iter (fun v -> push cpu v) args;
  do_call cpu fobj (List.length args)
    ~ret:(Word.make_ptr ~tag:(Tags.to_int Tags.Code) ~addr:halt_addr);
  let entry = cpu.pc in
  run ?fuel cpu ~at:entry;
  cpu.regs.(Isa.a)

let pp_stats fmt (s : stats) =
  Format.fprintf fmt
    "@[<v>cycles:       %d@,instructions: %d@,movs:         %d@,mem traffic:  %d@,\
     calls:        %d@,tail calls:   %d@,services:     %d@,stack high:   %d@,\
     bind high:    %d@]"
    s.cycles s.instructions s.movs s.mem_traffic s.calls s.tcalls s.svcs s.stack_high
    s.bind_high
