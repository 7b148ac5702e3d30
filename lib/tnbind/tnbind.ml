(** TNBIND: register and storage allocation (paper §6.1).

    "A TN ('temporary name') is assigned to every computational quantity
    in the program ... Each TN is annotated on the basis of the context
    of its use as to the costs associated with allocating it to one or
    another kind of storage location ... After all TNs have been
    annotated, a global packing process assigns each TN to a specific
    run-time storage location."

    TNs here cover user variables, special-variable cache pointers, pdl
    number slots, and compiler temporaries that must survive complex
    siblings.  (Very short-lived intermediate values travel through the
    RT registers and the machine stack inside single expressions; the
    packing problem the paper describes is about the quantities that
    outlive an expression.)

    Storage classes:
    - machine registers (fastest; destroyed by CALL, so only lifetimes
      that cross no call qualify);
    - pointer frame slots (FP-relative, NIL-initialized, GC-scanned);
    - scratch frame slots (TP-relative, stamped [DTP-GC] per Table 4,
      never interpreted as pointers; raw machine numbers, cached special
      cell addresses, and pdl numbers live here).

    [pack] is a greedy priority allocator; [pack ~naive:true] sends every
    TN to a frame slot (the no-TNBIND ablation of bench X6). *)

open S1_ir

type storage =
  | Sreg of int  (** machine register *)
  | Sframe of int  (** pointer slot index (0-based; FP+1+i) *)
  | Sscratch of int  (** scratch slot index (0-based; TP+i) *)

type tn = {
  tn_id : int;
  tn_name : string;
  tn_rep : Node.rep;
  tn_pointer : bool;  (** needs GC-visible (pointer region) storage if in memory *)
  tn_width : int;
  tn_loc : S1_loc.Loc.t option;  (** source position of the bound quantity, for remarks *)
  mutable tn_first : int;
  mutable tn_last : int;
  mutable tn_uses : int;
  mutable tn_across_call : bool;
  mutable tn_must_frame : bool;  (** pdl slots, special caches, captured cells *)
  mutable tn_storage : storage option;
}

type pool = {
  mutable tns : tn list;  (* newest first *)
  mutable next_id : int;
  mutable clock : int;
  mutable n_pointer_slots : int;
  mutable n_scratch_slots : int;
}

let create_pool () =
  { tns = []; next_id = 0; clock = 0; n_pointer_slots = 0; n_scratch_slots = 0 }

let fresh pool ?(width = 1) ?(must_frame = false) ?loc ~pointer ~rep name =
  pool.next_id <- pool.next_id + 1;
  let tn =
    {
      tn_id = pool.next_id;
      tn_name = name;
      tn_rep = rep;
      tn_pointer = pointer;
      tn_width = width;
      tn_loc = loc;
      tn_first = pool.clock;
      tn_last = pool.clock;
      tn_uses = 0;
      tn_across_call = false;
      tn_must_frame = must_frame;
      tn_storage = None;
    }
  in
  pool.tns <- tn :: pool.tns;
  tn

let overlap a b = a.tn_first <= b.tn_last && b.tn_first <= a.tn_last

(* Frame slot allocators. *)
let alloc_pointer_slot pool =
  let s = pool.n_pointer_slots in
  pool.n_pointer_slots <- s + 1;
  s

let alloc_scratch_slot pool width =
  let s = pool.n_scratch_slots in
  pool.n_scratch_slots <- s + width;
  s

type result = {
  r_pointer_slots : int;
  r_scratch_slots : int;
  r_in_registers : int;  (** TNs that won registers (bench X6 metric) *)
}

let pack ?(naive = false) ?(registers = [ 14; 15; 16; 17; 18; 19; 8; 9; 10; 11 ]) pool =
  let module Remark = S1_obs.Remark in
  (* Priority: most-used first, then shorter lifetimes. *)
  let order =
    List.sort
      (fun a b ->
        let c = compare b.tn_uses a.tn_uses in
        if c <> 0 then c else compare (a.tn_last - a.tn_first) (b.tn_last - b.tn_first))
      pool.tns
  in
  let assignments : (int * tn) list ref = ref [] in
  let in_regs = ref 0 in
  (* a decision's remark is built only while remarks are recorded *)
  let remarks = Remark.enabled () in
  let cost_args tn =
    [
      ("tn", Remark.Str tn.tn_name);
      ("uses", Remark.Int tn.tn_uses);
      ("lifetime", Remark.Int (tn.tn_last - tn.tn_first));
    ]
  in
  List.iter
    (fun tn ->
      if tn.tn_storage <> None then ()
      else begin
        let spill () =
          tn.tn_storage <-
            Some
              (if tn.tn_pointer then Sframe (alloc_pointer_slot pool)
               else Sscratch (alloc_scratch_slot pool tn.tn_width))
        in
        let qualified =
          (not tn.tn_must_frame) && (not tn.tn_across_call) && tn.tn_width = 1
        in
        if not qualified then begin
          (* structurally frame-bound: no packing order could help *)
          let why =
            if tn.tn_must_frame then
              "must live in the frame (pdl slot, special cache, or captured cell)"
            else if tn.tn_across_call then
              "lifetime crosses a call and registers are caller-destroyed"
            else "wider than one word"
          in
          if remarks then
            Remark.missed ~pass:"tnbind" ~rule:"TN-PACK" ?loc:tn.tn_loc ~args:(cost_args tn)
              (Printf.sprintf "TN %s packed to memory: %s" tn.tn_name why);
          spill ()
        end
        else if naive then begin
          if remarks then
            Remark.missed ~pass:"tnbind" ~rule:"TN-PACK" ?loc:tn.tn_loc ~args:(cost_args tn)
              (Printf.sprintf "TN %s sent to the frame: TNBIND packing disabled" tn.tn_name);
          spill ()
        end
        else begin
          (* try a register with no overlapping occupant *)
          let free r =
            not (List.exists (fun (r', tn') -> r = r' && overlap tn tn') !assignments)
          in
          match List.find_opt free registers with
          | Some r ->
              tn.tn_storage <- Some (Sreg r);
              assignments := (r, tn) :: !assignments;
              incr in_regs;
              if remarks then
                Remark.passed ~pass:"tnbind" ~rule:"TN-PACK" ?loc:tn.tn_loc ~args:(cost_args tn)
                  (Printf.sprintf "TN %s won register %s" tn.tn_name
                     (S1_machine.Isa.reg_name r))
          | None ->
              (* the cost numbers that lost: every register is held by a
                 TN whose lifetime overlaps this one *)
              if remarks then begin
                let competitors =
                  List.length
                    (List.filter (fun (_, tn') -> overlap tn tn') !assignments)
                in
                Remark.missed ~pass:"tnbind" ~rule:"TN-PACK" ?loc:tn.tn_loc
                  ~args:
                    (cost_args tn
                    @ [
                        ("competitors", Remark.Int competitors);
                        ("registers", Remark.Int (List.length registers));
                      ])
                  (Printf.sprintf
                     "TN %s lost the packing auction: all %d registers held by \
                      overlapping higher-priority TNs"
                     tn.tn_name (List.length registers))
              end;
              spill ()
        end
      end)
    order;
  {
    r_pointer_slots = pool.n_pointer_slots;
    r_scratch_slots = pool.n_scratch_slots;
    r_in_registers = !in_regs;
  }

(* Undoing a failed [pack]: it writes the TNs' storage, all unassigned
   before packing ([pack] is their only writer), and the two slot
   counters, which annotation may already have advanced. *)
let slots pool = (pool.n_pointer_slots, pool.n_scratch_slots)

let unpack pool (pointer_slots, scratch_slots) =
  List.iter (fun tn -> tn.tn_storage <- None) pool.tns;
  pool.n_pointer_slots <- pointer_slots;
  pool.n_scratch_slots <- scratch_slots

let total = S1_obs.Obs.counter "tn.total"
let in_registers = S1_obs.Obs.counter "tn.in_registers"
let pointer_slots = S1_obs.Obs.counter "tn.pointer_slots"
let scratch_slots = S1_obs.Obs.counter "tn.scratch_slots"
let across_call = S1_obs.Obs.counter "tn.across_call"
let count_across k tn = if tn.tn_across_call then k + 1 else k

(** Count a body's final packing into the [tn.*] counters, once. *)
let count pool r =
  let module Obs = S1_obs.Obs in
  Obs.add total (List.length pool.tns);
  Obs.add in_registers r.r_in_registers;
  Obs.add pointer_slots r.r_pointer_slots;
  Obs.add scratch_slots r.r_scratch_slots;
  Obs.add across_call (List.fold_left count_across 0 pool.tns)

let storage tn =
  match tn.tn_storage with
  | Some s -> s
  | None -> failwith (Printf.sprintf "TN %s not packed" tn.tn_name)

let pp_tn fmt tn =
  Format.fprintf fmt "TN%d %s rep=%s [%d,%d] uses=%d%s%s -> %s" tn.tn_id tn.tn_name
    (Node.rep_name tn.tn_rep) tn.tn_first tn.tn_last tn.tn_uses
    (if tn.tn_across_call then " xcall" else "")
    (if tn.tn_must_frame then " frame!" else "")
    (match tn.tn_storage with
    | Some (Sreg r) -> S1_machine.Isa.reg_name r
    | Some (Sframe i) -> Printf.sprintf "(FP %d)" (i + 1)
    | Some (Sscratch i) -> Printf.sprintf "(TP %d)" i
    | None -> "?")
