module Mem = S1_machine.Mem
module Word = S1_machine.Word
module Tags = S1_machine.Tags
module Obs = S1_obs.Obs

(* Raised only after a full collection still cannot satisfy the request;
   the service layer converts it into a {!S1_machine.Cpu} heap trap so a
   long-lived world survives one greedy program. *)
exception Heap_exhausted of { requested : int }

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

let kind_to_int = function
  | Free -> 0
  | Cons -> 1
  | Symbol -> 2
  | Single -> 3
  | Double -> 4
  | Bignum_obj -> 5
  | Ratio_obj -> 6
  | Complex_obj -> 7
  | String_obj -> 8
  | Vector_obj -> 9
  | Closure_obj -> 10
  | Code_obj -> 11

let kind_of_int = function
  | 0 -> Free
  | 1 -> Cons
  | 2 -> Symbol
  | 3 -> Single
  | 4 -> Double
  | 5 -> Bignum_obj
  | 6 -> Ratio_obj
  | 7 -> Complex_obj
  | 8 -> String_obj
  | 9 -> Vector_obj
  | 10 -> Closure_obj
  | 11 -> Code_obj
  | n -> invalid_arg (Printf.sprintf "bad heap kind %d" n)

let max_kind = 11

(* Counter suffix per kind, for the heap.alloc.* observability family. *)
let kind_counter_name = function
  | Free -> "free"
  | Cons -> "cons"
  | Symbol -> "symbol"
  | Single -> "single_flonum"
  | Double -> "double_flonum"
  | Bignum_obj -> "bignum"
  | Ratio_obj -> "ratio"
  | Complex_obj -> "complex"
  | String_obj -> "string"
  | Vector_obj -> "vector"
  | Closure_obj -> "closure"
  | Code_obj -> "code"

let alloc_counter =
  Array.init (max_kind + 1) (fun i ->
      Obs.counter ("heap.alloc." ^ kind_counter_name (kind_of_int i)))

let words_counter = Obs.counter "heap.alloc.words"

(* Header: [35: mark][34..30: kind][29..0: payload size]. *)
let header ~mark ~kind ~size =
  ((if mark then 1 else 0) lsl 35) lor (kind_to_int kind lsl 30) lor (size land 0x3FFFFFFF)

let h_mark w = (w lsr 35) land 1 = 1
let h_kind_int w = (w lsr 30) land 0x1F
let h_size w = w land 0x3FFFFFFF

type stats = {
  mutable allocations : int;
  mutable words_allocated : int;
  mutable collections : int;
  mutable live_after_last_gc : int;
}

(* The free list, rebuilt by each sweep: block [i] has its header at
   [free_hdr.(i)] and [free_size.(i)] payload words, -1 once allocation
   has used it up; headers ascend.  Between sweeps a block only shrinks,
   so once it is too small for a request size it stays too small, and
   [cursor.(n)] -- the first block that may hold [n] words -- only
   advances.  Requests of [ncursors] words or more start from the last
   cursor and scan on.  The block first fit picks, and the split, are
   those of a plain first-fit scan from the start.  A world that never
   collects never allocates the cursors. *)
let ncursors = 64

type t = {
  mem : Mem.t;
  base : int;
  limit : int;
  mutable bump : int;
  mutable free_hdr : int array;
  mutable free_size : int array;
  mutable free_len : int;
  mutable cursor : int array;
  stats : stats;
  mutable extra_roots : unit -> int list;
  mutable register_roots : unit -> int array;
  mutable stack_tops : unit -> int * int;
  mutable alloc_hook : int -> unit;
      (* called with each allocation's total words (header included);
         wired to the CPU's call-path profiler by Rt.create *)
}

let create mem =
  {
    mem;
    base = Mem.heap_base mem;
    limit = Mem.heap_limit mem;
    bump = Mem.heap_base mem;
    free_hdr = [||];
    free_size = [||];
    free_len = 0;
    cursor = [||];
    stats = { allocations = 0; words_allocated = 0; collections = 0; live_after_last_gc = 0 };
    extra_roots = (fun () -> []);
    register_roots = (fun () -> [||]);
    stack_tops = (fun () -> (Mem.stack_base mem, Mem.bind_base mem));
    alloc_hook = (fun _ -> ());
  }

let stats h = h.stats
let mem h = h.mem
let set_extra_roots h f = h.extra_roots <- f
let set_register_roots h f = h.register_roots <- f
let set_stack_tops h f = h.stack_tops <- f
let set_alloc_hook h f = h.alloc_hook <- f

let header_kind h p = kind_of_int (h_kind_int (Mem.read h.mem (p - 1)))

(* Is [p] the payload address of a live-looking object? *)
let is_valid_object h p =
  p > h.base && p < h.bump
  &&
  let hw = Mem.read h.mem (p - 1) in
  let k = h_kind_int hw in
  k >= 1 && k <= max_kind
  && p + h_size hw <= h.bump

(* Which tag values may legitimately point at which heap kinds. *)
let tag_matches_kind tag kind =
  match (Tags.of_int tag, kind) with
  | Tags.List, Cons
  | Tags.Symbol, Symbol
  | Tags.Single_flonum, Single
  | Tags.Double_flonum, Double
  | Tags.Bignum, Bignum_obj
  | Tags.Ratio, Ratio_obj
  | Tags.Complex, Complex_obj
  | Tags.String, String_obj
  | Tags.Vector, Vector_obj
  | Tags.Closure, Closure_obj
  | Tags.Code, Code_obj -> true
  | _ -> false

(* Mark ------------------------------------------------------------------ *)

(* Payload offsets to trace, per kind. *)
let scan_range kind size =
  match kind with
  | Cons | Ratio_obj | Complex_obj | Closure_obj -> (0, size)
  | Symbol -> (0, min 4 size)  (* name, value, function, plist; flags word is raw *)
  | Vector_obj -> (1, size)    (* word 0 is the raw length *)
  | Code_obj -> (1, min 2 size) (* word 1 is the name pointer *)
  | Free | Single | Double | Bignum_obj | String_obj -> (0, 0)

let mark_from h worklist =
  let mem = h.mem in
  let work = ref worklist in
  while !work <> [] do
    match !work with
    | [] -> ()
    | p :: rest ->
        work := rest;
        let hw = Mem.read mem (p - 1) in
        if not (h_mark hw) then begin
          Mem.write mem (p - 1) (hw lor (1 lsl 35));
          let kind = kind_of_int (h_kind_int hw) in
          let size = h_size hw in
          let lo, hi = scan_range kind size in
          for i = lo to hi - 1 do
            let w = Mem.read mem (p + i) in
            let tag = Word.tag_of w in
            let addr = Word.addr_of w in
            if Tags.is_pointer (Tags.of_int tag) && is_valid_object h addr
               && tag_matches_kind tag (header_kind h addr)
            then work := addr :: !work
          done
        end
  done

let consider h acc w =
  let tag = Word.tag_of w in
  let addr = Word.addr_of w in
  if Tags.is_pointer (Tags.of_int tag) && is_valid_object h addr
     && tag_matches_kind tag (header_kind h addr)
  then addr :: acc
  else acc

let gather_roots h =
  let mem = h.mem in
  let acc = ref [] in
  (* registers *)
  Array.iter (fun w -> acc := consider h !acc w) (h.register_roots ());
  (* control stack and binding stack *)
  let sp, sb = h.stack_tops () in
  for a = Mem.stack_base mem + 1 to min sp (Mem.stack_limit mem - 1) do
    acc := consider h !acc (Mem.read mem a)
  done;
  for a = Mem.bind_base mem to min (sb - 1) (Mem.bind_limit mem - 1) do
    acc := consider h !acc (Mem.read mem a)
  done;
  (* SQ page and the written part of the static region *)
  for a = 0 to Mem.static_base mem + Mem.static_used mem - 1 do
    acc := consider h !acc (Mem.read mem a)
  done;
  (* runtime-registered extras *)
  List.iter (fun w -> acc := consider h !acc w) (h.extra_roots ());
  !acc

(* Sweep ------------------------------------------------------------------ *)

let push_free h hdr size =
  if h.free_len = Array.length h.free_hdr then begin
    let cap = max 16 (2 * h.free_len) in
    let grow a = Array.append a (Array.make (cap - h.free_len) 0) in
    h.free_hdr <- grow h.free_hdr;
    h.free_size <- grow h.free_size
  end;
  h.free_hdr.(h.free_len) <- hdr;
  h.free_size.(h.free_len) <- size;
  h.free_len <- h.free_len + 1

(* Each run of dead objects becomes one free block; a trailing run
   shrinks the bump frontier instead. *)
let sweep h =
  let mem = h.mem in
  h.free_len <- 0;
  if Array.length h.cursor = 0 then h.cursor <- Array.make ncursors 0
  else Array.fill h.cursor 0 ncursors 0;
  let live = ref 0 in
  let a = ref h.base in
  let run = ref (-1) in  (* header address of the current dead run, or -1 *)
  while !a < h.bump do
    let hw = Mem.read mem !a in
    let span = h_size hw + 1 in
    if h_mark hw then begin
      if !run >= 0 then begin
        Mem.write mem !run (header ~mark:false ~kind:Free ~size:(!a - !run - 1));
        push_free h !run (!a - !run - 1);
        run := -1
      end;
      Mem.write mem !a (hw land lnot (1 lsl 35));
      live := !live + span
    end
    else if !run < 0 then run := !a;
    a := !a + span
  done;
  if !run >= 0 then h.bump <- !run;
  h.stats.live_after_last_gc <- !live

let collect h =
  h.stats.collections <- h.stats.collections + 1;
  let extent_before = h.bump - h.base in
  mark_from h (gather_roots h);
  sweep h;
  (* GC observability, under a deterministic cost model: mark and sweep
     each walk the heap extent once, so a pause charges two cycles per
     extent word.  Not a measurement — a reproducible attribution, like
     the simulator's instruction timings. *)
  let swept = max 0 (extent_before - h.stats.live_after_last_gc) in
  let pause = extent_before * 2 in
  Obs.incr "heap.gc.collections";
  Obs.incr ~n:swept "heap.gc.words_swept";
  Obs.incr ~n:pause "heap.gc.pause_cycles";
  if S1_obs.Timeline.enabled () then
    S1_obs.Timeline.complete ~cat:"gc" ~dur:pause
      ~args:
        [
          ("words_swept", S1_obs.Json.Int swept);
          ("live", S1_obs.Json.Int h.stats.live_after_last_gc);
        ]
      "collect"

(* Allocation --------------------------------------------------------------- *)

(* First fit: the header address of the block chosen, or -1.  A block
   larger than the request splits, the allocated part first, the
   remainder keeping a Free header. *)
let take_free h nwords =
  if h.free_len = 0 then -1 (* before the first sweep there are no cursors *)
  else begin
    let c = if nwords < ncursors then nwords else ncursors - 1 in
    let sizes = h.free_size and len = h.free_len in
    let i = ref h.cursor.(c) in
    while !i < len && Array.unsafe_get sizes !i < nwords do
      incr i
    done;
    if nwords < ncursors then h.cursor.(nwords) <- !i;
    if !i >= len then -1
    else begin
      let i = !i in
      let hdr = h.free_hdr.(i) in
      let remaining = sizes.(i) - nwords in
      if remaining >= 1 then begin
        let rem_hdr = hdr + 1 + nwords in
        Mem.write h.mem rem_hdr (header ~mark:false ~kind:Free ~size:(remaining - 1));
        h.free_hdr.(i) <- rem_hdr;
        sizes.(i) <- remaining - 1
      end
      else sizes.(i) <- -1;
      hdr
    end
  end

let finish h kind hdr nwords =
  Mem.write h.mem hdr (header ~mark:false ~kind ~size:nwords);
  for i = 1 to nwords do
    Mem.write h.mem (hdr + i) 0
  done;
  let stats = h.stats in
  stats.allocations <- stats.allocations + 1;
  stats.words_allocated <- stats.words_allocated + nwords + 1;
  Obs.add (Array.unsafe_get alloc_counter (kind_to_int kind)) 1;
  Obs.add words_counter (nwords + 1);
  h.alloc_hook (nwords + 1);
  hdr + 1

(* Past the bump frontier: the free list, then a collection and both
   again. *)
let[@inline never] alloc_slow h kind nwords =
  let hdr = take_free h nwords in
  if hdr >= 0 then finish h kind hdr nwords
  else begin
    collect h;
    let hdr = h.bump in
    if hdr + nwords + 1 <= h.limit then begin
      h.bump <- hdr + nwords + 1;
      finish h kind hdr nwords
    end
    else
      let hdr = take_free h nwords in
      if hdr >= 0 then finish h kind hdr nwords
      else raise (Heap_exhausted { requested = nwords })
  end

let alloc h kind nwords =
  if nwords < 1 then invalid_arg "Heap.alloc: empty payload";
  let hdr = h.bump in
  if hdr + nwords + 1 <= h.limit then begin
    h.bump <- hdr + nwords + 1;
    finish h kind hdr nwords
  end
  else alloc_slow h kind nwords

let live_words h =
  let free = ref 0 in
  for i = 0 to h.free_len - 1 do
    if h.free_size.(i) >= 0 then free := !free + h.free_size.(i) + 1
  done;
  h.bump - h.base - !free
