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
  Array.init (max_kind + 1) (fun i -> "heap.alloc." ^ kind_counter_name (kind_of_int i))

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

type t = {
  mem : Mem.t;
  base : int;
  limit : int;
  mutable bump : int;
  mutable free : (int * int) list;  (* (header addr, payload size), address-ordered *)
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
    free = [];
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
let payload_size h p = h_size (Mem.read h.mem (p - 1))

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

let sweep h =
  let mem = h.mem in
  let free = ref [] in
  let live = ref 0 in
  let a = ref h.base in
  let pending_free = ref None in  (* (start header addr, total words incl header) *)
  let flush () =
    match !pending_free with
    | None -> ()
    | Some (start, words) ->
        Mem.write mem start (header ~mark:false ~kind:Free ~size:(words - 1));
        free := (start, words - 1) :: !free;
        pending_free := None
  in
  while !a < h.bump do
    let hw = Mem.read mem !a in
    let size = h_size hw in
    let span = size + 1 in
    if h_mark hw then begin
      flush ();
      Mem.write mem !a (hw land lnot (1 lsl 35));
      live := !live + span
    end
    else begin
      (match !pending_free with
      | None -> pending_free := Some (!a, span)
      | Some (start, words) -> pending_free := Some (start, words + span))
    end;
    a := !a + span
  done;
  (* A trailing free run shrinks the bump frontier instead. *)
  (match !pending_free with
  | Some (start, _) -> h.bump <- start
  | None -> ());
  h.free <- List.rev !free;
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

let take_free h nwords =
  let rec go acc = function
    | [] -> None
    | (addr, size) :: rest when size >= nwords ->
        let remaining = size - nwords in
        if remaining >= 1 then begin
          (* Split: allocated part first, remainder keeps a Free header. *)
          let rem_hdr = addr + 1 + nwords in
          S1_machine.Mem.write h.mem rem_hdr (header ~mark:false ~kind:Free ~size:(remaining - 1));
          h.free <- List.rev_append acc ((rem_hdr, remaining - 1) :: rest);
          Some addr
        end
        else begin
          h.free <- List.rev_append acc rest;
          Some addr
        end
    | entry :: rest -> go (entry :: acc) rest
  in
  go [] h.free

let alloc h kind nwords =
  if nwords < 1 then invalid_arg "Heap.alloc: empty payload";
  let finish hdr_addr span =
    Mem.write h.mem hdr_addr (header ~mark:false ~kind ~size:span);
    for i = 1 to span do
      Mem.write h.mem (hdr_addr + i) 0
    done;
    h.stats.allocations <- h.stats.allocations + 1;
    h.stats.words_allocated <- h.stats.words_allocated + span + 1;
    Obs.incr alloc_counter.(kind_to_int kind);
    Obs.incr ~n:(span + 1) "heap.alloc.words";
    h.alloc_hook (span + 1);
    hdr_addr + 1
  in
  let try_bump () =
    if h.bump + nwords + 1 <= h.limit then begin
      let hdr = h.bump in
      h.bump <- h.bump + nwords + 1;
      Some hdr
    end
    else None
  in
  match try_bump () with
  | Some hdr -> finish hdr nwords
  | None -> (
      match take_free h nwords with
      | Some hdr -> finish hdr nwords
      | None -> (
          collect h;
          match try_bump () with
          | Some hdr -> finish hdr nwords
          | None -> (
              match take_free h nwords with
              | Some hdr -> finish hdr nwords
              | None -> raise (Heap_exhausted { requested = nwords }))))

let live_words h =
  let rec free_total = function [] -> 0 | (_, s) :: rest -> s + 1 + free_total rest in
  h.bump - h.base - free_total h.free
