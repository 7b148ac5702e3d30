type config = {
  sq_words : int;
  static_words : int;
  heap_words : int;
  stack_words : int;
  bind_words : int;
}

let default_config =
  { sq_words = 64; static_words = 1 lsl 16; heap_words = 1 lsl 18; stack_words = 1 lsl 15;
    bind_words = 1 lsl 13 }

(* Demand paging: the address space is a directory of fixed 1K-word
   pages, each slot starting at the shared [zero_page].  A write
   replaces a slot with a fresh page the first time it touches it, so a
   world costs the pages it writes.  [zero_page] is never written, so
   worlds on different domains can share it. *)
let page_bits = 10
let page_words = 1 lsl page_bits
let page_mask = page_words - 1
let zero_page = Array.make page_words 0

type t = {
  id : int;
  cfg : config;
  size : int;
  pages : int array array;
  mutable static_next : int;
  stack_lo : int;  (* stack region bounds, precomputed for PUSH *)
  stack_hi : int;
}

(* Atomic: memories are created from concurrent batch worker domains,
   and the id only needs to be unique, not dense. *)
let next_id = Atomic.make 0

let create ?(config = default_config) () =
  let total =
    config.sq_words + config.static_words + config.heap_words + config.stack_words
    + config.bind_words
  in
  let id = Atomic.fetch_and_add next_id 1 + 1 in
  let stack_lo = config.sq_words + config.static_words + config.heap_words in
  { id; cfg = config; size = total;
    pages = Array.make ((total + page_mask) lsr page_bits) zero_page;
    static_next = config.sq_words; stack_lo; stack_hi = stack_lo + config.stack_words }

let config m = m.cfg
let id m = m.id
let size m = m.size

(* The range failures live out of line so [read] and [write] stay small
   enough to inline into the simulator. *)
let out_of_range what addr = failwith (Printf.sprintf "memory %s out of range: %d" what addr)

(* The first write into a page: nothing is live after the call, so the
   inlined fast path of [write] spills nothing. *)
let[@inline never] write_fresh m addr v =
  let page = Array.make page_words 0 in
  m.pages.(addr lsr page_bits) <- page;
  page.(addr land page_mask) <- v land Word.mask

let[@inline] read m addr =
  if addr < 0 || addr >= m.size then out_of_range "read" addr
  else Array.unsafe_get (Array.unsafe_get m.pages (addr lsr page_bits)) (addr land page_mask)

let[@inline] write m addr v =
  if addr < 0 || addr >= m.size then out_of_range "write" addr
  else
    let page = Array.unsafe_get m.pages (addr lsr page_bits) in
    if page == zero_page then write_fresh m addr v
    else Array.unsafe_set page (addr land page_mask) (v land Word.mask)

let static_base m = m.cfg.sq_words
let static_limit m = m.cfg.sq_words + m.cfg.static_words
let heap_base m = static_limit m
let heap_limit m = heap_base m + m.cfg.heap_words
let stack_base m = m.stack_lo
let stack_limit m = m.stack_hi
let bind_base m = stack_limit m
let bind_limit m = bind_base m + m.cfg.bind_words
let is_stack_addr m addr = addr >= stack_base m && addr < stack_limit m

let alloc_static m n =
  let base = m.static_next in
  if base + n > static_limit m then failwith "static region exhausted"
  else begin
    m.static_next <- base + n;
    base
  end

let static_used m = m.static_next - static_base m

(* Transactional loads: a mark taken before a load and released after a
   failure rolls the allocation pointer back, and [static_snapshot]/
   [static_restore] capture and rewrite the live static words, so a
   rolled-back load leaves the region byte-identical — re-interning the
   same symbols then lands at the same addresses. *)
let static_mark m = m.static_next

let static_release m mark =
  if mark >= static_base m && mark <= m.static_next then m.static_next <- mark

(* [f page offset_in_page offset_in_span count] for each page that
   [addr, addr + len) crosses, in order: snapshot and restore blit pages. *)
let iter_span addr len f =
  let rec go addr off len =
    if len > 0 then begin
      let i = addr land page_mask in
      let k = min len (page_words - i) in
      f (addr lsr page_bits) i off k;
      go (addr + k) (off + k) (len - k)
    end
  in
  go addr 0 len

let static_snapshot m =
  let base = static_base m in
  let snap = Array.make (m.static_next - base) 0 in
  iter_span base (Array.length snap) (fun p i off k -> Array.blit m.pages.(p) i snap off k);
  snap

let static_restore m snap =
  let base = static_base m in
  let next = base + Array.length snap in
  if next > static_limit m then failwith "static restore larger than region"
  else begin
    iter_span base (Array.length snap) (fun p i off k ->
        if m.pages.(p) == zero_page then m.pages.(p) <- Array.make page_words 0;
        Array.blit snap off m.pages.(p) i k);
    iter_span next (m.static_next - next) (fun p i _ k ->
        if m.pages.(p) != zero_page then Array.fill m.pages.(p) i k 0);
    m.static_next <- next
  end
