(** Observability: named counters, hierarchical wall-time spans, and a
    JSON export of both — the measurement layer under [s1lc --timings],
    [--metrics], and the bench trajectory ([BENCH_RESULTS.json]).

    The registry is a domain-local singleton: the compiler phases are
    single-threaded within a domain and compilation units are measured
    one at a time, so a per-domain default keeps the instrumentation
    call sites down to one line ([Obs.incr], [Obs.with_span]) while the
    batch compile service runs one compilation per worker domain.
    [reset] returns the current domain's registry to empty; callers that
    want per-unit numbers reset around the unit of interest.

    Spans nest: [with_span "compile" (fun () -> with_span "tnbind" f)]
    records both ["compile"] and ["compile/tnbind"], keyed by path, each
    with an invocation count, accumulated wall nanoseconds and OCaml
    minor-heap words allocated (per domain in OCaml 5).  Both are host
    figures, outside every byte-identity check and regression gate.
    Counters are flat names, conventionally dotted
    ("rule.META-SUBSTITUTE", "tn.registers"). *)

(** The JSON tree lives in its own unit ({!Json}) so lower layers can
    build documents without the counter registry; the alias keeps every
    historical [Obs.Json] call site compiling. *)
module Json = Json

type span = {
  sp_path : string;  (** "compile/tnbind" *)
  sp_name : string;  (** the last component of the path: "tnbind" *)
  sp_depth : int;
  mutable sp_count : int;
  mutable sp_ns : int;  (** accumulated wall nanoseconds *)
  mutable sp_alloc : int;  (** accumulated minor-heap words allocated *)
  mutable sp_children : span list;  (** opened directly inside this one *)
}

type t = {
  counters : (string, int ref) Hashtbl.t;
  mutable cells : int ref array;
      (* interned counter id -> its cell in [counters], or [no_cell];
         filled by {!add} *)
  spans : (string, span) Hashtbl.t;
  mutable span_order : string list;  (* reversed first-open order *)
  mutable roots : span list;  (* spans opened outside any other *)
  mutable stack : span list;  (* the open spans, innermost first *)
}

let no_cell = ref 0

let create () =
  { counters = Hashtbl.create 64; cells = [||]; spans = Hashtbl.create 32; span_order = [];
    roots = []; stack = [] }

(* The registry all instrumentation points use: one per domain, so batch
   workers ([lib/serve]) measure their own compilations without
   interleaving.  On the main domain this is the same process-global
   singleton it always was. *)
let default_key : t S1_par.Dls.t = S1_par.Dls.create create
let default () = S1_par.Dls.get default_key

let reset ?(t = default ()) () =
  Hashtbl.reset t.counters;
  t.cells <- [||];
  Hashtbl.reset t.spans;
  t.span_order <- [];
  t.roots <- [];
  t.stack <- []

(* Monotonic time (CLOCK_MONOTONIC via bechamel's noalloc binding):
   span durations can never go negative or jump under NTP adjustment,
   unlike the wall clock.  [Unix] remains a dependency for everything
   else the module may grow; the clock itself is monotonic ns. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

let incr ?(t = default ()) ?(n = 1) name =
  match Hashtbl.find_opt t.counters name with
  | Some r -> r := !r + n
  | None -> Hashtbl.replace t.counters name (ref n)

(** {1 Interned counters} — for hot sites.

    [counter name] hands out a process-wide id once; [add c n] then bumps
    the same cell [incr ~n name] would, found by id in the current
    domain's registry instead of by hashing the name.  The id-to-cell
    cache belongs to the registry, never to the handle, so a handle
    shared by batch domains still counts into each domain's own
    registry; [reset] drops the cache with the cells. *)

type counter = { id : int; name : string }

let counter_lock = Mutex.create ()
let counter_ids : (string, int) Hashtbl.t = Hashtbl.create 64

let counter name =
  Mutex.protect counter_lock (fun () ->
      match Hashtbl.find_opt counter_ids name with
      | Some id -> { id; name }
      | None ->
          let id = Hashtbl.length counter_ids in
          Hashtbl.replace counter_ids name id;
          { id; name })

let[@inline never] add_slow t c n =
  incr ~t ~n c.name;
  let have = Array.length t.cells in
  if c.id >= have then t.cells <- Array.append t.cells (Array.make (max (c.id + 1) have) no_cell);
  t.cells.(c.id) <- Hashtbl.find t.counters c.name

let add c n =
  let t = default () in
  let cells = t.cells in
  if c.id < Array.length cells && Array.unsafe_get cells c.id != no_cell then
    let r = Array.unsafe_get cells c.id in
    r := !r + n
  else add_slow t c n

let count ?(t = default ()) name =
  match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

let counters ?(t = default ()) () =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.counters []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(** {1 Scoping} — per-unit counter views over the global registry.

    Batch-mode callers ([s1lc a.lisp b.lisp]) need per-file numbers
    without resetting the session-wide totals mid-run: take a
    {!snapshot} before the unit and {!diff} it against the registry
    after.  The result lists only counters that moved, sorted by name. *)

type snapshot = (string * int) list

let snapshot ?(t = default ()) () : snapshot = counters ~t ()

(* Both lists are sorted by name, so one merge walk pairs them. *)
let diff ~(before : snapshot) ?(t = default ()) () : snapshot =
  let rec walk before after acc =
    match (before, after) with
    | _, [] -> List.rev acc
    | (b, _) :: before', (a, _) :: _ when String.compare b a < 0 -> walk before' after acc
    | (b, prior) :: before', (a, v) :: after' when String.equal b a ->
        walk before' after' (if v <> prior then (a, v - prior) :: acc else acc)
    | _, (a, v) :: after' -> walk before after' (if v <> 0 then (a, v) :: acc else acc)
  in
  walk before (counters ~t ()) []

let span_at t path depth =
  match Hashtbl.find_opt t.spans path with
  | Some sp -> sp
  | None ->
      let name =
        match String.rindex_opt path '/' with
        | Some i -> String.sub path (i + 1) (String.length path - i - 1)
        | None -> path
      in
      let sp =
        { sp_path = path; sp_name = name; sp_depth = depth; sp_count = 0; sp_ns = 0;
          sp_alloc = 0; sp_children = [] }
      in
      Hashtbl.replace t.spans path sp;
      t.span_order <- path :: t.span_order;
      sp

let rec find_child name = function
  | [] -> None
  | sp :: rest -> if String.equal sp.sp_name name then Some sp else find_child name rest

(* The span [name] directly inside the innermost open span: found among
   the parent's children once it has opened there, so only its first
   opening builds and hashes the path. *)
let child_span t name =
  let siblings = match t.stack with parent :: _ -> parent.sp_children | [] -> t.roots in
  match find_child name siblings with
  | Some sp -> sp
  | None ->
      let sp =
        match t.stack with
        | parent :: _ -> span_at t (parent.sp_path ^ "/" ^ name) (parent.sp_depth + 1)
        | [] -> span_at t name 0
      in
      (match t.stack with
      | parent :: _ -> parent.sp_children <- sp :: parent.sp_children
      | [] -> t.roots <- sp :: t.roots);
      sp

let close_span t sp ~global t0 w0 =
  if global then Timeline.span_end sp.sp_path;
  sp.sp_count <- sp.sp_count + 1;
  sp.sp_ns <- sp.sp_ns + (now_ns () - t0);
  sp.sp_alloc <- sp.sp_alloc + int_of_float (Gc.minor_words () -. w0);
  t.stack <- List.tl t.stack

let with_span ?(t = default ()) name f =
  let sp = child_span t name in
  t.stack <- sp :: t.stack;
  let t0 = now_ns () and w0 = Gc.minor_words () in
  (* Only the global registry's spans feed the runtime event timeline;
     private registries (tests, ad-hoc measurement) stay silent. *)
  let global = t == default () in
  if global then Timeline.span_begin sp.sp_path;
  match f () with
  | v ->
      close_span t sp ~global t0 w0;
      v
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      close_span t sp ~global t0 w0;
      Printexc.raise_with_backtrace e bt

let spans ?(t = default ()) () =
  List.rev_map (fun path -> Hashtbl.find t.spans path) t.span_order

(** Fold spans recorded elsewhere (a finished batch worker domain's
    registry) into [t], path by path. *)
let add_spans ?(t = default ()) (sps : span list) =
  List.iter
    (fun o ->
      let sp = span_at t o.sp_path o.sp_depth in
      sp.sp_count <- sp.sp_count + o.sp_count;
      sp.sp_ns <- sp.sp_ns + o.sp_ns;
      sp.sp_alloc <- sp.sp_alloc + o.sp_alloc)
    sps

(* Rendering ------------------------------------------------------------------ *)

(* Spans in tree order: each directly after its parent's subtree,
   siblings in first-open order.  A span whose parent never opened here
   (folded in from elsewhere) is a root. *)
let tree_order t (sps : span list) : span list =
  let children = Hashtbl.create 16 in
  let roots =
    List.filter
      (fun sp ->
        match String.rindex_opt sp.sp_path '/' with
        | Some i when Hashtbl.mem t.spans (String.sub sp.sp_path 0 i) ->
            Hashtbl.add children (String.sub sp.sp_path 0 i) sp;
            false
        | _ -> true)
      sps
  in
  let rec subtree sp =
    sp :: List.concat_map subtree (List.rev (Hashtbl.find_all children sp.sp_path))
  in
  List.concat_map subtree roots

let pp_timings fmt ?(t = default ()) () =
  let sps = tree_order t (spans ~t ()) in
  if sps = [] then Format.fprintf fmt "(no phase timings recorded)@."
  else begin
    Format.fprintf fmt "@[<v>%-46s %8s %14s %14s@," "phase" "count" "wall ns" "alloc words";
    List.iter
      (fun sp ->
        let leaf =
          match String.rindex_opt sp.sp_path '/' with
          | Some i -> String.sub sp.sp_path (i + 1) (String.length sp.sp_path - i - 1)
          | None -> sp.sp_path
        in
        Format.fprintf fmt "%-46s %8d %14d %14d@,"
          (String.make (2 * sp.sp_depth) ' ' ^ leaf)
          sp.sp_count sp.sp_ns sp.sp_alloc)
      sps;
    Format.fprintf fmt "@]"
  end

let pp_counters fmt ?(t = default ()) () =
  List.iter (fun (k, v) -> Format.fprintf fmt "%-46s %10d@." k v) (counters ~t ())

(* The stable metrics schema: {"schema": "...", "spans": [...],
   "counters": {...}} — extended (never rearranged) by callers that add
   sibling keys such as "cpu" and "profile".  /2 adds the robustness
   incident counters (robust.pass_rollback, robust.rollback.<pass>,
   robust.verify_fail) and the chaos counters (chaos.programs,
   chaos.faults, chaos.failures) to the fixed counter set.  /3 adds the
   heap/GC counters (heap.alloc.<kind>, heap.alloc.words,
   heap.gc.collections, heap.gc.words_swept, heap.gc.pause_cycles,
   heap.certified_escapes, plus dynamic heap.site.<file:line> keys) and
   allows an optional sibling "files" array of per-file counter deltas
   in batch compilations.  /4 adds the machine-stack counters
   (machine.calls, machine.tcalls, machine.stack_high,
   machine.bind_high) to the fixed set and allows an optional sibling
   "callgraph" object (caller->callee edge table plus per-call-path
   allocation totals) when the shadow call stack is enabled.  /5 adds
   the compile-service counters (serve.hits, serve.misses,
   serve.evictions, serve.stale, image.bytes_written, image.bytes_read)
   to the fixed set.  /6 adds the supervision counters (serve.retries,
   serve.degraded, serve.deadline, serve.quarantined, serve.readmitted,
   serve.breaker_open, serve.worker_crashes).  /7 adds "alloc_words" to
   every span row beside "wall_ns"; neither is gated. *)
let schema_version = "s1lisp.metrics/7"

(** How [s1lc --diff-runs] judges a counter's growth between two runs. *)
type gate =
  | Info  (** reported, never a regression *)
  | Pct_floor of int  (** past the percent threshold and by at least this much *)
  | Floor of int  (** by at least this much, whatever the percentage *)

(** The schema's fixed counters with their gates; s1lc pre-seeds them at
    zero ({!preseed}) so every one appears in [--timings]/[--metrics].
    Counters outside the table are [Info].  A deeper control or binding
    stack is a real regression (lost tail call, runaway rebinding), so
    high-water marks gate like cycles, with a floor for shallow
    programs.  A healthy warm batch has zero misses, stale blobs and
    supervision incidents, and growth from zero never clears a
    percentage, so any appearance regresses.  Image growth past the
    threshold means the compiled programs got bigger. *)
let fixed_counters : (string * gate) list =
  let all gate = List.map (fun k -> (k, gate)) in
  all Info
    [ "rule.COMMON-SUBEXPRESSION-ELIMINATION"; "cse.eliminated"; "pdl.candidates";
      "pdl.stack_boxes"; "pdl.heap_boxes"; "tn.total"; "tn.in_registers"; "tn.pointer_slots";
      "tn.scratch_slots"; "tn.across_call"; "fuzz.programs"; "fuzz.divergences";
      "fuzz.shrink_steps"; "fuzz.interp_errors"; "robust.pass_rollback";
      "robust.verify_fail"; "chaos.programs"; "chaos.faults"; "chaos.failures";
      "heap.alloc.cons"; "heap.alloc.single_flonum"; "heap.alloc.double_flonum";
      "heap.alloc.bignum"; "heap.alloc.closure"; "heap.alloc.vector"; "heap.alloc.words";
      "heap.gc.collections"; "heap.gc.words_swept"; "heap.gc.pause_cycles";
      "heap.certified_escapes"; "machine.calls"; "machine.tcalls" ]
  @ all (Pct_floor 16) [ "machine.stack_high"; "machine.bind_high" ]
  @ all Info [ "serve.hits"; "serve.evictions" ]
  @ all (Floor 1)
      [ "serve.misses"; "serve.stale"; "serve.quarantined"; "serve.readmitted";
        "serve.breaker_open"; "serve.retries"; "serve.degraded"; "serve.deadline";
        "serve.worker_crashes" ]
  @ [ ("image.bytes_written", Pct_floor 4096); ("image.bytes_read", Info) ]

(** Seed the fixed counters whose names start with one of [prefixes]
    (default: all of them) at zero. *)
let preseed ?(prefixes = [ "" ]) () =
  List.iter
    (fun (k, _) ->
      if List.exists (fun prefix -> String.starts_with ~prefix k) prefixes then incr ~n:0 k)
    fixed_counters

let json ?(t = default ()) () : Json.t =
  Json.Obj
    [
      ("schema", Json.Str schema_version);
      ( "spans",
        Json.Arr
          (List.map
             (fun sp ->
               Json.Obj
                 [
                   ("path", Json.Str sp.sp_path);
                   ("count", Json.Int sp.sp_count);
                   ("wall_ns", Json.Int sp.sp_ns);
                   ("alloc_words", Json.Int sp.sp_alloc);
                 ])
             (spans ~t ())) );
      ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (counters ~t ())));
    ]
