(** Run-to-run regression diffing over the exported artifacts.

    [s1lc --diff-runs A B] loads two files, auto-detects which journal
    each one is — a remarks JSONL ({!Remark.schema_version}), a metrics
    document ([s1lisp.metrics/*]), a bench trajectory ([s1lisp.bench/*]),
    a trace-event timeline ([s1lisp.events/*]), or a folded-stack export
    ("path count" lines) — and reports what changed between the runs:

    - remarks: appeared/vanished remarks (keyed on kind, pass, rule,
      loc and message; node ids and sequence numbers are run-local and
      excluded).  A vanished [Passed] remark is a regression — an
      optimization that used to apply no longer does.
    - metrics: counter deltas, total cycle delta, and per-line cycle
      deltas from the profile when both documents carry one.  Cycle
      growth beyond the threshold (percent) is a regression.
    - bench: per-row cycle deltas joined on (experiment, name), with
      result-value mismatches always regressions.  This replaces the
      old zero-tolerance comparison: counts may drift within the
      threshold without failing CI.
    - folded stacks: per-call-path exclusive-cycle deltas; growth past
      the threshold (and the same absolute floor as profile lines) is a
      regression.
    - events: per-(category, name) event counts and accumulated
      durations; duration growth past the threshold is a regression.

    Every report but remarks is one mechanism: a list of gated
    families, each an extractor of [(key, int)] rows plus an
    {!Obs.gate} ({!gated}), run through {!run_families}.  Counter gates
    come from {!Obs.fixed_counters}.  Only the bench result-mismatch and
    row-presence rules compare something other than two ints.

    The report is deterministic (sorted keys) so it can itself be
    diffed. *)

module Json = Obs.Json

exception Diff_error of string

type doc =
  | Metrics of Json.t
  | Remarks of Remark.t list
  | Bench of Json.t
  | Events of Json.t
  | Folded of (string * int) list

let doc_kind = function
  | Metrics _ -> "metrics"
  | Remarks _ -> "remarks"
  | Bench _ -> "bench"
  | Events _ -> "events"
  | Folded _ -> "folded"

let read_file path =
  match open_in_bin path with
  | ic ->
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      s
  | exception Sys_error m -> raise (Diff_error m)

(* A folded-stack export is the one schemaless format we accept: every
   non-empty line must be "call;path count". *)
let parse_folded (src : string) : (string * int) list option =
  let lines =
    String.split_on_char '\n' src |> List.filter (fun l -> String.trim l <> "")
  in
  if lines = [] then None
  else
    let parse_line l =
      match String.rindex_opt l ' ' with
      | Some i when i > 0 ->
          Option.map
            (fun n -> (String.sub l 0 i, n))
            (int_of_string_opt (String.sub l (i + 1) (String.length l - i - 1)))
      | _ -> None
    in
    let rows = List.filter_map parse_line lines in
    if List.compare_lengths rows lines = 0 then Some rows else None

let classify ~path (src : string) : doc =
  (* a remarks journal is JSONL: its first line is a self-contained
     header object; a metrics/bench document is one JSON value *)
  let first_line =
    match String.index_opt src '\n' with Some i -> String.sub src 0 i | None -> src
  in
  let header_schema =
    match Json.parse (String.trim first_line) with
    | j -> Option.bind (Json.member "schema" j) Json.to_str
    | exception Json.Parse_error _ -> None
  in
  match header_schema with
  | Some s when s = Remark.schema_version -> (
      try Remarks (Remark.of_jsonl src)
      with Remark.Journal_error m -> raise (Diff_error (path ^ ": " ^ m)))
  | _ -> (
      match Json.parse (String.trim src) with
      | j -> (
          match Option.bind (Json.member "schema" j) Json.to_str with
          | Some s when String.starts_with ~prefix:"s1lisp.metrics/" s -> Metrics j
          | Some s when String.starts_with ~prefix:"s1lisp.events/" s -> Events j
          | Some s when String.starts_with ~prefix:"s1lisp.bench/" s -> Bench j
          | Some s -> raise (Diff_error (Printf.sprintf "%s: unsupported schema %S" path s))
          | None -> raise (Diff_error (path ^ ": document has no schema field")))
      | exception Json.Parse_error m -> (
          match parse_folded src with
          | Some rows -> Folded rows
          | None -> raise (Diff_error (path ^ ": " ^ m))))

let load path = classify ~path (read_file path)

(** One line of the report; [d_regression] marks the lines that make the
    whole diff fail. *)
type line = { d_text : string; d_regression : bool }

type report = { r_kind : string; r_lines : line list; r_regressed : bool }

let is_empty r = r.r_lines = []

let make_report kind lines =
  { r_kind = kind; r_lines = lines; r_regressed = List.exists (fun l -> l.d_regression) lines }

let info text = { d_text = text; d_regression = false }
let regression text = { d_text = text; d_regression = true }

let pct_delta a b = if a <= 0 then 0.0 else float_of_int (b - a) *. 100.0 /. float_of_int a

(* ---- remarks ---- *)

(* Run-stable identity: everything but the run-local seq and node id. *)
let remark_key (r : Remark.t) =
  Printf.sprintf "[%s] %s/%s @%s: %s" (Remark.kind_name r.Remark.r_kind) r.Remark.r_pass
    r.Remark.r_rule
    (match r.Remark.r_loc with Some l -> S1_loc.Loc.to_string l | None -> "-")
    r.Remark.r_msg

let count_by_key rs =
  let t = Hashtbl.create 64 in
  List.iter
    (fun r ->
      let k = remark_key r in
      Hashtbl.replace t k (1 + Option.value ~default:0 (Hashtbl.find_opt t k)))
    rs;
  t

let diff_remarks (a : Remark.t list) (b : Remark.t list) : report =
  let ca = count_by_key a and cb = count_by_key b in
  let kind_of = Hashtbl.create 64 in
  List.iter (fun r -> Hashtbl.replace kind_of (remark_key r) r.Remark.r_kind) (a @ b);
  let keys =
    Hashtbl.fold (fun k _ acc -> k :: acc) ca []
    |> fun l ->
    Hashtbl.fold (fun k _ acc -> if Hashtbl.mem ca k then acc else k :: acc) cb l
    |> List.sort_uniq compare
  in
  let lines =
    List.concat_map
      (fun k ->
        let na = Option.value ~default:0 (Hashtbl.find_opt ca k) in
        let nb = Option.value ~default:0 (Hashtbl.find_opt cb k) in
        if na = nb then []
        else if nb > na then [ info (Printf.sprintf "appeared (x%d): %s" (nb - na) k) ]
        else
          (* an optimization that used to apply and no longer does is
             the regression this tool exists to catch *)
          let is_passed = Hashtbl.find_opt kind_of k = Some Remark.Passed in
          [
            (if is_passed then regression else info)
              (Printf.sprintf "vanished (x%d): %s" (na - nb) k);
          ])
      keys
  in
  make_report "remarks" lines

(* ---- gated families ---- *)

(** One family of a report: the keyed lines it contributes for two
    documents at a percent [threshold].  The key orders a report whose
    families interleave per key (bench). *)
type 'd family = threshold:float -> 'd -> 'd -> (string * line) list

(** The numeric family every report but remarks is built from: [rows]
    extracts [(key, int)] rows from a document, [name] renders a key
    ("counter k:"), and [gate] decides which growth regresses.  Keys
    missing on one side count as 0, unless [both]: then a key must be
    present in both runs to be compared at all. *)
let gated ?(both = false) ~name ~(gate : Obs.gate) (rows : 'd -> (string * int) list) :
    'd family =
 fun ~threshold a b ->
  let ra = rows a and rb = rows b in
  List.sort_uniq compare (List.map fst ra @ List.map fst rb)
  |> List.filter_map (fun k ->
         match (List.assoc_opt k ra, List.assoc_opt k rb) with
         | (None, _ | _, None) when both -> None
         | va, vb ->
             let va = Option.value ~default:0 va and vb = Option.value ~default:0 vb in
             if va = vb then None
             else
               let pct = pct_delta va vb in
               let regressed =
                 vb > va
                 &&
                 match gate with
                 | Obs.Info -> false
                 | Obs.Pct_floor floor -> pct > threshold && vb - va >= floor
                 | Obs.Floor floor -> vb - va >= floor
               in
               Some
                 ( k,
                   (if regressed then regression else info)
                     (Printf.sprintf "%s %d -> %d (%+d, %+.1f%%)" (name k) va vb (vb - va)
                        pct) ))

let labelled label k = label ^ " " ^ k ^ ":"

(* below this many cycles of growth a per-line, per-edge, per-path or
   per-event delta is reported but never fails the diff: tiny entries
   flip across code-layout changes *)
let cycle_floor = Obs.Pct_floor 32

let member_rows field ~key j =
  match field j with
  | Some (Json.Arr rows) -> List.filter_map key rows
  | _ -> []

let str_field f row = Option.bind (Json.member f row) Json.to_str
let int_field f row = Option.bind (Json.member f row) Json.to_int

(* ---- metrics ---- *)

let counters_of j =
  match Json.member "counters" j with
  | Some (Json.Obj kvs) ->
      List.filter_map (fun (k, v) -> Option.map (fun n -> (k, n)) (Json.to_int v)) kvs
  | _ -> []

(* One counter family per gate, in order of first appearance in
   Obs.fixed_counters (after [Info], which also takes every counter
   outside the table). *)
let counter_families : Json.t family list =
  let gate_of k = Option.value ~default:Obs.Info (List.assoc_opt k Obs.fixed_counters) in
  List.fold_left
    (fun gates (_, g) -> if List.mem g gates then gates else gates @ [ g ])
    [ Obs.Info ] Obs.fixed_counters
  |> List.map (fun gate ->
         gated ~name:(labelled "counter") ~gate (fun j ->
             List.filter (fun (k, _) -> gate_of k = gate) (counters_of j)))

let metrics_families : Json.t family list =
  counter_families
  @ [
      gated ~both:true ~name:(fun k -> k ^ ":") ~gate:(Obs.Pct_floor 0) (fun j ->
          match Option.bind (Json.member "cpu" j) (int_field "cycles") with
          | Some c -> [ ("cpu.cycles", c) ]
          | None -> []);
      gated ~name:(labelled "line-cycles") ~gate:cycle_floor
        (member_rows
           (fun j -> Option.bind (Json.member "profile" j) (Json.member "lines"))
           ~key:(fun row ->
             match (str_field "file" row, int_field "line" row, int_field "cycles" row) with
             | Some f, Some l, Some c -> Some (Printf.sprintf "%s:%d" f l, c)
             | _ -> None));
      (* a regressed edge: this caller->callee's exclusive cycles grew
         past the threshold — the call-path profiler's version of a
         hotter source line *)
      gated ~name:(labelled "edge-excl-cycles") ~gate:cycle_floor
        (member_rows
           (fun j -> Option.bind (Json.member "callgraph" j) (Json.member "edges"))
           ~key:(fun row ->
             match
               (str_field "caller" row, str_field "callee" row, int_field "excl_cycles" row)
             with
             | Some caller, Some callee, Some c -> Some (caller ^ " -> " ^ callee, c)
             | _ -> None));
    ]

(* ---- bench ---- *)

(* rows keyed "experiment / name"; the first of duplicate keys wins *)
let bench_rows j =
  member_rows (Json.member "rows") j ~key:(fun row ->
      match (str_field "experiment" row, str_field "name" row) with
      | Some e, Some n -> Some (Printf.sprintf "%s / %s" e n, row)
      | _ -> None)
  |> List.fold_left (fun acc (k, r) -> if List.mem_assoc k acc then acc else (k, r) :: acc) []
  |> List.rev

let bench_field field j =
  List.filter_map
    (fun (k, row) -> Option.map (fun v -> (k, v)) (field row))
    (bench_rows j)

(* Rows only one run has are news, not regressions; a changed
   observable result is never within tolerance, at any threshold. *)
let bench_families : Json.t family list =
  [
    (fun ~threshold:_ a b ->
      let ra = bench_rows a and rb = bench_rows b in
      List.filter_map
        (fun (k, _) -> if List.mem_assoc k rb then None else Some (k, info ("row vanished: " ^ k)))
        ra
      @ List.filter_map
          (fun (k, _) ->
            if List.mem_assoc k ra then None else Some (k, info ("row appeared: " ^ k)))
          rb);
    gated ~both:true ~name:(fun k -> k ^ ": cycles") ~gate:(Obs.Pct_floor 0)
      (bench_field (int_field "cycles"));
    (fun ~threshold:_ a b ->
      let ra = bench_field (str_field "result") a in
      List.filter_map
        (fun (k, vb) ->
          match List.assoc_opt k ra with
          | Some va when va <> vb ->
              Some (k, regression (Printf.sprintf "%s: result %S -> %S" k va vb))
          | _ -> None)
        (bench_field (str_field "result") b));
  ]

(* ---- trace events ---- *)

(* Roll a timeline up to (cat/name) -> (occurrences, accumulated dur):
   individual timestamps shift with any upstream change, but how often
   each event fires and how long it takes are comparable across runs. *)
let event_rollup j =
  let counts = Hashtbl.create 32 and durs = Hashtbl.create 32 in
  let bump tbl k n =
    Hashtbl.replace tbl k (n + Option.value ~default:0 (Hashtbl.find_opt tbl k))
  in
  (match Json.member "traceEvents" j with
  | Some (Json.Arr evs) ->
      List.iter
        (fun ev ->
          match (str_field "cat" ev, str_field "name" ev) with
          | Some cat, Some name ->
              let k = cat ^ "/" ^ name in
              bump counts k 1;
              Option.iter (bump durs k) (int_field "dur" ev)
          | _ -> ())
        evs
  | _ -> ());
  let to_list tbl = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
  (to_list counts, to_list durs)

(* occurrence counts are informational: a new GC or an extra bind is
   visible, but only accumulated duration growth fails the run *)
let events_families : Json.t family list =
  [
    gated ~name:(labelled "events") ~gate:Obs.Info (fun j -> fst (event_rollup j));
    gated ~name:(labelled "event-cycles") ~gate:cycle_floor (fun j -> snd (event_rollup j));
  ]

(* ---- driver ---- *)

(* Families run in order; [by_key] regroups their lines per key (stable,
   so a key's lines keep family order). *)
let run_families ?(by_key = false) kind (families : 'd family list) ~threshold a b =
  let lines = List.concat_map (fun f -> f ~threshold a b) families in
  let lines =
    if by_key then List.stable_sort (fun (x, _) (y, _) -> compare x y) lines else lines
  in
  make_report kind (List.map snd lines)

let diff ?(threshold = 2.0) (a : doc) (b : doc) : report =
  match (a, b) with
  | Remarks ra, Remarks rb -> diff_remarks ra rb
  | Metrics ma, Metrics mb -> run_families "metrics" metrics_families ~threshold ma mb
  | Bench ba, Bench bb -> run_families ~by_key:true "bench" bench_families ~threshold ba bb
  | Events ea, Events eb -> run_families "events" events_families ~threshold ea eb
  | Folded fa, Folded fb ->
      run_families "folded"
        [ gated ~name:(labelled "path-cycles") ~gate:cycle_floor Fun.id ]
        ~threshold fa fb
  | _ ->
      raise
        (Diff_error
           (Printf.sprintf "cannot diff a %s export against a %s export" (doc_kind a)
              (doc_kind b)))

let render (r : report) : string =
  let b = Buffer.create 256 in
  if is_empty r then Buffer.add_string b (Printf.sprintf "diff-runs (%s): no differences\n" r.r_kind)
  else begin
    List.iter
      (fun l ->
        Buffer.add_string b
          (Printf.sprintf "%s %s\n" (if l.d_regression then "REGRESSION" else "  change  ") l.d_text))
      r.r_lines;
    let regs = List.length (List.filter (fun l -> l.d_regression) r.r_lines) in
    Buffer.add_string b
      (Printf.sprintf "diff-runs (%s): %d differences, %d regressions\n" r.r_kind
         (List.length r.r_lines) regs)
  end;
  Buffer.contents b
