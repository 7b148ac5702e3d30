(** Spans for the traced run, recorded by the benchmark itself around
    each call it makes into a layer's public functions.

    Spans live in memory and are written out once, at exit.  A span has
    a name, a start and end on the monotonic clock, the span that
    enclosed it, and the id of the timed unit it belongs to (-1 during
    set-up).  Each traced unit also carries the deltas of the program's
    own {!S1_obs.Obs} spans and counters over the unit: those time the
    compile passes, which no public function boundary separates.

    With tracing off, {!with_span} is a single branch and records
    nothing. *)

module Obs = S1_obs.Obs
module Json = S1_obs.Json

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root *)
  unit_id : int;  (** -1 outside timed units *)
  t0 : int;
  mutable t1 : int;
}

let enabled = ref false
let current_unit = ref (-1)
let next_id = ref 0
let stack : span list ref = ref []
let recorded : span list ref = ref [] (* newest first *)

let now_ns = Obs.now_ns

let open_span name =
  let parent = match !stack with s :: _ -> s.id | [] -> -1 in
  let sp = { id = !next_id; name; parent; unit_id = !current_unit; t0 = now_ns (); t1 = 0 } in
  incr next_id;
  stack := sp :: !stack;
  sp

(* Spans close innermost first; closing one that is not on top would
   be a bug in the benchmark, so it is reported instead of ignored. *)
let close_span sp =
  sp.t1 <- now_ns ();
  (match !stack with
  | top :: rest when top == sp -> stack := rest
  | _ -> failwith ("trace: span closed out of order: " ^ sp.name));
  recorded := sp :: !recorded

let with_span name f =
  if not !enabled then f ()
  else begin
    let sp = open_span name in
    Fun.protect ~finally:(fun () -> close_span sp) f
  end

(** A span that ends inside a callee (Serve's [prepare] hook marks the
    end of world boot).  [finish] is idempotent and a no-op with tracing
    off. *)
let start name =
  if not !enabled then fun () -> ()
  else begin
    let sp = open_span name in
    let closed = ref false in
    fun () ->
      if not !closed then begin
        closed := true;
        close_span sp
      end
  end

(* Obs deltas ----------------------------------------------------------- *)

type obs_view = { ov_spans : (string * int) list; ov_counters : (string * int) list }

(* Read straight from the registry: {!Obs.counters} sorts, which costs
   more than the units it would measure once the registry holds a few
   thousand per-line counters. *)
let obs_view () =
  let reg = Obs.default () in
  {
    ov_spans = Hashtbl.fold (fun path sp acc -> (path, sp.Obs.sp_ns) :: acc) reg.Obs.spans [];
    ov_counters = Hashtbl.fold (fun k r acc -> (k, !r) :: acc) reg.Obs.counters [];
  }

let delta before after =
  let prior = Hashtbl.create (List.length before) in
  List.iter (fun (k, v) -> Hashtbl.replace prior k v) before;
  List.filter_map
    (fun (k, v) ->
      let d = v - Option.value ~default:0 (Hashtbl.find_opt prior k) in
      if d <> 0 then Some (k, d) else None)
    after

type unit_record = {
  r_unit : int;
  r_wall_ns : int;
  r_obs_spans : (string * int) list;  (** Obs span path -> ns spent in this unit *)
  r_counters : (string * int) list;  (** Obs counter -> increments in this unit *)
  r_alloc_words : float;  (** OCaml words allocated *)
  r_major_gcs : int;
  r_worlds : int;
  r_instructions : int;  (** simulated instructions *)
}

let units : unit_record list ref = ref []

(* Self time ------------------------------------------------------------- *)

(** Self nanoseconds per span name, over the recorded spans that satisfy
    [keep]: each span's duration minus the time its direct children
    cover. *)
let self_ns ~keep =
  let child_ns = Hashtbl.create 256 in
  List.iter
    (fun sp ->
      if sp.parent >= 0 then
        Hashtbl.replace child_ns sp.parent
          ((sp.t1 - sp.t0) + Option.value ~default:0 (Hashtbl.find_opt child_ns sp.parent)))
    !recorded;
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun sp ->
      if keep sp then begin
        let self = sp.t1 - sp.t0 - Option.value ~default:0 (Hashtbl.find_opt child_ns sp.id) in
        let ns, n = Option.value ~default:(0, 0) (Hashtbl.find_opt by_name sp.name) in
        Hashtbl.replace by_name sp.name (ns + self, n + 1)
      end)
    !recorded;
  by_name

(* Export ---------------------------------------------------------------- *)

let write_file path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let line j = output_string oc (Json.to_string ~pretty:false j ^ "\n") in
      List.iter
        (fun sp ->
          line
            (Json.Obj
               [
                 ("span", Json.Str sp.name);
                 ("id", Json.Int sp.id);
                 ("parent", Json.Int sp.parent);
                 ("unit", Json.Int sp.unit_id);
                 ("start_ns", Json.Int sp.t0);
                 ("end_ns", Json.Int sp.t1);
               ]))
        (List.rev !recorded);
      let pairs kvs = Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) kvs) in
      List.iter
        (fun r ->
          line
            (Json.Obj
               [
                 ("unit", Json.Int r.r_unit);
                 ("wall_ns", Json.Int r.r_wall_ns);
                 ("obs_spans_ns", pairs r.r_obs_spans);
                 ("counters", pairs r.r_counters);
                 ("alloc_words", Json.Float r.r_alloc_words);
                 ("major_gcs", Json.Int r.r_major_gcs);
                 ("worlds", Json.Int r.r_worlds);
                 ("instructions", Json.Int r.r_instructions);
               ]))
        (List.rev !units))
