(** The optimizer's rewrite journal — a structured flight recorder.

    Every rule firing is one {!event} carrying a global sequence number,
    the phase that fired it, the rule name, the rewritten node's id and
    source position, and the before/after source renderings.  Two views
    render over the same events:

    - {!pp} / {!to_string}: the paper's §7 compile-transcript text,

    {v
    ;**** Optimizing this form: (+$F A B C)
    ;**** to be this form: (+$F (+$F C B) A)
    ;**** courtesy of META-EVALUATE-ASSOC-COMMUT-CALL
    v}

    - {!to_jsonl}: a machine-readable journal (schema
      {!schema_version}) of one JSON object per line, behind
      [s1lc --trace FILE.jsonl].

    A transcript can serve as a persistent per-compiler journal:
    {!mark}/{!since} slice out the events of one compilation unit without
    disturbing the whole-session record. *)

module Loc = S1_loc.Loc
module Json = S1_obs.Obs.Json

type event = {
  ev_seq : int;  (** global order of firing, 0-based *)
  ev_pass : string;  (** the phase that fired ("simplify", "cse") *)
  ev_rule : string;
  ev_node : int;  (** {!S1_ir.Node.node} id of the rewritten node; -1 unknown *)
  ev_loc : Loc.t option;  (** source position of the rewritten node *)
  ev_before : string;
  ev_after : string;
}

type t = {
  mutable events : event list;  (* newest first *)
  mutable enabled : bool;
  mutable next_seq : int;
}

let create ?(enabled = true) () = { events = []; enabled; next_seq = 0 }
let set_enabled t b = t.enabled <- b
let enabled t = t.enabled

let record t ?(pass = "simplify") ?(node = -1) ?loc ~before ~after ~rule () =
  if t.enabled then begin
    t.events <-
      { ev_seq = t.next_seq; ev_pass = pass; ev_rule = rule; ev_node = node; ev_loc = loc;
        ev_before = before; ev_after = after }
      :: t.events;
    t.next_seq <- t.next_seq + 1
  end

let events t = List.rev t.events

(** {1 Slicing} — per-unit views over a persistent journal *)

let mark t = t.next_seq

let since t m =
  {
    events = List.filter (fun e -> e.ev_seq >= m) t.events;
    enabled = t.enabled;
    next_seq = t.next_seq;
  }

(* Forget the events recorded since [m]: a rolled-back pass's rewrites
   describe a tree that no longer exists. *)
let drop_since t m = t.events <- List.filter (fun e -> e.ev_seq < m) t.events

(** {1 The §7 text renderer} *)

let pp fmt t =
  List.iter
    (fun e ->
      Format.fprintf fmt ";**** Optimizing this form: %s@.;**** to be this form: %s@.;**** courtesy of %s@.@."
        e.ev_before e.ev_after e.ev_rule)
    (events t)

let to_string t = Format.asprintf "%a" pp t

(** {1 The JSONL journal} *)

let schema_version = "s1lisp.trace/1"

let json_of_event (e : event) : Json.t =
  Json.Obj
    [
      ("seq", Json.Int e.ev_seq);
      ("pass", Json.Str e.ev_pass);
      ("rule", Json.Str e.ev_rule);
      ("node_id", Json.Int e.ev_node);
      ( "loc",
        match e.ev_loc with
        | None -> Json.Null
        | Some l ->
            Json.Obj
              [
                ("file", Json.Str l.Loc.file);
                ("line", Json.Int l.Loc.line);
                ("col", Json.Int l.Loc.col);
              ] );
      ("before", Json.Str e.ev_before);
      ("after", Json.Str e.ev_after);
    ]

(* One header line carrying the schema, then one event per line. *)
let to_jsonl t =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Json.to_string ~pretty:false (Json.Obj [ ("schema", Json.Str schema_version) ]));
  Buffer.add_char b '\n';
  List.iter
    (fun e ->
      Buffer.add_string b (Json.to_string ~pretty:false (json_of_event e));
      Buffer.add_char b '\n')
    (events t);
  Buffer.contents b
