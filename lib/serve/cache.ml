(** Content-addressed image cache: an in-memory LRU in front of an
    optional on-disk store, with self-healing against disk corruption.

    The key is the MD5 of (image schema version, canonical
    optimization-lattice flags, raw source bytes): flip any lattice
    flag, edit one source byte, or bump the image schema and the key
    changes — stale images can never be served.  Conversely the image
    format is byte-deterministic, so equal keys always map to equal
    bytes and a disk store shared between concurrent batch workers needs
    no coordination beyond atomic rename.

    Disk blobs that fail verification split two ways:

    - {b stale} — verifiably one of ours but outdated or misplaced
      (wrong schema version, stored under a foreign key).  Deleted and
      treated as a miss; nothing to learn from the bytes.
    - {b corrupt} — torn, truncated, bad checksum, or unparseable.
      Moved to a [quarantine/] subdirectory (never deleted: the bytes
      are evidence), counted and reported as an incident.  A later miss
      may {e readmit} a quarantined blob that verifies again (e.g. the
      truncation was a transient read), bounded per key.

    A per-key {b circuit breaker} stops the read-verify-quarantine cycle
    from repeating forever: after [breaker_limit] verification failures
    for one key, disk lookups for that key are refused until {!store}
    publishes fresh bytes for it, which resets the breaker.

    Counters (in the calling domain's {!Obs} registry):
    - [serve.hits] / [serve.misses] — exactly one per lookup;
    - [serve.stale] — stale disk blobs deleted (disjoint from
      quarantined); counted in addition to the miss;
    - [serve.quarantined] — corrupt disk blobs moved to quarantine;
    - [serve.readmitted] — quarantined blobs that re-verified and
      returned to the store;
    - [serve.breaker_open] — disk lookups refused by an open breaker;
    - [serve.evictions] — LRU entries dropped over capacity;
    - [image.bytes_written] / [image.bytes_read] — disk traffic. *)

module Obs = S1_obs.Obs

(** [flags] is the compile's {!S1_core.Lattice.canonical} string. *)
let key ?(schema = Image.schema_version) ~(flags : string) (source : string) :
    string =
  Digest.to_hex (Digest.string (String.concat "\x00" [ schema; flags; source ]))

type t = {
  capacity : int;  (** in-memory entries kept; disk entries are unbounded *)
  dir : string option;
  lock : Mutex.t;
  mutable lru : (string * string) list;  (** (key, bytes), most recent first *)
  breaker_limit : int;
      (** disk verification failures per key before the breaker opens *)
  readmit_limit : int;  (** re-verify attempts per quarantined key *)
  failures : (string, int) Hashtbl.t;
      (** per-key verification-failure counts (breaker state); in-memory
          only — a fresh cache instance starts with closed breakers *)
  readmits : (string, int) Hashtbl.t;  (** per-key readmit attempts *)
}

let default_capacity = 64
let default_breaker_limit = 3
let default_readmit_limit = 2

let rec ensure_dir d =
  if d = "" || d = "." || d = "/" || Sys.file_exists d then ()
  else begin
    ensure_dir (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ -> ()
  end

let create ?dir ?(capacity = default_capacity)
    ?(breaker_limit = default_breaker_limit)
    ?(readmit_limit = default_readmit_limit) () =
  Option.iter ensure_dir dir;
  {
    capacity = max 1 capacity;
    dir;
    lock = Mutex.create ();
    lru = [];
    breaker_limit = max 1 breaker_limit;
    readmit_limit = max 0 readmit_limit;
    failures = Hashtbl.create 16;
    readmits = Hashtbl.create 16;
  }

let entry_path dir k = Filename.concat dir (k ^ ".image")
let quarantine_dir dir = Filename.concat dir "quarantine"
let quarantine_path dir k = Filename.concat (quarantine_dir dir) (k ^ ".image")

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* Insert at the front, dropping any older copy; spill over capacity off
   the tail.  Caller holds the lock. *)
let put_front t k bytes =
  let rest = List.filter (fun (k', _) -> k' <> k) t.lru in
  let lru = (k, bytes) :: rest in
  let rec take n = function
    | [] -> ([], [])
    | l when n = 0 -> ([], l)
    | e :: tl ->
        let kept, dropped = take (n - 1) tl in
        (e :: kept, dropped)
  in
  let kept, dropped = take t.capacity lru in
  List.iter (fun _ -> Obs.incr "serve.evictions") dropped;
  t.lru <- kept

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Atomic publish: a reader sees either nothing or complete bytes, even
   against concurrent writers of the same key (same bytes — the format
   is deterministic — so last rename winning is harmless).  Every writer,
   in any process, gets a fresh temp file, so no writer can truncate
   another's half-written bytes. *)
let write_file dir k bytes =
  ensure_dir dir;
  let tmp, oc =
    Filename.open_temp_file ~mode:[ Open_binary ] ~perms:0o666 ~temp_dir:dir
      (k ^ ".image.") ".tmp"
  in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc bytes);
  Sys.rename tmp (entry_path dir k)

(* Verification verdict for disk bytes claiming to be key [k].  The full
   decode primes [Image.load]'s memo, so loading what [find] returns is free. *)
type verdict = Good | Stale of string | Corrupt of string

let verify k bytes : verdict =
  match Image.load bytes with
  | Ok img when img.Image.i_key = k -> Good
  | Ok img -> Stale (Printf.sprintf "stored under foreign key %s" img.Image.i_key)
  | Error (Image.Wrong_schema s) -> Stale (Printf.sprintf "schema %s" s)
  | Error e -> Corrupt (Image.load_error_to_string e)

(* Breaker bookkeeping.  Caller does NOT hold the lock. *)
let breaker_is_open t k =
  locked t (fun () ->
      match Hashtbl.find_opt t.failures k with
      | Some n -> n >= t.breaker_limit
      | None -> false)

(* Count one verification failure; the one that trips the breaker open
   is counted and reported. *)
let note_failure t k ~file =
  let tripped =
    locked t (fun () ->
        let n = 1 + Option.value ~default:0 (Hashtbl.find_opt t.failures k) in
        Hashtbl.replace t.failures k n;
        n = t.breaker_limit)
  in
  if tripped then begin
    Obs.incr "serve.breaker_open";
    Incident.record
      (Incident.make ~kind:"breaker-open" ~file ~key:k
         ~detail:
           (Printf.sprintf "circuit breaker opened after %d verification failures"
              t.breaker_limit)
         ())
  end

let breaker_reset t k =
  locked t (fun () ->
      Hashtbl.remove t.failures k;
      Hashtbl.remove t.readmits k)

(* Move a corrupt blob out of the serving store without destroying the
   evidence.  Falls back to deletion only if the rename itself fails
   (e.g. quarantine dir not creatable) — a corrupt blob must never stay
   servable. *)
let quarantine t dir k path ~file ~detail =
  ensure_dir (quarantine_dir dir);
  (try Sys.rename path (quarantine_path dir k)
   with Sys_error _ -> ( try Sys.remove path with Sys_error _ -> ()));
  Obs.incr "serve.quarantined";
  Incident.record
    (Incident.make ~kind:"quarantine" ~file ~key:k
       ~detail:("corrupt cache blob quarantined: " ^ detail) ());
  note_failure t k ~file

(* Second chance for a quarantined blob: re-verify it (bounded per key)
   and move it back into the store if it is sound after all.  A blob
   that fails re-verification stays in quarantine and counts toward the
   breaker. *)
let try_readmit t dir k ~file =
  let qpath = quarantine_path dir k in
  let allowed =
    locked t (fun () ->
        let n = Option.value ~default:0 (Hashtbl.find_opt t.readmits k) in
        if n >= t.readmit_limit then false
        else begin
          Hashtbl.replace t.readmits k (n + 1);
          true
        end)
  in
  if not allowed then None
  else
    match read_file qpath with
    | exception Sys_error _ ->
        (* nothing quarantined; undo the attempt charge *)
        locked t (fun () ->
            match Hashtbl.find_opt t.readmits k with
            | Some n -> Hashtbl.replace t.readmits k (n - 1)
            | None -> ());
        None
    | bytes -> (
        match verify k bytes with
        | Good ->
            (try Sys.rename qpath (entry_path dir k) with Sys_error _ -> ());
            Obs.incr "serve.readmitted";
            Some bytes
        | Stale _ | Corrupt _ ->
            note_failure t k ~file;
            None)

(* A disk blob is served only if it still verifies: parses, carries the
   right schema and checksum, and was stored under its own key.  Stale
   blobs are deleted; corrupt blobs are quarantined; and with nothing in
   the store a quarantined blob gets a bounded second verification. *)
let disk_find t k ~file =
  match t.dir with
  | None -> None
  | Some dir ->
      if breaker_is_open t k then begin
        Obs.incr "serve.breaker_open";
        None
      end
      else begin
        let path = entry_path dir k in
        match read_file path with
        | exception Sys_error _ -> try_readmit t dir k ~file
        | bytes -> (
            Obs.incr ~n:(String.length bytes) "image.bytes_read";
            match verify k bytes with
            | Good -> Some bytes
            | Stale _ ->
                Obs.incr "serve.stale";
                (try Sys.remove path with Sys_error _ -> ());
                None
            | Corrupt detail ->
                quarantine t dir k path ~file ~detail;
                None)
      end

(** Look up verified image bytes.  Exactly one of [serve.hits] /
    [serve.misses] fires per call.  [file] is the source path the lookup
    is on behalf of — it labels any incident the lookup raises. *)
let find ?(file = "") (t : t) (k : string) : string option =
  let mem_hit =
    locked t (fun () ->
        match List.assoc_opt k t.lru with
        | Some bytes ->
            put_front t k bytes;
            Some bytes
        | None -> None)
  in
  match mem_hit with
  | Some bytes ->
      Obs.incr "serve.hits";
      Some bytes
  | None -> (
      match disk_find t k ~file with
      | Some bytes ->
          locked t (fun () -> put_front t k bytes);
          Obs.incr "serve.hits";
          Some bytes
      | None ->
          Obs.incr "serve.misses";
          None)

(** Publish image bytes under their key, in memory and (when configured)
    on disk.  Fresh bytes close the key's circuit breaker — we just
    wrote them, so disk is trustworthy again until proven otherwise. *)
let store (t : t) (k : string) (bytes : string) : unit =
  locked t (fun () -> put_front t k bytes);
  breaker_reset t k;
  match t.dir with
  | None -> ()
  | Some dir ->
      write_file dir k bytes;
      Obs.incr ~n:(String.length bytes) "image.bytes_written"

(** On-disk location of a key's blob, when the cache has a disk store.
    Exposed for fault injection (chaos corrupts blobs in place) and for
    tests asserting quarantine behaviour. *)
let blob_path (t : t) (k : string) : string option =
  Option.map (fun dir -> entry_path dir k) t.dir

(** On-disk location a corrupt blob for [k] would be quarantined at. *)
let quarantined_path (t : t) (k : string) : string option =
  Option.map (fun dir -> quarantine_path dir k) t.dir

(** Drop a key from the in-memory LRU only (the disk blob stays) — lets
    tests and chaos harnesses force the next lookup through the disk
    verification path. *)
let drop_memory (t : t) (k : string) : unit =
  locked t (fun () -> t.lru <- List.filter (fun (k', _) -> k' <> k) t.lru)
