(** The supervision layer over the compile service: deadlines, a retry
    ladder with graceful degradation, worker-domain crash isolation, and
    the incident journal that makes every survived fault auditable.

    One supervised unit runs as a sequence of {e attempts}.  Each
    attempt is a normal {!Serve.compile_file} (or, at the ladder floor,
    a reference-interpreter run) under an optional cumulative
    cycle-budget deadline.  A structured [Value] or [Error] outcome ends
    the unit — a Lisp-level error is the program's own semantics, not an
    engine fault, and is never retried.  A [Crash] (machine trap,
    deadline expiry, codegen failure, escaped exception) records an
    incident and, policy permitting, retries one rung down
    {!S1_core.Compiler.degrade_ladder}: full opt, then no-TNBIND/no-pdl,
    then boxed no-opt, then the interpreter.  Degraded attempts compile
    under their own lattice flags, so their images live under their own
    content address and can never be served to a full-strength request.

    Batch mode adds crash isolation: each worker domain advertises the
    unit it is processing; an exception that escapes a unit (in
    practice only the chaos harness's {!S1_fuzz.Chaos.Worker_kill} —
    every anticipated fault is already structured) kills that domain
    only.  The supervisor marks the advertised unit failed with a
    [worker-crash] incident and spawns a replacement worker for the
    remaining work, bounded by the work itself: a respawn happens only
    after the dead worker consumed a unit, so a batch of [n] units
    spawns at most [n] replacements.

    Everything is deterministic by construction: incidents are collected
    per unit (domain-locally) and reassembled in input order, sequence
    numbers are assigned at render time, and no record carries a
    timestamp — two runs with the same inputs, flags, and chaos seed
    produce byte-identical journals. *)

module Sexp = S1_sexp.Sexp
module Reader = S1_sexp.Reader
module Cpu = S1_machine.Cpu
module Rt = S1_runtime.Rt
module C = S1_core.Compiler
module I = S1_interp.Interp
module Obs = S1_obs.Obs
module Oracle = S1_fuzz.Oracle
module Genprog = S1_fuzz.Genprog
module Chaos = S1_fuzz.Chaos

(* Policy ---------------------------------------------------------------- *)

type policy = {
  p_deadline : int option;
      (** cumulative simulator-cycle budget per attempt ([None] = no
          watchdog); covers macroexpansion, DEFVAR initializers, and
          toplevel effects — everything that runs simulated code *)
  p_max_retries : int;  (** attempts allowed {e after} the first *)
  p_degrade : bool;
      (** open the degradation ladder: a crashed attempt retries one
          rung down.  [false] fails fast after the first crash — a
          deterministic compile would only fail identically again at
          the same strength *)
  p_fuel : int option;  (** per-call fuel override, as in {!Serve} *)
}

let default_policy =
  { p_deadline = None; p_max_retries = 3; p_degrade = false; p_fuel = None }

(* Supervised results ---------------------------------------------------- *)

type sup_result = {
  s_result : Serve.result;
      (** the final attempt's service result; its [r_counters] is the
          whole unit's delta (all attempts, retries included) *)
  s_rung : C.degrade_level;  (** rung that produced the final result *)
  s_attempts : int;
  s_disposition : string;  (** "ok" | "degraded:<rung>" | "failed" *)
  s_incidents : Incident.t list;  (** this unit's journal slice, in order *)
}

let succeeded (s : sup_result) : bool = s.s_disposition <> "failed"
let degraded (s : sup_result) : bool =
  String.length s.s_disposition > 9
  && String.sub s.s_disposition 0 9 = "degraded:"

(* The ladder floor: no compilation at all — parse and run the source on
   the reference interpreter, reported through the same structured
   result shape so callers need not care which engine answered. *)
let interp_stub ?fuel ~key ~file (src : string) : Serve.result =
  let before = Obs.snapshot () in
  let outcome, exec =
    match Reader.parse_string src with
    | exception e -> (Oracle.Crash ("parse: " ^ Printexc.to_string e), None)
    | forms -> (
        let it = I.boot () in
        it.I.fuel <- Option.value ~default:Oracle.interp_fuel fuel;
        match
          List.fold_left (fun _ f -> I.eval_sexp it f) it.I.rt.Rt.nil forms
        with
        | w ->
            let e =
              {
                Serve.e_value = Rt.print_value it.I.rt w;
                e_output = Rt.output it.I.rt;
                e_cycles = it.I.rt.Rt.cpu.Cpu.stats.Cpu.cycles;
              }
            in
            (Oracle.Value e.Serve.e_value, Some e)
        | exception Rt.Lisp_error m -> (Oracle.Error m, None)
        | exception Rt.Thrown _ -> (Oracle.Error "uncaught throw", None)
        | exception S1_frontend.Convert.Convert_error { message; _ } ->
            (Oracle.Error ("convert: " ^ message), None)
        | exception S1_frontend.Macroexp.Expansion_error { message; _ } ->
            (Oracle.Error ("macro: " ^ message), None)
        | exception I.Fuel_exhausted ->
            (Oracle.Error "interpreter fuel exhausted", None)
        | exception Stack_overflow ->
            (Oracle.Crash "interpreter stack overflow", None)
        | exception e -> (Oracle.Crash (Printexc.to_string e), None))
  in
  {
    Serve.r_file = file;
    r_key = key;
    r_hit = false;
    r_image = "";
    r_outcome = outcome;
    r_exec = exec;
    r_counters = Obs.diff ~before ();
    r_trap = None;
    r_loc = None;
  }

(* Incident classification for a crashed attempt. *)
let crash_kind (r : Serve.result) : string =
  match r.Serve.r_trap with
  | Some Cpu.Deadline_expired -> "deadline"
  | Some _ -> "trap"
  | None -> "rollback-exhausted"

(* Cycle budget for a chaos-injected deadline overrun: one cycle — the
   first simulator run of the attempt expires it, whatever the unit
   does, so the fault fires deterministically. *)
let chaos_deadline_cycles = 1

(** Run one unit under supervision: attempt, classify, retry down the
    ladder, journal.  [fault] injects one chaos fault into the unit;
    [seed] (the chaos master seed) rides along in incident repro
    blocks. *)
let run_unit ?cache ?(policy = default_policy) ?(fault = Chaos.Bnone) ?seed
    (cfg : Serve.cfg) ~file (src : string) : sup_result =
  let before = Obs.snapshot () in
  let lattice = (cfg.Serve.sv_rules, cfg.Serve.sv_options, cfg.Serve.sv_cse) in
  let run_rung (rung : C.degrade_level) ~(deadline : int option) : Serve.result
      =
    match C.degrade_config rung lattice with
    | Some (rules, options, cse) ->
        let cfg' = { Serve.sv_rules = rules; sv_options = options; sv_cse = cse } in
        let degraded = if rung = C.Full_opt then "" else C.degrade_name rung in
        Serve.compile_file ?cache ?fuel:policy.p_fuel ?deadline ~degraded cfg'
          ~file src
    | None -> interp_stub ?fuel:None ~key:(Serve.key_of cfg src) ~file src
  in
  let (rung, attempts, result), incidents =
    Incident.with_sink (fun () ->
        (match fault with
        | Chaos.Bkill -> raise Chaos.Worker_kill
        | Chaos.Bcorrupt ->
            (* damage the unit's cached blob in place so the lookup path
               must absorb it; the cache's quarantine records the
               incident *)
            Option.iter
              (fun t ->
                let k = Serve.key_of cfg src in
                Cache.drop_memory t k;
                Option.iter Chaos.corrupt_blob (Cache.blob_path t k))
              cache
        | Chaos.Bnone | Chaos.Bdeadline -> ());
        let rec attempt (rungs : C.degrade_level list) (n : int) =
          let rung = List.hd rungs in
          let deadline =
            if fault = Chaos.Bdeadline && n = 0 then Some chaos_deadline_cycles
            else policy.p_deadline
          in
          let r = run_rung rung ~deadline in
          match r.Serve.r_outcome with
          | Oracle.Value _ | Oracle.Error _ -> (rung, n + 1, r)
          | Oracle.Crash detail ->
              let kind = crash_kind r in
              if kind = "deadline" then Obs.incr "serve.deadline";
              Incident.record
                (Incident.make ~kind ~file ~key:r.Serve.r_key
                   ~rung:(C.degrade_name rung) ~attempt:n ~detail
                   ?loc:r.Serve.r_loc
                   ~flags:(Serve.flags_of cfg) ?seed ());
              let next_rungs = List.tl rungs in
              if n < policy.p_max_retries && next_rungs <> [] then begin
                Obs.incr "serve.retries";
                attempt next_rungs (n + 1)
              end
              else (rung, n + 1, r)
        in
        let rungs = if policy.p_degrade then C.degrade_ladder else [ C.Full_opt ] in
        attempt rungs 0)
  in
  let disposition =
    match result.Serve.r_outcome with
    | Oracle.Crash _ -> "failed"
    | Oracle.Value _ | Oracle.Error _ ->
        if rung = C.Full_opt then "ok" else "degraded:" ^ C.degrade_name rung
  in
  if disposition <> "ok" && disposition <> "failed" then Obs.incr "serve.degraded";
  (* complete the repro blocks of incidents recorded by layers that
     don't know the unit's provenance (the cache knows keys, not seeds
     or lattice flags) *)
  List.iter
    (fun i ->
      if i.Incident.n_seed = None then i.Incident.n_seed <- seed;
      if i.Incident.n_flags = "" then i.Incident.n_flags <- Serve.flags_of cfg)
    incidents;
  Incident.mark_terminal ~disposition incidents;
  {
    s_result = { result with Serve.r_counters = Obs.diff ~before () };
    s_rung = rung;
    s_attempts = attempts;
    s_disposition = disposition;
    s_incidents = incidents;
  }

(* Supervised batch ------------------------------------------------------ *)

type batch_report = {
  b_results : sup_result list;  (** input order *)
  b_incidents : Incident.t list;
      (** every unit's incidents, concatenated in input order — the
          batch journal ({!Incident.render}) *)
}

let report_of (results : sup_result list) : batch_report =
  { b_results = results;
    b_incidents = List.concat_map (fun s -> s.s_incidents) results }

(** Any unit that exhausted its retries (or died with its worker). *)
let hard_failure (r : batch_report) : bool =
  List.exists (fun s -> not (succeeded s)) r.b_results

(** All units completed, at least one below full strength. *)
let all_ok_some_degraded (r : batch_report) : bool =
  (not (hard_failure r)) && List.exists degraded r.b_results

(** Supervised batch over in-memory (file, source) units: [jobs] worker
    domains, crash isolation, optional seeded chaos.  Results come back
    in input order and every worker's counter deltas are merged into the
    calling domain's registry in input order, exactly like
    {!Serve.batch}. *)
let batch_sources ?cache ?(policy = default_policy) ?(jobs = 1) ?chaos
    (cfg : Serve.cfg) (units : (string * string) list) : batch_report =
  let units = Array.of_list units in
  let n = Array.length units in
  let results : sup_result option array = Array.make n None in
  let next = Atomic.make 0 in
  (* worker w advertises the unit it is processing so the supervisor can
     attribute a domain death; -1 = idle *)
  let jobs = max 1 (min jobs (max 1 n)) in
  let inflight = Array.make jobs (-1) in
  let worker wid () =
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        inflight.(wid) <- i;
        let file, src = units.(i) in
        let fault =
          match chaos with
          | None -> Chaos.Bnone
          | Some seed -> Chaos.batch_fault_for ~seed ~index:i
        in
        let r = run_unit ?cache ~policy ~fault ?seed:chaos cfg ~file src in
        results.(i) <- Some r;
        inflight.(wid) <- -1;
        loop ()
      end
    in
    loop ()
  in
  (* mark the unit a dead worker was holding as failed, with the batch's
     one worker-crash incident for it *)
  let crashed i (e : exn) : sup_result =
    let file, _ = units.(i) in
    let detail = "worker domain died: " ^ Printexc.to_string e in
    let inc =
      Incident.make ~kind:"worker-crash" ~file ~detail
        ~flags:(Serve.flags_of cfg) ?seed:chaos ()
    in
    Incident.mark_terminal ~disposition:"failed" [ inc ];
    Obs.incr "serve.worker_crashes";
    {
      s_result =
        {
          Serve.r_file = file;
          r_key = "";
          r_hit = false;
          r_image = "";
          r_outcome = Oracle.Crash detail;
          r_exec = None;
          r_counters = [];
          r_trap = None;
          r_loc = None;
        };
      s_rung = C.Full_opt;
      s_attempts = 1;
      s_disposition = "failed";
      s_incidents = [ inc ];
    }
  in
  let rec supervise pool =
    match pool with
    | [] -> ()
    | (wid, d) :: rest -> (
        match Domain.join d with
        | () -> supervise rest
        | exception e ->
            let victim = inflight.(wid) in
            if victim >= 0 && results.(victim) = None then
              results.(victim) <- Some (crashed victim e);
            inflight.(wid) <- -1;
            (* respawn only if unclaimed work remains; each respawn
               follows a consumed unit, so respawns are bounded by n *)
            let rest =
              if Atomic.get next < n then (wid, Domain.spawn (worker wid)) :: rest
              else rest
            in
            supervise rest)
  in
  supervise (List.init jobs (fun wid -> (wid, Domain.spawn (worker wid))));
  let rs =
    Array.to_list
      (Array.map
         (function Some r -> r | None -> failwith "supervise: unprocessed unit")
         results)
  in
  List.iter
    (fun s ->
      List.iter (fun (k, v) -> Obs.incr ~n:v k) s.s_result.Serve.r_counters)
    rs;
  report_of rs

(** Supervised batch over source files.  An unreadable file is a failed
    unit (incident kind [io]), not a batch abort. *)
let batch ?cache ?policy ?jobs ?chaos (cfg : Serve.cfg) (files : string list) :
    batch_report =
  let units, bad =
    List.fold_left
      (fun (units, bad) f ->
        match Cache.read_file f with
        | src -> ((f, src) :: units, bad)
        | exception Sys_error m -> (units, (f, m) :: bad))
      ([], []) files
  in
  let bad = List.rev bad and units = List.rev units in
  let report = batch_sources ?cache ?policy ?jobs ?chaos cfg units in
  if bad = [] then report
  else begin
    (* splice unreadable files back at their input positions *)
    let failed (f, m) =
      let detail = "cannot read file: " ^ m in
      let inc = Incident.make ~kind:"io" ~file:f ~detail () in
      Incident.mark_terminal ~disposition:"failed" [ inc ];
      {
        s_result =
          {
            Serve.r_file = f;
            r_key = "";
            r_hit = false;
            r_image = "";
            r_outcome = Oracle.Crash detail;
            r_exec = None;
            r_counters = [];
            r_trap = None;
            r_loc = None;
          };
        s_rung = C.Full_opt;
        s_attempts = 0;
        s_disposition = "failed";
        s_incidents = [ inc ];
      }
    in
    let by_file = Hashtbl.create 8 in
    List.iter (fun s -> Hashtbl.add by_file s.s_result.Serve.r_file s)
      report.b_results;
    let results =
      List.map
        (fun f ->
          match Hashtbl.find_opt by_file f with
          | Some s ->
              Hashtbl.remove by_file f;
              s
          | None -> failed (f, List.assoc f bad))
        files
    in
    report_of results
  end

let journal (r : batch_report) : string = Incident.render r.b_incidents

(* Chaos smoke ----------------------------------------------------------- *)

type smoke_report = {
  k_seed : int;
  k_count : int;
  k_faulted : int;  (** units with an injected fault *)
  k_failures : string list;  (** invariant violations; [] = pass *)
  k_journal : string;  (** the (verified byte-stable) incident journal *)
}

(* The end-to-end acceptance harness for the supervision layer.  From
   one (seed, count):

   1. generate [count] programs and warm a disk cache fault-free,
      keeping the reference images and outcomes;
   2. run a chaos batch (worker kills, deadline overruns, blob
      corruption) over a fresh cache instance on the warmed store;
   3. assert the contract: the driver completes; units without an
      injected fault come out byte-identical to the fault-free run;
      every faulted unit carries exactly one terminal incident with a
      replayable repro; nothing both quarantines and counts stale;
   4. wipe, re-warm, re-run with the same seed, and assert the two
      journals and the two merged counter deltas are byte-identical. *)
let chaos_smoke ?(seed = 11) ?(count = 12) ?(jobs = 4) ~dir () : smoke_report =
  let cfg = Serve.default_cfg in
  let policy =
    { default_policy with p_degrade = true; p_fuel = Some Oracle.fuzz_fuel }
  in
  let units =
    List.init count (fun i ->
        let pseed = seed + i in
        ( Printf.sprintf "<chaos-%d>" pseed,
          Genprog.render (Genprog.generate ~seed:pseed) ))
  in
  let faults =
    List.init count (fun i -> Chaos.batch_fault_for ~seed ~index:i)
  in
  let fails = ref [] in
  let failf fmt = Printf.ksprintf (fun m -> fails := m :: !fails) fmt in
  let wipe () =
    if Sys.file_exists dir then begin
      let rec rm p =
        if Sys.is_directory p then begin
          Array.iter (fun e -> rm (Filename.concat p e)) (Sys.readdir p);
          Sys.rmdir p
        end
        else Sys.remove p
      in
      rm dir
    end
  in
  let one_round () =
    wipe ();
    let warm_cache = Cache.create ~dir ~capacity:(max 16 count) () in
    let reference = batch_sources ~cache:warm_cache ~policy ~jobs cfg units in
    let before = Obs.snapshot () in
    let chaos_cache = Cache.create ~dir ~capacity:(max 16 count) () in
    let chaos =
      batch_sources ~cache:chaos_cache ~policy ~jobs ~chaos:seed cfg units
    in
    (reference, chaos, Obs.diff ~before ())
  in
  let reference, chaos, delta1 = one_round () in
  (* 3a: non-faulted units byte-identical to the fault-free run *)
  List.iteri
    (fun i fault ->
      let r = List.nth reference.b_results i
      and c = List.nth chaos.b_results i in
      let file = r.s_result.Serve.r_file in
      match fault with
      | Chaos.Bnone ->
          if c.s_result.Serve.r_image <> r.s_result.Serve.r_image then
            failf "%s: unfaulted unit image differs from fault-free run" file;
          if
            Oracle.outcome_string c.s_result.Serve.r_outcome
            <> Oracle.outcome_string r.s_result.Serve.r_outcome
          then failf "%s: unfaulted unit outcome differs" file;
          if c.s_incidents <> [] then
            failf "%s: unfaulted unit raised %d incident(s)" file
              (List.length c.s_incidents)
      | Chaos.Bkill | Chaos.Bdeadline | Chaos.Bcorrupt -> (
          (* exactly one terminal incident, carrying a repro *)
          match List.filter (fun i -> i.Incident.n_final) c.s_incidents with
          | [ t ] ->
              if t.Incident.n_disposition = "" then
                failf "%s: terminal incident lacks a disposition" file;
              if t.Incident.n_file <> file then
                failf "%s: terminal incident names %s" file t.Incident.n_file;
              if t.Incident.n_seed <> Some seed then
                failf "%s: terminal incident repro lacks the chaos seed" file
          | ts ->
              failf "%s: expected exactly 1 terminal incident, found %d (of %d)"
                file (List.length ts)
                (List.length c.s_incidents)))
    faults;
  (* 3b: the batch completed — every unit has a result (batch_sources
     would have raised otherwise) *)
  if List.length chaos.b_results <> count then
    failf "chaos batch returned %d results for %d units"
      (List.length chaos.b_results) count;
  (* 3c: quarantined and stale are disjoint classifications; corruption
     must never be silently deleted as stale *)
  let merged =
    List.concat_map (fun s -> s.s_result.Serve.r_counters) chaos.b_results
  in
  let total k =
    List.fold_left (fun acc (k', v) -> if k' = k then acc + v else acc) 0 merged
  in
  let corrupts =
    List.length (List.filter (fun f -> f = Chaos.Bcorrupt) faults)
  in
  if corrupts > 0 && total "serve.quarantined" = 0 then
    failf "blob corruption injected %d time(s) but nothing was quarantined"
      corrupts;
  if corrupts = 0 && total "serve.quarantined" > 0 then
    failf "quarantine fired without injected corruption";
  (* 4: byte-determinism across a full re-run *)
  let _, chaos2, delta2 = one_round () in
  let j1 = journal chaos and j2 = journal chaos2 in
  if j1 <> j2 then
    failf "two identical chaos runs produced different incident journals";
  if delta1 <> delta2 then
    failf "two identical chaos runs produced different counter deltas";
  {
    k_seed = seed;
    k_count = count;
    k_faulted =
      List.length (List.filter (fun f -> f <> Chaos.Bnone) faults);
    k_failures = List.rev !fails;
    k_journal = j1;
  }

let smoke_summary (r : smoke_report) : string =
  let b = Buffer.create 256 in
  Printf.bprintf b
    "serve-chaos: %d units, seed %d, %d faulted: %d invariant violation%s\n"
    r.k_count r.k_seed r.k_faulted
    (List.length r.k_failures)
    (if List.length r.k_failures = 1 then "" else "s");
  List.iter (fun m -> Printf.bprintf b "\n--- violation: %s\n" m) r.k_failures;
  Buffer.contents b
