(** The host-time benchmark: one workload, one seed, one closed loop.

    {v
    s1bench --workload NAME --seed N --seconds S --trace 0|1
    s1bench --expected      (the gabriel_sim kernels' interpreter values)
    v}

    Set-up builds the workload's inputs and references ({!setup_repeats}
    times, half before the timed loop and half after it; the fastest is
    [setup_s]).  Then a single client calls units back to back, each
    starting when the previous returns, for at least [S] seconds, at
    least {!min_units} units and at least one full pass over the inputs.
    Units run in rounds; a round ends by releasing the worlds it booted
    and collecting the OCaml heap, and that end-of-round work counts in
    the timed wall clock.  The
    timing metrics take each unit's best repeat (see {!summarize}).

    With [--trace 1] every round runs twice, once untraced and once with
    spans recorded around each layer call (alternating which goes
    first); per-layer figures come from the traced copies and
    [trace.overhead_pct] compares the two.  The last line of standard
    output is one JSON object with [correct], [attempted], [failed] and
    [metrics]. *)

module Obs = S1_obs.Obs
module Json = S1_obs.Json

let workloads = [ Gabriel.workload; Lattice.workload; Warm.workload ]
let setup_repeats = 4
let min_units = 100

(* Worlds are retained until their round ends (about 3 MB each), so the
   largest round sets the peak.  Past this the run stops with a message
   rather than running the machine out of memory. *)
let ceiling_mb = 1536.0

exception Over_ceiling of float

let mb_of_words w = float_of_int w *. float_of_int (Sys.word_size / 8) /. 1048576.0
let now_ns = Obs.now_ns

(* Linear interpolation between closest ranks. *)
let percentile sorted q =
  let n = Array.length sorted in
  let pos = q *. float_of_int (n - 1) in
  let lo = int_of_float pos in
  let hi = min (n - 1) (lo + 1) in
  sorted.(lo) +. ((pos -. float_of_int lo) *. (sorted.(hi) -. sorted.(lo)))

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  percentile a 0.5

(* The run -------------------------------------------------------------- *)

type side = {
  by_index : float list array;  (** unit wall times (ms), per unit index *)
  by_slot : float list array;  (** end-of-round times (ms), per round slot of a pass *)
  mutable n : int;
  mutable wall_ns : int;  (** rounds' wall time, end-of-round work included *)
}

let new_side (inst : Workload.instance) =
  {
    by_index = Array.make inst.Workload.units [];
    by_slot = Array.make (inst.Workload.units / inst.Workload.round) [];
    n = 0;
    wall_ns = 0;
  }

type run = {
  inst : Workload.instance;
  first : Workload.outcome option array;  (** first outcome of each unit index *)
  mutable next_unit : int;
  mutable failed : int;
  mutable shown : int;
  plain : side;
  traced : side;
  mutable live_mb_per_world : float;  (** measured after the traced run's timed loop *)
  mutable peak_words : int;  (** OCaml top heap once the first pass completed *)
}

let max_shown = 20

let report_failure rn (o : Workload.outcome) msg =
  rn.failed <- rn.failed + 1;
  if rn.shown < max_shown then begin
    rn.shown <- rn.shown + 1;
    Printf.printf "  MISMATCH %s: %s\n%!" o.Workload.label msg
  end

let run_unit rn i =
  try rn.inst.Workload.run i
  with e ->
    {
      Workload.label = Printf.sprintf "unit %d" i;
      result = "<exception>";
      failure = Some ("uncaught exception: " ^ Printexc.to_string e);
      cycles = 0;
      code_words = 0;
      instructions = 0;
      worlds = 0;
    }

(* One round of units.  [side] collects their times and the round's
   wall clock (end-of-round release and collection included); [traced]
   records spans and per-unit deltas. *)
let do_round rn ~r ~traced side =
  let inst = rn.inst in
  let base = r * inst.Workload.round mod inst.Workload.units in
  Trace.enabled := traced;
  let worlds = ref 0 in
  let t_round = now_ns () in
  for j = 0 to inst.Workload.round - 1 do
    let i = base + j in
    let id = rn.next_unit in
    rn.next_unit <- id + 1;
    Trace.current_unit := if traced then id else -1;
    let before = if traced then Some (Trace.obs_view (), Gc.counters (), Gc.quick_stat ()) else None in
    let t0 = now_ns () in
    let o = run_unit rn i in
    let t1 = now_ns () in
    side.by_index.(i) <- (float_of_int (t1 - t0) /. 1e6) :: side.by_index.(i);
    side.n <- side.n + 1;
    worlds := !worlds + o.Workload.worlds;
    (match before with
    | None -> ()
    | Some (view0, (mi0, pr0, ma0), q0) ->
        let view1 = Trace.obs_view () in
        let mi1, pr1, ma1 = Gc.counters () in
        let q1 = Gc.quick_stat () in
        Trace.units :=
          {
            Trace.r_unit = id;
            r_wall_ns = t1 - t0;
            r_obs_spans = Trace.delta view0.Trace.ov_spans view1.Trace.ov_spans;
            r_counters = Trace.delta view0.Trace.ov_counters view1.Trace.ov_counters;
            r_alloc_words = mi1 -. mi0 +. (ma1 -. ma0) -. (pr1 -. pr0);
            r_major_gcs = q1.Gc.major_collections - q0.Gc.major_collections;
            r_worlds = o.Workload.worlds;
            r_instructions = o.Workload.instructions;
          }
          :: !Trace.units;
        Trace.current_unit := -1);
    (match o.Workload.failure with Some msg -> report_failure rn o msg | None -> ());
    (match rn.first.(i) with
    | None -> rn.first.(i) <- Some o
    | Some f ->
        if f.Workload.result <> o.Workload.result then
          report_failure rn o
            (Printf.sprintf "result %s differs from the first pass's %s" o.Workload.result
               f.Workload.result));
    let heap_mb = mb_of_words (Gc.quick_stat ()).Gc.heap_words in
    if heap_mb > ceiling_mb then raise (Over_ceiling heap_mb)
  done;
  let t_end = now_ns () in
  inst.Workload.end_round ();
  Gc.full_major ();
  let t_done = now_ns () in
  let slot = base / inst.Workload.round in
  side.by_slot.(slot) <- (float_of_int (t_done - t_end) /. 1e6) :: side.by_slot.(slot);
  side.wall_ns <- side.wall_ns + (t_done - t_round);
  (* the peak of set-up plus one pass is the same work in every run,
     however many more rounds the clock allows *)
  if rn.peak_words = 0 && Array.for_all Option.is_some rn.first then
    rn.peak_words <- (Gc.quick_stat ()).Gc.top_heap_words;
  Trace.enabled := false;
  !worlds

(* The OCaml heap a round's worlds keep alive, per world: one extra,
   untimed round whose worlds are measured before they are released. *)
let live_per_world rn ~r =
  let inst = rn.inst in
  let live_words () =
    Gc.full_major ();
    (Gc.quick_stat ()).Gc.live_words
  in
  let live0 = live_words () in
  let scratch = new_side inst in
  let release = inst.Workload.end_round in
  let live1 = ref 0 in
  let worlds =
    do_round
      { rn with inst = { inst with Workload.end_round = (fun () -> live1 := live_words (); release ()) } }
      ~r ~traced:false scratch
  in
  if worlds = 0 then 0.0 else mb_of_words (!live1 - live0) /. float_of_int worlds

let measure inst ~seconds ~traced =
  let rn =
    {
      inst;
      first = Array.make inst.Workload.units None;
      next_unit = 0;
      failed = 0;
      shown = 0;
      plain = new_side inst;
      traced = new_side inst;
      live_mb_per_world = 0.0;
      peak_words = 0;
    }
  in
  let deadline = now_ns () + int_of_float (seconds *. 1e9) in
  let r = ref 0 in
  while
    now_ns () < deadline
    || rn.next_unit < max min_units inst.Workload.units
    || Array.exists Option.is_none rn.first
  do
    (if traced then begin
       (* the same units untraced and traced, alternating which goes first *)
       let order = if !r mod 2 = 0 then [ false; true ] else [ true; false ] in
       List.iter
         (fun t -> ignore (do_round rn ~r:!r ~traced:t (if t then rn.traced else rn.plain)))
         order
     end
     else ignore (do_round rn ~r:!r ~traced:false rn.plain));
    incr r
  done;
  if traced then rn.live_mb_per_world <- live_per_world rn ~r:!r;
  (rn, !r)

(* Reporting ------------------------------------------------------------ *)

let first_pass rn =
  Array.to_list (Array.map (function Some o -> o | None -> assert false) rn.first)

let sum_by f l = List.fold_left (fun acc x -> acc + f x) 0 l

(* The host this runs on changes speed by a third or more for seconds at
   a time (other tenants' load), so a figure averaged over the run moves
   with the host.  A unit's time is therefore the best of its repeats in
   the run, the one least disturbed, and a pass costs the sum of its
   units' best times plus the best end-of-round time of each of its
   round slots (see NOTES.md, noise). *)
let best l = List.fold_left Float.min infinity l

type summary = {
  pass_ms : float;  (** best-of cost of one pass *)
  bests : float array;  (** each unit's best time, sorted *)
  repeats : int;  (** fewest repeats of any unit *)
}

let summarize side =
  let bests = Array.map best side.by_index in
  let pass_ms =
    Array.fold_left ( +. ) 0.0 bests +. Array.fold_left (fun acc l -> acc +. best l) 0.0 side.by_slot
  in
  Array.sort compare bests;
  { pass_ms; bests; repeats = Array.fold_left (fun acc l -> min acc (List.length l)) max_int side.by_index }

let units_per_s s = float_of_int (Array.length s.bests) /. (s.pass_ms /. 1e3)

let end_to_end rn ~setup_s ~setup_code_words =
  let side = rn.plain in
  let s = summarize side in
  let pass = first_pass rn in
  let attempted = side.n in
  let all = Array.concat (Array.to_list (Array.map Array.of_list side.by_index)) in
  Array.sort compare all;
  Printf.printf
    "  units: %d timed in %.3f s, at least %d repeats of each of %d units; p50/p90 over the %d \
     units' best times\n"
    attempted
    (float_of_int side.wall_ns /. 1e9)
    s.repeats (Array.length s.bests) (Array.length s.bests);
  Printf.printf "  wall clock over every sample: %.4f units/s, unit p50 %.4f ms, p90 %.4f ms (n=%d)\n"
    (float_of_int attempted /. (float_of_int side.wall_ns /. 1e9))
    (percentile all 0.5) (percentile all 0.9) (Array.length all);
  (* a short pass (the kernels, the corpus) is listed unit by unit *)
  if Array.length rn.first <= 200 then
    List.iteri
      (fun i o ->
        Printf.printf "    %-44s %9d instr %10d cycles %9.3f ms best %9.3f ms median\n"
          o.Workload.label o.Workload.instructions o.Workload.cycles (best side.by_index.(i))
          (median side.by_index.(i)))
      pass;
  Printf.printf "  fail_ratio: %g (%d of %d units)\n" (float_of_int rn.failed /. float_of_int attempted)
    rn.failed attempted;
  [
    ("setup_s", Json.Float setup_s, "s");
    ("units_per_s", Json.Float (units_per_s s), "1/s");
    ("unit_ms_p50", Json.Float (percentile s.bests 0.5), "ms");
    ("unit_ms_p90", Json.Float (percentile s.bests 0.9), "ms");
    ("peak_heap_mb", Json.Float (mb_of_words rn.peak_words), "MB");
    ("sim_cycles", Json.Int (sum_by (fun o -> o.Workload.cycles) pass), "count");
    ("code_words", Json.Int (setup_code_words + sum_by (fun o -> o.Workload.code_words) pass), "count");
    ( "ok_ratio",
      Json.Float (float_of_int (attempted - rn.failed) /. float_of_int attempted),
      "ratio" );
  ]

let last_component p =
  match String.rindex_opt p '/' with
  | Some i -> String.sub p (i + 1) (String.length p - i - 1)
  | None -> p

let per_layer rn =
  let recs = !Trace.units in
  let n = float_of_int (max 1 (List.length recs)) in
  let selfs = Trace.self_ns ~keep:(fun sp -> sp.Trace.unit_id >= 0) in
  let setup_selfs = Trace.self_ns ~keep:(fun sp -> sp.Trace.unit_id < 0) in
  let self name = fst (Option.value ~default:(0, 0) (Hashtbl.find_opt selfs name)) in
  let per_call name =
    match Hashtbl.find_opt setup_selfs name with
    | Some (ns, k) when k > 0 -> float_of_int ns /. float_of_int k /. 1e6
    | _ -> 0.0
  in
  let obs f = sum_by (fun r -> sum_by (fun (p, ns) -> f p ns) r.Trace.r_obs_spans) recs in
  let obs_leaf name = obs (fun p ns -> if last_component p = name then ns else 0) in
  let obs_path path = obs (fun p ns -> if p = path then ns else 0) in
  let obs_top = obs (fun p ns -> if String.contains p '/' then 0 else ns) in
  let counter f = sum_by (fun r -> sum_by (fun (k, v) -> if f k then v else 0) r.Trace.r_counters) recs in
  let counter_is name = counter (fun k -> k = name) in
  let wall = sum_by (fun r -> r.Trace.r_wall_ns) recs in
  let simplify = obs_leaf "simplify" and cse = obs_leaf "cse" in
  let repan = obs_leaf "repan" and pdlnum = obs_leaf "pdlnum" in
  let tnbind = obs_leaf "tnbind" and load = obs_leaf "load" in
  let guard = obs_leaf "phases" - simplify - cse - repan - pdlnum in
  let emit = obs_leaf "codegen" - tnbind in
  let compile_self =
    obs_path "compile" - obs_path "compile/phases" - obs_path "compile/codegen"
    - obs_path "compile/load"
  in
  let boot = self "core.boot" in
  (* Compiles happen inside [C.eval_print] (core.exec) and replay loads
     inside [Serve.execute]; what those spans cover beyond the Obs phase
     spans is the simulator running the program (plus the replay glue on
     serve_warm). *)
  let exec_rest = self "core.exec" - (if Hashtbl.mem selfs "core.exec" then obs_top else 0) in
  let serve_rest = self "serve.execute" - (if Hashtbl.mem selfs "serve.execute" then obs_top else 0) in
  let layers =
    [
      ("core", boot + guard + load + compile_self);
      ("frontend", obs_leaf "convert");
      ("transform", simplify + cse);
      ("rep", repan + pdlnum);
      ("tnbind", tnbind);
      ("codegen", emit);
      ("machine", self "machine.run" + exec_rest);
      ("serve", self "serve.find" + self "serve.decode" + serve_rest);
    ]
  in
  let unattributed = wall - sum_by snd layers in
  let ms ns = float_of_int ns /. n /. 1e6 in
  Printf.printf "  layer self time per traced unit (%d units, %.4f ms each):\n"
    (List.length recs) (ms wall);
  List.iter
    (fun (name, ns) ->
      Printf.printf "    %-13s %10.4f ms  %5.1f%%\n" name (ms ns)
        (100.0 *. float_of_int ns /. float_of_int (max 1 wall)))
    (layers @ [ ("unattributed", unattributed) ]);
  let ups side = units_per_s (summarize side) in
  List.iter
    (fun (name, side) -> Printf.printf "  %s rounds: %d units, %.4f units/s\n" name side.n (ups side))
    [ ("untraced", rn.plain); ("traced", rn.traced) ];
  let tn_total = counter_is "tn.total" in
  let instructions = sum_by (fun r -> r.Trace.r_instructions) recs in
  let count v = Json.Float (float_of_int v /. n) in
  [
    ("core.boot_ms", Json.Float (ms boot), "ms");
    ("core.worlds", count (sum_by (fun r -> r.Trace.r_worlds) recs), "count");
    ("core.guard_ms", Json.Float (ms guard), "ms");
    ("core.load_ms", Json.Float (ms load), "ms");
    ("frontend.convert_ms", Json.Float (ms (obs_leaf "convert")), "ms");
    ("transform.simplify_ms", Json.Float (ms simplify), "ms");
    ("transform.cse_ms", Json.Float (ms cse), "ms");
    ("transform.rule_fires", count (counter (fun k -> String.starts_with ~prefix:"rule." k)), "count");
    ("transform.sweeps", count (counter_is "simplify.sweeps"), "count");
    ("rep.repan_ms", Json.Float (ms repan), "ms");
    ("rep.pdlnum_ms", Json.Float (ms pdlnum), "ms");
    ("tnbind.pack_ms", Json.Float (ms tnbind), "ms");
    ( "tnbind.reg_ratio",
      Json.Float
        (if tn_total = 0 then 0.0
         else float_of_int (counter_is "tn.in_registers") /. float_of_int tn_total),
      "ratio" );
    ("codegen.emit_ms", Json.Float (ms emit), "ms");
    ("machine.run_ms", Json.Float (ms (self "machine.run" + exec_rest)), "ms");
    ( "machine.ns_per_instr",
      Json.Float
        (if instructions = 0 then 0.0 else float_of_int wall /. float_of_int instructions),
      "ns" );
    ("machine.instructions", count instructions, "count");
    ("runtime.heap_words", count (counter_is "heap.alloc.words"), "count");
    ("runtime.gc_collections", count (counter_is "heap.gc.collections"), "count");
    ("interp.ref_ms", Json.Float (per_call "interp.ref"), "ms");
    ("serve.find_ms", Json.Float (ms (self "serve.find")), "ms");
    ("serve.decode_ms", Json.Float (ms (self "serve.decode")), "ms");
    ("serve.execute_ms", Json.Float (ms (self "serve.execute")), "ms");
    ("serve.encode_ms", Json.Float (per_call "serve.encode"), "ms");
    ("serve.store_ms", Json.Float (per_call "serve.store"), "ms");
    ("serve.image_bytes", count (counter_is "image.bytes_read"), "count");
    ( "host.alloc_mwords",
      Json.Float (List.fold_left (fun acc r -> acc +. r.Trace.r_alloc_words) 0.0 recs /. n /. 1e6),
      "Mwords" );
    ("host.major_gcs", count (sum_by (fun r -> r.Trace.r_major_gcs) recs), "count");
    ( "host.live_mb_per_world",
      Json.Float rn.live_mb_per_world,
      "MB" );
    ("trace.unit_ms", Json.Float (ms wall), "ms");
    ("trace.unattributed_ms", Json.Float (ms unattributed), "ms");
    ( "trace.overhead_pct",
      Json.Float (100.0 *. (ups rn.plain -. ups rn.traced) /. ups rn.plain),
      "%" );
  ]

(* Main ----------------------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: s1bench --workload gabriel_sim|fuzz_lattice|serve_warm --seed N --seconds S --trace 0|1\n\
    \       s1bench --expected";
  exit 2

let print_expected () =
  List.iter (fun (name, v) -> Printf.printf "%-24s %s\n" name v) (Gabriel.interp_values ())

let bench ~(workload : Workload.t) ~seed ~seconds ~traced =
  Printf.printf "perfbench %s seed=%d seconds=%g trace=%d\n%!" workload.Workload.name seed seconds
    (if traced then 1 else 0);
  Trace.enabled := traced;
  let set_up () =
    Gc.full_major ();
    let t0 = now_ns () in
    let inst = workload.Workload.setup ~seed in
    (inst, float_of_int (now_ns () - t0) /. 1e9)
  in
  (* The host's slow spells last seconds to minutes, so the set-ups are
     spread over the run: half before the timed loop (the last of them
     is measured) and half after it.  The traced run reports no set-up
     time, so it sets up once. *)
  let rec before k times =
    let inst, dt = set_up () in
    if k = 1 then (inst, List.rev (dt :: times))
    else begin
      inst.Workload.discard ();
      before (k - 1) (dt :: times)
    end
  in
  let inst, times_before = before (if traced then 1 else setup_repeats / 2) [] in
  Trace.enabled := false;
  Printf.printf "  set-up: %s s; pass = %d units in rounds of %d\n%!"
    (String.concat ", " (List.map (Printf.sprintf "%.4f") times_before))
    inst.Workload.units inst.Workload.round;
  List.iter (Printf.printf "  set-up: %s\n") inst.Workload.notes;
  Gc.full_major ();
  let rn, rounds = measure inst ~seconds ~traced in
  let setup_code_words = inst.Workload.setup_code_words in
  let times_after =
    if traced then []
    else begin
      inst.Workload.discard ();
      List.init (setup_repeats - (setup_repeats / 2)) (fun _ ->
          let i, dt = set_up () in
          i.Workload.discard ();
          dt)
    end
  in
  if times_after <> [] then
    Printf.printf "  set-up after the timed loop: %s s\n"
      (String.concat ", " (List.map (Printf.sprintf "%.4f") times_after));
  Printf.printf "  rounds: %d; result digest (first pass): %s\n" rounds
    (Digest.to_hex
       (Digest.string (String.concat "\n" (List.map (fun o -> o.Workload.result) (first_pass rn)))));
  let metrics =
    if traced then begin
      let m = per_layer rn in
      S1_serve.Cache.ensure_dir Workload.scratch_root;
      let path =
        Filename.concat Workload.scratch_root
          (Printf.sprintf "trace-%s-seed%d.jsonl" workload.Workload.name seed)
      in
      Trace.write_file path;
      Printf.printf "  spans and per-unit deltas written to %s\n" path;
      m
    end
    else
      end_to_end rn ~setup_s:(best (times_before @ times_after)) ~setup_code_words
  in
  List.iter
    (fun (name, v, unit) -> Printf.printf "  %-24s %s %s\n" name (Json.to_string ~pretty:false v) unit)
    metrics;
  print_endline
    (Json.to_string ~pretty:false
       (Json.Obj
          [
            ("correct", Json.Bool (rn.failed = 0));
            ("attempted", Json.Int rn.next_unit);
            ("failed", Json.Int rn.failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (name, v, unit) ->
                     (name, Json.Obj [ ("value", v); ("unit", Json.Str unit) ]))
                   metrics) );
          ]))

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0.0 and trace = ref (-1) in
  let expected = ref false in
  let rec parse = function
    | "--workload" :: v :: rest ->
        workload := v;
        parse rest
    | "--seed" :: v :: rest ->
        seed := int_of_string v;
        parse rest
    | "--seconds" :: v :: rest ->
        seconds := float_of_string v;
        parse rest
    | "--trace" :: v :: rest ->
        trace := int_of_string v;
        parse rest
    | "--expected" :: rest ->
        expected := true;
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if !expected then print_expected ()
  else begin
    let w =
      match List.find_opt (fun w -> w.Workload.name = !workload) workloads with
      | Some w -> w
      | None -> usage ()
    in
    if !seed < 0 || !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then usage ();
    match
      Fun.protect ~finally:Warm.cleanup (fun () ->
          bench ~workload:w ~seed:!seed ~seconds:!seconds ~traced:(!trace = 1))
    with
    | () -> ()
    | exception Over_ceiling mb ->
        Printf.eprintf
          "perfbench: the OCaml heap reached %.1f MB, past the %.0f MB ceiling; stopping before \
           the machine runs out of memory (see perfbench/NOTES.md, memory sizing)\n"
          mb ceiling_mb;
        exit 3
    | exception e ->
        Printf.eprintf "perfbench: %s failed: %s\n" w.Workload.name (Printexc.to_string e);
        exit 2
  end
