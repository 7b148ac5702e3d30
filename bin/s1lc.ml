(* s1lc — the S-1 Lisp compiler command line.

   Usage examples:
     s1lc --eval "(+ 1 2)"                 evaluate forms (compiled)
     s1lc file.lisp                        compile and run a file
     s1lc --listing --eval "(defun f (x) (* x x))"
                                           show generated assembly
     s1lc --transcript --eval "..."        show the optimizer transcript
     s1lc --phases                         print the Table 1 phase list
     s1lc --interpret file.lisp            run through the interpreter
     s1lc --repl                           interactive read-eval-print loop
     s1lc --stats ...                      print simulator statistics at exit
     s1lc --timings ...                    per-phase wall timings + counters
     s1lc --profile ...                    PC-level cycle profile by function,
                                           source line and IR node
     s1lc --trace out.jsonl ...            write the structured rewrite journal
     s1lc --annotate ...                   annotated listing: source lines
                                           interleaved with instructions and
                                           measured cycles
     s1lc --metrics out.json ...           write all of the above as JSON
     s1lc --folded out.folded ...          call-path profile as flamegraph
                                           folded stacks ("f;g;h 1234")
     s1lc --trace-events out.json ...      runtime event timeline (GC, traps,
                                           binds, unwinds, phases) as Chrome
                                           trace_event JSON on the cycle clock
     s1lc --remarks ...                    optimization remarks interleaved
                                           with the source: every decision,
                                           declined ones with the reason
     s1lc --remarks-json out.jsonl ...     the same as a structured journal
     s1lc --diff-runs a.json b.json        diff two exported runs (remarks,
                                           metrics, or bench); nonzero exit
                                           on regression past the threshold
     s1lc --fuzz 500 --seed 42             differential fuzzing: generated
                                           programs, interpreter vs compiled
                                           across the optimization lattice
     s1lc --fuzz N --fuzz-report out.json  ... with a structured report;
                                           any campaign below writes one
                                           (schema s1lisp.fuzz/2)
     s1lc --chaos 200 --seed 42            chaos fault injection: seeded pass
                                           faults and resource starvation,
                                           asserting rollback + oracle agreement
     s1lc --strict file.lisp               robustness incidents (rollbacks,
                                           verifier failures) become hard errors
     s1lc --serve-batch a.lisp b.lisp -j 4 --cache-dir .s1c
                                           compile through the content-addressed
                                           image cache, 4 domains wide; warm
                                           runs load serialized images and skip
                                           every optimization pass.  Exit 0 =
                                           all clean, 2 = hard failure, 3 = all
                                           succeeded but some degraded
     s1lc --serve-batch --degrade --deadline-cycles 2000000 --max-retries 3 ...
                                           supervised batch: per-unit cycle
                                           deadlines, crashed units retry down
                                           the degradation ladder (full ->
                                           no-tnbind/pdl -> boxed -> interp)
     s1lc --serve-batch --incidents j.jsonl ...
                                           write the incident journal (schema
                                           s1lisp.incidents/1): every trap,
                                           deadline expiry, quarantined blob,
                                           breaker trip, worker crash, with a
                                           replayable repro each
     s1lc --serve-chaos 12 --seed 11       chaos-batch smoke: seeded worker
                                           kills, deadline overruns and blob
                                           corruption over a warmed cache;
                                           asserts isolation, byte-identical
                                           unfaulted outputs, deterministic
                                           journals
     s1lc --serve-fuzz 200 --seed 42       fuzz the cache path: cold vs warm
                                           vs interpreter agreement
     s1lc --no-tnbind --no-pdl ...         flip individual optimizations
                                           (reproduce a fuzz-reported config) *)

module C = S1_core.Compiler
module Lattice = S1_core.Lattice
module Rt = S1_runtime.Rt
module Reader = S1_sexp.Reader
module Cpu = S1_machine.Cpu
module Obs = S1_obs.Obs
module Json = S1_obs.Obs.Json

let write_file file text = Out_channel.with_open_text file (fun oc -> output_string oc text)

let stats_json (s : Cpu.stats) : Json.t =
  Json.Obj
    [
      ("cycles", Json.Int s.Cpu.cycles);
      ("instructions", Json.Int s.Cpu.instructions);
      ("movs", Json.Int s.Cpu.movs);
      ("mem_traffic", Json.Int s.Cpu.mem_traffic);
      ("calls", Json.Int s.Cpu.calls);
      ("tcalls", Json.Int s.Cpu.tcalls);
      ("svcs", Json.Int s.Cpu.svcs);
      ("stack_high", Json.Int s.Cpu.stack_high);
      ("bind_high", Json.Int s.Cpu.bind_high);
    ]

(* The call-path section of --metrics: the caller->callee edge table
   (gprof-style, inclusive and exclusive cycles) plus allocation volume
   by call path.  Present only when the shadow stack ran (--folded or
   --trace-events). *)
let callgraph_json cpu : Json.t =
  Json.Obj
    [
      ( "edges",
        Json.Arr
          (List.map
             (fun (e : Cpu.edge_profile) ->
               Json.Obj
                 [
                   ("caller", Json.Str e.Cpu.ep_caller);
                   ("callee", Json.Str e.Cpu.ep_callee);
                   ("calls", Json.Int e.Cpu.ep_calls);
                   ("tcalls", Json.Int e.Cpu.ep_tcalls);
                   ("incl_cycles", Json.Int e.Cpu.ep_incl_cycles);
                   ("excl_cycles", Json.Int e.Cpu.ep_excl_cycles);
                 ])
             (Cpu.call_edges cpu)) );
      ( "alloc_paths",
        Json.Obj (List.map (fun (p, w) -> (p, Json.Int w)) (Cpu.folded_alloc cpu)) );
    ]

let profile_json cpu : Json.t =
  Json.Obj
    [
      ( "functions",
        Json.Arr
          (List.map
             (fun (f : Cpu.func_profile) ->
               Json.Obj
                 [
                   ("name", Json.Str f.Cpu.f_name);
                   ("entry", Json.Int f.Cpu.f_entry);
                   ("cycles", Json.Int f.Cpu.f_cycles);
                   ("instructions", Json.Int f.Cpu.f_instructions);
                   ("movs", Json.Int f.Cpu.f_movs);
                   ("calls", Json.Int f.Cpu.f_calls);
                 ])
             (Cpu.profile_by_function cpu)) );
      ( "lines",
        Json.Arr
          (List.map
             (fun (l : Cpu.line_profile) ->
               Json.Obj
                 [
                   ("file", Json.Str l.Cpu.ln_file);
                   ("line", Json.Int l.Cpu.ln_line);
                   ("cycles", Json.Int l.Cpu.ln_cycles);
                   ("instructions", Json.Int l.Cpu.ln_instructions);
                   ("movs", Json.Int l.Cpu.ln_movs);
                 ])
             (Cpu.profile_by_line cpu)) );
      ( "opcodes",
        Json.Obj (List.map (fun (op, n) -> (op, Json.Int n)) (Cpu.opcode_histogram cpu)) );
    ]

(* The --metrics document: the Obs schema (spans + counters) extended
   with the simulator's execution statistics, when --profile is on the
   per-function cycle attribution, and in batch mode a per-input "files"
   array of counter deltas (the global registry scoped back to each
   compilation unit). *)
let metrics_json ~(cpu : Cpu.t) ~(file_deltas : (string * (string * int) list) list) () :
    Json.t =
  let files_json =
    match file_deltas with
    | [] -> []
    | deltas ->
        [
          ( "files",
            Json.Arr
              (List.map
                 (fun (file, counters) ->
                   Json.Obj
                     [
                       ("file", Json.Str file);
                       ( "counters",
                         Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) counters) );
                     ])
                 deltas) );
        ]
  in
  match Obs.json () with
  | Json.Obj fields ->
      Json.Obj
        (fields
        @ [ ("cpu", stats_json cpu.Cpu.stats) ]
        @ (if Cpu.profiling cpu then [ ("profile", profile_json cpu) ] else [])
        @ (if Cpu.callgraph_on cpu then [ ("callgraph", callgraph_json cpu) ] else [])
        @ files_json)
  | other -> other

let run phases listing transcript tns interpret repl stats timings profile metrics trace
    annotate folded trace_events remarks remarks_json diff_runs diff_threshold
    (lattice : Lattice.point) strict fuzz chaos seed fuzz_report serve_batch jobs
    cache_dir cache_capacity serve_out serve_fuzz deadline_cycles max_retries degrade incidents
    serve_chaos evals files =
  let module Remark = S1_obs.Remark in
  (* --diff-runs is a separate mode: compare two exported runs, compile
     nothing.  The two positional arguments are the JSON files. *)
  if diff_runs then begin
    let module D = S1_obs.Diffrun in
    match files with
    | [ a; b ] -> (
        try
          let report = D.diff ~threshold:diff_threshold (D.load a) (D.load b) in
          print_string (D.render report);
          exit (if report.D.r_regressed then 1 else 0)
        with D.Diff_error m | Remark.Journal_error m | Json.Parse_error m ->
          Printf.eprintf "s1lc: --diff-runs: %s\n" m;
          exit 2)
    | _ ->
        Printf.eprintf "s1lc: --diff-runs compares exactly two exported files (got %d)\n"
          (List.length files);
        exit 2
  end;
  (* --serve-batch is the compile-service driver: a content-addressed
     image cache in front of the compiler, -j N domains wide, every unit
     under the supervisor (deadlines, retry ladder, crash isolation).
     Results print in input order whatever the schedule; hit/miss
     markers go to stderr so stdout carries exactly the programs' output
     and values. *)
  if serve_batch then begin
    let module Serve = S1_serve.Serve in
    let module Cache = S1_serve.Cache in
    let module Sup = S1_serve.Supervise in
    if files = [] then begin
      Printf.eprintf "s1lc: --serve-batch needs at least one FILE\n";
      exit 2
    end;
    Obs.reset ();
    Obs.preseed ~prefixes:[ "serve."; "image." ] ();
    let cache = Cache.create ?dir:cache_dir ~capacity:cache_capacity () in
    let cfg = Serve.cfg_of_point lattice in
    let policy =
      {
        Sup.p_deadline = deadline_cycles;
        p_max_retries = max_retries;
        p_degrade = degrade;
        p_fuel = None;
      }
    in
    let report = Sup.batch ~cache ~policy ~jobs cfg files in
    let results = List.map (fun s -> s.Sup.s_result) report.Sup.b_results in
    (match serve_out with
    | None -> ()
    | Some dir ->
        Cache.ensure_dir dir;
        List.iter
          (fun r ->
            if r.Serve.r_image <> "" then begin
              let base =
                Filename.remove_extension (Filename.basename r.Serve.r_file)
              in
              let oc = open_out_bin (Filename.concat dir (base ^ ".image")) in
              output_string oc r.Serve.r_image;
              close_out oc
            end)
          results);
    (match incidents with
    | None -> ()
    | Some file ->
        let oc = open_out file in
        output_string oc (Sup.journal report);
        close_out oc);
    List.iter
      (fun s ->
        let r = s.Sup.s_result in
        Printf.eprintf "%s %s %s%s\n"
          (if r.Serve.r_hit then "[hit] " else "[miss]")
          (if r.Serve.r_key = "" then String.make 12 '-'
           else String.sub r.Serve.r_key 0 12)
          r.Serve.r_file
          (if Sup.degraded s then " [" ^ s.Sup.s_disposition ^ "]" else "");
        match r.Serve.r_exec with
        | Some e ->
            if e.Serve.e_output <> "" then print_string e.Serve.e_output;
            print_endline e.Serve.e_value
        | None ->
            Printf.eprintf "s1lc: %s: %s\n" r.Serve.r_file
              (S1_fuzz.Oracle.outcome_string r.Serve.r_outcome))
      report.Sup.b_results;
    (* stderr, like the hit/miss markers: stdout is the programs' own *)
    if timings then
      Format.eprintf "%t@.@.%t@." (fun fmt -> Obs.pp_timings fmt ()) (fun fmt ->
          Obs.pp_counters fmt ());
    (match metrics with
    | None -> ()
    | Some file ->
        (* the usual metrics document, with a per-input "files" array of
           key/hit/counter-delta entries instead of CPU statistics (each
           worker domain ran its own simulator) *)
        let files_json =
          ( "files",
            Json.Arr
              (List.map
                 (fun r ->
                   Json.Obj
                     [
                       ("file", Json.Str r.Serve.r_file);
                       ("key", Json.Str r.Serve.r_key);
                       ("hit", Json.Bool r.Serve.r_hit);
                       ( "counters",
                         Json.Obj
                           (List.map
                              (fun (k, v) -> (k, Json.Int v))
                              r.Serve.r_counters) );
                     ])
                 results) )
        in
        let doc =
          match Obs.json () with
          | Json.Obj fields -> Json.Obj (fields @ [ files_json ])
          | other -> other
        in
        let oc = open_out file in
        output_string oc (Json.to_string doc);
        output_char oc '\n';
        close_out oc);
    (* 0 = every unit clean; 2 = at least one unit failed for good;
       3 = everything succeeded but some only at a degraded rung *)
    exit
      (if Sup.hard_failure report then 2
       else if Sup.all_ok_some_degraded report then 3
       else 0)
  end;
  (* parse --remarks=KINDS before doing any work, so a typo fails fast *)
  let remark_kinds =
    match remarks with
    | None -> None
    | Some spec ->
        Some
          (List.map
             (fun name ->
               match Remark.kind_of_name (String.trim (String.lowercase_ascii name)) with
               | Some k -> k
               | None ->
                   Printf.eprintf
                     "s1lc: --remarks: unknown kind %S (expected passed, missed, analysis)\n"
                     name;
                   exit 2)
             (String.split_on_char ',' spec))
  in
  let c =
    C.create ~options:lattice.Lattice.options ~rules:lattice.rules ~cse:lattice.cse ~strict ()
  in
  Remark.reset ();
  if remark_kinds <> None || remarks_json <> None then Remark.set_enabled true;
  (* measure only the user's forms: boot noise (builtin stubs, prelude)
     stays out of the counters and the profile *)
  Obs.reset ();
  (* pre-seed the schema's fixed counters at zero, so every rule and
     packing statistic appears in --timings/--metrics output even when
     this compile never exercises it *)
  List.iter
    (fun r -> Obs.incr ~n:0 ("rule." ^ r))
    S1_transform.Rules.transcript_rule_names;
  Obs.preseed ();
  Cpu.reset_stats c.C.rt.Rt.cpu;
  (* --annotate needs per-PC cycle counts and the loaded programs *)
  if profile || annotate then Cpu.enable_profile c.C.rt.Rt.cpu;
  (* --folded and --trace-events both need the shadow call stack; the
     timeline additionally records runtime events on the cycle clock *)
  if folded <> None || trace_events <> None then Cpu.enable_callgraph c.C.rt.Rt.cpu;
  if trace_events <> None then begin
    S1_obs.Timeline.reset ();
    S1_obs.Timeline.set_enabled true
  end;
  (* the unit log (and with it the journal) feeds every view of a
     compiled unit *)
  if listing || transcript || tns || annotate || trace <> None then c.C.log <- Some [];
  (* source text per input (pseudo-)file, for annotated listings *)
  let sources : (string, string array) Hashtbl.t = Hashtbl.create 4 in
  if phases then begin
    print_endline "Phase structure (paper Table 1):";
    List.iter (fun p -> Printf.printf "  - %s\n" p) C.phases
  end;
  let process_form form =
    if listing || transcript || tns then begin
      let l, t = C.listing_of c form in
      if transcript then print_string (S1_transform.Transcript.to_string t);
      (match c.C.log with
      | Some (u :: _) when tns -> print_string (S1_codegen.Gen.tn_report u.C.l_unit.c_packing)
      | _ -> ());
      if listing then print_endline l;
      (* also actually evaluate, for defuns and effects *)
      match S1_frontend.Convert.toplevel form with
      | S1_frontend.Convert.Defun _ -> ()
      | _ -> ignore (C.eval c form)
    end
    else
      let w =
        if interpret then S1_interp.Interp.eval_sexp c.C.it form else C.eval c form
      in
      Printf.printf "%s\n" (C.print_value c w)
  in
  (* A top-level form's failure, read through the one outcome table
     (Oracle.failure): its message, the exception's own source position
     when it carries one, and the exit status (2 for a pass rollback
     under --strict).  [None] for an exception outside the table. *)
  let failure e =
    Option.map
      (fun (o : S1_fuzz.Oracle.outcome) ->
        let loc =
          match e with
          | S1_frontend.Convert.Convert_error { loc; _ }
          | S1_frontend.Macroexp.Expansion_error { loc; _ }
          | Cpu.Trap { loc; _ } ->
              loc
          | _ -> None
        in
        let (Value m | Error m | Crash m) = o in
        (loc, m, match e with C.Strict_failure _ -> 2 | _ -> 1))
      (S1_fuzz.Oracle.failure ~engine:"compiler" e)
  in
  (* Obs counters are process-global; in batch mode the metrics document
     scopes them back per input by snapshotting around each unit, so one
     file's numbers never bleed into the next file's entry *)
  let file_deltas : (string * (string * int) list) list ref = ref [] in
  let process_string ~file src =
    let before = Obs.snapshot () in
    let record_deltas () = file_deltas := !file_deltas @ [ (file, Obs.diff ~before ()) ] in
    Fun.protect ~finally:record_deltas @@ fun () ->
    Hashtbl.replace sources file (Array.of_list (String.split_on_char '\n' src));
    match Reader.parse_string_located ~file src with
    | forms, tab ->
        let saved = c.C.locs in
        c.C.locs <- Some tab;
        Fun.protect
          ~finally:(fun () -> c.C.locs <- saved)
          (fun () ->
            (* batch mode exits non-zero with file:line:col, never with an
               OCaml backtrace *)
            try List.iter process_form forms with
            | e -> (
                match failure e with
                | Some (loc, msg, code) ->
                    let where = Option.fold ~none:file ~some:S1_loc.Loc.to_string loc in
                    Printf.eprintf "s1lc: %s: %s\n" where msg;
                    exit code
                | None -> raise e))
    | exception Reader.Parse_error e ->
        Printf.eprintf "s1lc: %s:%d:%d: %s\n" file e.Reader.line e.Reader.col
          e.Reader.message;
        exit 1
  in
  List.iteri (fun i src -> process_string ~file:(Printf.sprintf "<eval:%d>" (i + 1)) src) evals;
  List.iter
    (fun file ->
      let ic = open_in file in
      let n = in_channel_length ic in
      let src = really_input_string ic n in
      close_in ic;
      process_string ~file src)
    files;
  (* the seeded campaigns, one driver for all four: differential
     fuzzing across the optimization lattice, chaos fault injection,
     the compile service's cold/warm cache fuzz and its supervised chaos
     batch.  Each prints its summary with every finding shrunk and a
     repro line; --fuzz-report writes each report as JSON *)
  let reports =
    List.filter_map
      (fun (count, campaign) ->
        Option.map
          (fun count ->
            let report = campaign count in
            print_string (S1_fuzz.Fuzz.summary report);
            report)
          count)
      [
        (fuzz, fun count -> S1_fuzz.Fuzz.lattice ~seed ~count ());
        (chaos, fun count -> S1_fuzz.Chaos.run ~seed ~count ());
        (serve_fuzz, fun count -> S1_serve.Serve.fuzz ~seed ~count ?cache_dir ());
        ( serve_chaos,
          fun count ->
            let dir =
              match cache_dir with
              | Some d -> d
              | None -> Filename.concat (Filename.get_temp_dir_name ()) "s1lc-serve-chaos"
            in
            let report, journal = S1_serve.Supervise.chaos_smoke ~seed ~count ~jobs ~dir () in
            Option.iter (fun file -> write_file file journal) incidents;
            report );
      ]
  in
  (match fuzz_report with
  | Some file when reports <> [] ->
      write_file file
        (String.concat ""
           (List.map (fun r -> Json.to_string (S1_fuzz.Fuzz.json r) ^ "\n") reports))
  | _ -> ());
  let out = Rt.output c.C.rt in
  if out <> "" then print_string out;
  if repl then begin
    print_endline ";; S-1 Lisp (simulated) — :q to quit";
    (try
       while true do
         print_string "* ";
         flush stdout;
         let line = input_line stdin in
         if line = ":q" then raise Exit
         else if String.trim line <> "" then begin
           (try List.iter process_form (Reader.parse_string line) with
           | Reader.Parse_error e ->
               Format.printf ";; <repl>:%d:%d: %s@." e.Reader.line e.Reader.col
                 e.Reader.message
           | e -> (
               match failure e with
               | Some (loc, msg, _) ->
                   let where =
                     Option.fold ~none:"" ~some:(fun l -> S1_loc.Loc.to_string l ^ ": ") loc
                   in
                   Printf.printf ";; error: %s%s\n" where msg
               | None -> raise e));
           let out = Rt.output c.C.rt in
           if out <> "" then print_string out;
           Rt.clear_output c.C.rt
         end
       done
     with Exit | End_of_file -> ())
  end;
  (* machine-level counters join the metrics schema (s1lisp.metrics/7)
     after execution, so --timings/--metrics/--diff-runs see them *)
  let () =
    let s = c.C.rt.Rt.cpu.Cpu.stats in
    Obs.incr ~n:s.Cpu.calls "machine.calls";
    Obs.incr ~n:s.Cpu.tcalls "machine.tcalls";
    Obs.incr ~n:s.Cpu.stack_high "machine.stack_high";
    Obs.incr ~n:s.Cpu.bind_high "machine.bind_high"
  in
  if stats then
    Format.printf "%a@." S1_machine.Cpu.pp_stats c.C.rt.Rt.cpu.S1_machine.Cpu.stats;
  if timings then begin
    Format.printf "%t@." (fun fmt -> Obs.pp_timings fmt ());
    print_endline "";
    Format.printf "%t@." (fun fmt -> Obs.pp_counters fmt ())
  end;
  if annotate then begin
    let source f = Hashtbl.find_opt sources f in
    List.iter
      (fun { C.l_unit = u; l_org = org; _ } ->
        print_string
          (S1_machine.Annotate.render c.C.rt.Rt.cpu ~source ~name:u.S1_codegen.Gen.c_name ~org
             u.c_prog);
        print_newline ())
      (List.rev (Option.value c.C.log ~default:[]))
  end;
  if profile then Format.printf "%a@." Cpu.pp_profile c.C.rt.Rt.cpu;
  (match trace with
  | None -> ()
  | Some file ->
      let oc = open_out file in
      output_string oc (S1_transform.Transcript.to_jsonl c.C.journal);
      close_out oc);
  (match remark_kinds with
  | None -> ()
  | Some kinds ->
      let source f = Hashtbl.find_opt sources f in
      let rs =
        List.filter (fun r -> List.mem r.Remark.r_kind kinds) (Remark.remarks ())
      in
      print_string (Remark.render ~kinds ~source rs);
      let p, m, a = Remark.totals rs in
      Printf.printf ";;; remarks: %d passed, %d missed, %d analysis\n" p m a);
  (match remarks_json with
  | None -> ()
  | Some file ->
      let oc = open_out file in
      output_string oc (Remark.to_jsonl (Remark.remarks ()));
      close_out oc);
  (match metrics with
  | None -> ()
  | Some file ->
      let doc = metrics_json ~cpu:c.C.rt.Rt.cpu ~file_deltas:!file_deltas () in
      let oc = open_out file in
      output_string oc (Json.to_string doc);
      output_char oc '\n';
      close_out oc);
  (match folded with
  | None -> ()
  | Some file ->
      let oc = open_out file in
      output_string oc (Cpu.render_folded c.C.rt.Rt.cpu);
      close_out oc);
  (match trace_events with
  | None -> ()
  | Some file ->
      let oc = open_out file in
      output_string oc (S1_obs.Timeline.to_string ());
      close_out oc;
      S1_obs.Timeline.set_enabled false);
  if List.exists (fun r -> r.S1_fuzz.Fuzz.r_findings <> []) reports then exit 1

open Cmdliner

let phases = Arg.(value & flag & info [ "phases" ] ~doc:"Print the compiler phase structure.")
let listing = Arg.(value & flag & info [ "listing"; "S" ] ~doc:"Print generated assembly.")

let transcript =
  Arg.(value & flag & info [ "transcript" ] ~doc:"Print the optimizer transcript.")

let tns =
  Arg.(value & flag & info [ "tns" ] ~doc:"Print the TNBIND register-allocation report.")

let interpret =
  Arg.(value & flag & info [ "interpret"; "i" ] ~doc:"Use the interpreter, not the compiler.")

let repl = Arg.(value & flag & info [ "repl" ] ~doc:"Interactive read-eval-print loop.")
let stats = Arg.(value & flag & info [ "stats" ] ~doc:"Print simulator statistics at exit.")

let timings =
  Arg.(
    value & flag
    & info [ "timings" ] ~doc:"Print per-phase wall timings and compiler counters at exit.")

let profile =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:"Profile execution: attribute simulator cycles to Lisp functions by PC.")

let metrics =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:"Write phase timings, counters, CPU statistics (and the profile, with \
              $(b,--profile)) to $(docv) as JSON.")

let trace =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Write the structured rewrite journal (schema s1lisp.trace/1, one JSON object \
              per line) to $(docv).")

let annotate =
  Arg.(
    value & flag
    & info [ "annotate" ]
        ~doc:"Print an annotated listing after execution: source lines interleaved with \
              the instructions compiled from them and the cycles the simulator measured \
              at each PC (implies profiling).")

let folded =
  Arg.(
    value
    & opt (some string) None
    & info [ "folded" ] ~docv:"FILE"
        ~doc:"Write the call-path cycle profile as flamegraph folded stacks to $(docv): \
              one \"f;g;h cycles\" line per distinct call path, exclusive cycles, \
              deterministic order.  Feed to flamegraph.pl or speedscope.  Tail calls \
              replace the leaf frame, so iterative loops stay one frame deep.")

let trace_events =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-events" ] ~docv:"FILE"
        ~doc:"Write the runtime event timeline (GC collections, traps, special-variable \
              binds/unbinds, CATCH/THROW unwinds, compiler phase spans) to $(docv) as \
              Chrome trace_event JSON (schema s1lisp.events/1), timestamped on the \
              deterministic simulator cycle clock.  Load in chrome://tracing or \
              Perfetto.  Implies the shadow call stack, so events carry call paths.")

let remarks =
  Arg.(
    value
    & opt ~vopt:(Some "passed,missed,analysis") (some string) None
    & info [ "remarks" ] ~docv:"KINDS"
        ~doc:"Print optimization remarks interleaved with the source after compilation: \
              every decision an optimizer made or declined, with the blocking reason.  \
              $(docv) is a comma-separated subset of $(b,passed), $(b,missed), \
              $(b,analysis); omitting it selects all three.")

let remarks_json =
  Arg.(
    value
    & opt (some string) None
    & info [ "remarks-json" ] ~docv:"FILE"
        ~doc:"Write the full remark stream (schema s1lisp.remarks/1, one JSON object per \
              line, decision order) to $(docv); deterministic for a fixed input and \
              configuration, consumable by $(b,--diff-runs).")

let diff_runs =
  Arg.(
    value & flag
    & info [ "diff-runs" ]
        ~doc:"Compare two exported runs instead of compiling: the two positional FILE \
              arguments are metrics JSON ($(b,--metrics)), remark journals \
              ($(b,--remarks-json)), bench exports, event timelines \
              ($(b,--trace-events)), or folded stacks ($(b,--folded)), auto-detected by \
              schema.  Prints appeared/vanished remarks, counter deltas, per-line and \
              per-path cycle deltas; exits 1 when a regression exceeds \
              $(b,--diff-threshold), 0 otherwise.")

let diff_threshold =
  Arg.(
    value & opt float 2.0
    & info [ "diff-threshold" ] ~docv:"PCT"
        ~doc:"Regression threshold for $(b,--diff-runs): cycle counts may grow by up to \
              $(docv) percent before the diff exits non-zero.")

(* The optimization lattice, flag by flag, generated from the one table
   in Lattice: every rule family and every Gen.options ablation is
   individually addressable, so any configuration the fuzzer reports is
   reproducible by hand.  The term collects the flags given and parses
   them with Lattice.of_flags, the parser the fuzz oracle's points and
   the degradation rungs go through too. *)
let lattice_term =
  Term.(
    const (fun flags -> Lattice.of_flags flags)
    $ List.fold_left
        (fun acc (s : Lattice.switch) ->
          const (fun flags on -> if on then ("--" ^ List.hd s.names) :: flags else flags)
          $ acc
          $ Arg.(value & flag & info s.names ~doc:s.doc))
        (const []) Lattice.switches)

let strict =
  Arg.(
    value & flag
    & info [ "strict" ]
        ~doc:"Treat robustness incidents (pass rollbacks, verifier failures, codegen \
              fallbacks) as hard errors instead of degrading gracefully; batch mode \
              exits with status 2 on one.")

let chaos =
  Arg.(
    value
    & opt (some int) None
    & info [ "chaos" ] ~docv:"N"
        ~doc:"Chaos fault injection: run $(docv) seeded programs, injecting one fault \
              each (a pass exception, IR corruption, a starved heap, or starved fuel) \
              and assert the rollback/trap contract plus interpreter agreement.  Uses \
              $(b,--seed); exits non-zero on any contract violation.")

let fuzz =
  Arg.(
    value
    & opt (some int) None
    & info [ "fuzz" ] ~docv:"N"
        ~doc:"Differential fuzzing: generate $(docv) seeded programs and compare \
              interpreter vs compiled execution across the optimization lattice, \
              shrinking any divergence.  Exits non-zero if one is found.")

let seed =
  Arg.(
    value & opt int 42
    & info [ "seed" ] ~docv:"S"
        ~doc:"Master seed for $(b,--fuzz), $(b,--chaos), $(b,--serve-fuzz) and \
              $(b,--serve-chaos); program $(i,i) of a run uses seed S+i, so \
              $(b,--fuzz 1 --seed S+i) (or $(b,--chaos 1), $(b,--serve-fuzz 1)) \
              reproduces it exactly.  A $(b,--serve-chaos) finding reproduces with \
              the whole batch.")

let fuzz_report =
  Arg.(
    value
    & opt (some string) None
    & info [ "fuzz-report" ] ~docv:"FILE"
        ~doc:"Write the campaign's report as JSON (schema s1lisp.fuzz/2) to $(docv): \
              its mode, seed, count and tally, and every finding with its kind, \
              detail, program, shrunk program and repro line.  Works for \
              $(b,--fuzz), $(b,--chaos), $(b,--serve-fuzz) and $(b,--serve-chaos); \
              several campaigns in one run write one document each, in that order.  \
              Deterministic for a fixed seed and campaign.")

let serve_batch =
  Arg.(
    value & flag
    & info [ "serve-batch" ]
        ~doc:"Compile the positional FILE arguments through the compile service: a \
              content-addressed image cache (key = source bytes + optimization-lattice \
              flags + image schema) in front of the compiler, $(b,-j) domains wide.  \
              Program output and values print to stdout in input order regardless of \
              scheduling; [hit]/[miss] markers go to stderr.  Every unit runs under the \
              supervisor: worker-domain crashes are isolated and the batch always \
              completes.  Exit status: 0 when every unit compiled clean, 2 when any \
              unit failed for good, 3 when all units succeeded but at least one only \
              at a degraded rung (see $(b,--degrade)).")

let jobs =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:"Worker domains for $(b,--serve-batch).  Output is byte-identical for \
              any $(docv).")

let cache_dir =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:"On-disk image store for $(b,--serve-batch)/$(b,--serve-fuzz) (created if \
              missing).  Entries are verified before being served: a genuinely stale \
              blob (older schema, foreign key) counts as a miss and is deleted; a \
              corrupt or torn blob counts as a miss and is quarantined under \
              $(docv)/quarantine/ for post-mortem, with a bounded re-verify that \
              readmits blobs whose corruption was transient.  Keys that keep failing \
              trip a per-key circuit breaker and stop touching the disk.")

let cache_capacity =
  Arg.(
    value & opt int S1_serve.Cache.default_capacity
    & info [ "cache-capacity" ] ~docv:"N"
        ~doc:"In-memory LRU capacity of the image cache (disk entries are unbounded).")

let serve_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "serve-out" ] ~docv:"DIR"
        ~doc:"With $(b,--serve-batch): write each input's serialized image (schema \
              s1lisp.image/4, one JSON document per file) to $(docv)/<basename>.image.  \
              Images are byte-deterministic, so two runs over the same sources and flags \
              produce byte-identical trees — $(b,cmp) them in CI.")

let serve_fuzz =
  Arg.(
    value
    & opt (some int) None
    & info [ "serve-fuzz" ] ~docv:"N"
        ~doc:"Fuzz the compile service: $(docv) seeded programs (uses $(b,--seed)), each \
              compiled cold then warm from its own cached image; both runs must agree \
              with the interpreter oracle and with each other.  Exits non-zero on any \
              disagreement or failed warm hit.")

let deadline_cycles =
  Arg.(
    value
    & opt (some int) None
    & info [ "deadline-cycles" ] ~docv:"N"
        ~doc:"Per-unit cycle budget for $(b,--serve-batch): a unit whose simulated \
              execution (including macroexpansion, DEFVAR initialization, and toplevel \
              effects) exceeds $(docv) cycles is stopped with a deadline trap, logged \
              to the incident journal, and retried per the supervision policy.")

let max_retries =
  Arg.(
    value & opt int S1_serve.Supervise.default_policy.S1_serve.Supervise.p_max_retries
    & info [ "max-retries" ] ~docv:"N"
        ~doc:"With $(b,--serve-batch): maximum retries per unit after a crash or \
              deadline expiry.  Each retry descends one rung of the degradation \
              ladder, so without $(b,--degrade) a crashed unit fails fast.")

let degrade =
  Arg.(
    value & flag
    & info [ "degrade" ]
        ~doc:"With $(b,--serve-batch): on a crash or deadline expiry, retry the unit \
              down the degradation ladder — full optimization, then \
              $(b,--no-tnbind --no-pdl), then boxed unoptimized code, then an \
              interpreter-only stub.  A unit that only succeeds degraded is recorded \
              as such in its image envelope, the remark journal, and the incident \
              journal, and the batch exits 3 instead of 0.")

let incidents =
  Arg.(
    value
    & opt (some string) None
    & info [ "incidents" ] ~docv:"FILE"
        ~doc:"With $(b,--serve-batch) or $(b,--serve-chaos): write the incident \
              journal (schema s1lisp.incidents/1, one JSON object per line) to \
              $(docv).  Every trap, deadline expiry, quarantined blob, breaker trip, \
              and worker crash appears with provenance, retry count, final \
              disposition, and a replayable repro (source, lattice flags, seed).  \
              Byte-deterministic for a fixed input set and seed.")

let serve_chaos =
  Arg.(
    value
    & opt (some int) None
    & info [ "serve-chaos" ] ~docv:"N"
        ~doc:"Chaos-batch smoke test of the supervised compile service: $(docv) seeded \
              programs (uses $(b,--seed)) are first batched fault-free to warm the \
              cache, then re-batched with seeded worker kills, one-cycle deadlines, \
              and blob corruption injected.  Asserts the batch completes, unfaulted \
              units are byte-identical to the fault-free run, every faulted unit logs \
              exactly one terminal incident, and two identical runs produce \
              byte-identical journals and counter deltas.  Exits non-zero on any \
              violation.")

let evals =
  Arg.(value & opt_all string [] & info [ "eval"; "e" ] ~docv:"FORM" ~doc:"Evaluate $(docv).")

let files = Arg.(value & pos_all file [] & info [] ~docv:"FILE" ~doc:"Lisp source files.")

let cmd =
  let doc = "compile Lisp for a simulated S-1 (Brooks, Gabriel & Steele, 1982)" in
  Cmd.v
    (Cmd.info "s1lc" ~doc)
    Term.(
      const run $ phases $ listing $ transcript $ tns $ interpret $ repl $ stats $ timings
      $ profile $ metrics $ trace $ annotate $ folded $ trace_events $ remarks
      $ remarks_json $ diff_runs $ diff_threshold $ lattice_term $ strict $ fuzz
      $ chaos $ seed $ fuzz_report $ serve_batch $ jobs $ cache_dir $ cache_capacity
      $ serve_out $ serve_fuzz $ deadline_cycles $ max_retries $ degrade $ incidents
      $ serve_chaos $ evals $ files)

let () = exit (Cmd.eval cmd)
