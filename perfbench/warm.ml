(** serve_warm: the corpus served from a warm on-disk image cache.

    Set-up creates a fresh cache directory, compiles every corpus file
    cold through [Serve.compile_file] at each of the 8 [Oracle.lattice]
    points and stores its image (the write path), and computes
    interpreter references.  A unit serves one file at one lattice point
    warm, as a new [s1lc --serve-batch --cache-dir] process would: disk
    read and verification ([Cache.find]), decode ([Image.load]), then
    replay and run in a fresh world ([Serve.execute]).  No optimization
    pass runs in a unit. *)

module C = S1_core.Compiler
module Rt = S1_runtime.Rt
module Cpu = S1_machine.Cpu
module Oracle = S1_fuzz.Oracle
module Serve = S1_serve.Serve
module Cache = S1_serve.Cache
module Image = S1_serve.Image

let corpus_dir = "test/corpus"
let round = 40

(* The lattice points, as the compile service's configurations. *)
let points =
  List.map
    (fun (o : Oracle.config) ->
      ( o.Oracle.cfg_name,
        {
          Serve.sv_rules = o.Oracle.cfg_rules;
          sv_options = o.Oracle.cfg_options;
          sv_cse = o.Oracle.cfg_cse;
        } ))
    Oracle.lattice

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* Cache directories made by this process, removed at exit. *)
let made_dirs = ref []
let cleanup () = List.iter rm_rf !made_dirs

let fresh_dir () =
  Cache.ensure_dir Workload.scratch_root;
  let dir =
    Filename.concat Workload.scratch_root
      (Printf.sprintf "cache-%08d-%d" (Unix.getpid ()) (List.length !made_dirs))
  in
  rm_rf dir;
  made_dirs := dir :: !made_dirs;
  dir

type entry = {
  file : string;
  point : string;  (** lattice point name *)
  cfg : Serve.cfg;
  key : string;
  cold_image : string;
  cold : Serve.exec;
  reference : Oracle.outcome;
  uses_macro : bool;
}

let contains s pat =
  let n = String.length s and m = String.length pat in
  let rec go i = i + m <= n && (String.sub s i m = pat || go (i + 1)) in
  go 0

let setup ~seed : Workload.instance =
  if not (Sys.file_exists corpus_dir && Sys.is_directory corpus_dir) then
    failwith ("serve_warm: corpus directory not found: " ^ corpus_dir);
  let files =
    Sys.readdir corpus_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".lisp")
    |> List.sort compare
    |> List.map (Filename.concat corpus_dir)
  in
  let dir = fresh_dir () in
  let cache = Cache.create ~dir () in
  let entries =
    List.concat_map
      (fun file ->
        let src = Cache.read_file file in
        let reference =
          Trace.with_span "interp.ref" (fun () ->
              Oracle.run_interp (S1_sexp.Reader.parse_string src))
        in
        List.map
          (fun (point, cfg) ->
            let what = Printf.sprintf "%s at %s" file point in
            let booted = ref [] in
            let r = Serve.compile_file ~prepare:(fun c -> booted := c :: !booted) cfg ~file src in
            Workload.release !booted;
            let cold =
              match r.Serve.r_exec with
              | Some e when r.Serve.r_image <> "" -> e
              | _ ->
                  failwith
                    (Printf.sprintf "serve_warm set-up: cold compile of %s failed: %s" what
                       (Oracle.outcome_string r.Serve.r_outcome))
            in
            (* the codec must round-trip the image it just wrote *)
            (match Image.load r.Serve.r_image with
            | Ok img ->
                let again = Trace.with_span "serve.encode" (fun () -> Image.save img) in
                if again <> r.Serve.r_image then
                  failwith ("serve_warm set-up: image of " ^ what ^ " does not re-encode identically")
            | Error e ->
                failwith
                  (Printf.sprintf "serve_warm set-up: image of %s does not decode: %s" what
                     (Image.load_error_to_string e)));
            Trace.with_span "serve.store" (fun () -> Cache.store cache r.Serve.r_key r.Serve.r_image);
            {
              file;
              point;
              cfg;
              key = r.Serve.r_key;
              cold_image = r.Serve.r_image;
              cold;
              reference;
              uses_macro = contains src "DEFMACRO";
            })
          points)
      files
  in
  let order = Array.of_list entries in
  Workload.shuffle (Random.State.make [| seed |]) order;
  (* each round reads through a fresh cache instance: nothing is served
     from a previous round's memory tier *)
  let cache = ref (Cache.create ~dir ()) in
  let worlds = ref [] in
  let run i =
    let e = order.(i) in
    let label = Printf.sprintf "seed %d file %s lattice %s" seed e.file e.point in
    let fail msg = Some msg in
    let base =
      { Workload.label; result = ""; failure = None; cycles = 0; code_words = 0;
        instructions = 0; worlds = 0 }
    in
    match Trace.with_span "serve.find" (fun () -> Cache.find ~file:e.file !cache e.key) with
    | None -> { base with failure = fail "warm lookup missed the cache" }
    | Some bytes -> (
        match Trace.with_span "serve.decode" (fun () -> Image.load bytes) with
        | Error err ->
            { base with failure = fail ("image does not decode: " ^ Image.load_error_to_string err) }
        | Ok img ->
            let world = ref None in
            let code0 = ref 0 and ins0 = ref 0 in
            let outcome, exec, _ =
              Trace.with_span "serve.execute" (fun () ->
                  (* boot ends where Serve hands the fresh world to [prepare] *)
                  let booted = Trace.start "core.boot" in
                  let r =
                    Serve.structured (fun () ->
                        Serve.execute e.cfg
                          ~prepare:(fun c ->
                            booted ();
                            world := Some c;
                            code0 := c.C.rt.Rt.cpu.Cpu.code_len;
                            ins0 := c.C.rt.Rt.cpu.Cpu.stats.Cpu.instructions)
                          img)
                  in
                  booted ();
                  r)
            in
            let code_words, instructions, worlds_booted =
              match !world with
              | Some c ->
                  worlds := c :: !worlds;
                  let cpu = c.C.rt.Rt.cpu in
                  (cpu.Cpu.code_len - !code0, cpu.Cpu.stats.Cpu.instructions - !ins0, 1)
              | None -> (0, 0, 0)
            in
            let failure =
              if bytes <> e.cold_image then fail "warm image bytes differ from cold image bytes"
              else if not (Oracle.agree e.reference outcome) then
                fail
                  (Printf.sprintf "interp=%s warm=%s" (Oracle.outcome_string e.reference)
                     (Oracle.outcome_string outcome))
              else
                match exec with
                | None -> fail ("warm run failed: " ^ Oracle.outcome_string outcome)
                | Some x ->
                    if x.Serve.e_value <> e.cold.Serve.e_value || x.Serve.e_output <> e.cold.Serve.e_output
                    then fail "warm result differs from cold result"
                    else if
                      if e.uses_macro then x.Serve.e_cycles > e.cold.Serve.e_cycles
                      else x.Serve.e_cycles <> e.cold.Serve.e_cycles
                    then
                      fail
                        (Printf.sprintf "warm cycles %d, cold cycles %d" x.Serve.e_cycles
                           e.cold.Serve.e_cycles)
                    else None
            in
            {
              base with
              result = Oracle.outcome_string outcome;
              failure;
              cycles = (match exec with Some x -> x.Serve.e_cycles | None -> 0);
              code_words;
              instructions;
              worlds = worlds_booted;
            })
  in
  let end_round () =
    Workload.release !worlds;
    worlds := [];
    cache := Cache.create ~dir ()
  in
  {
    Workload.units = Array.length order;
    round;
    run;
    end_round;
    setup_code_words = 0;
    notes = [];
    discard =
      (fun () ->
        end_round ();
        rm_rf dir);
  }

let workload = { Workload.name = "serve_warm"; setup }
