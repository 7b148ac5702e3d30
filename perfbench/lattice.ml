(** fuzz_lattice: generated programs compiled and run at the points of
    the optimization lattice, as [s1lc --fuzz] does.

    Set-up draws programs from the seed with [Genprog.generate], computes
    each one's reference with [Oracle.run_interp], and compiles and runs
    it at every lattice point once.  A unit then compiles and runs one
    program in a fresh world at one lattice point and checks it with
    [Oracle.agree].

    Two rules keep the inputs comparable from seed to seed, because the
    generator's output is heavy-tailed (at the default point its p99
    program runs 30 times the cycles of its median; NOTES.md,
    admission):
    - Programs are admitted in {!programs} slots, steering the running
      totals of default-point cycles and code words towards
      {!mean_cycles} and {!mean_code} per program, the generator's
      measured medians: a candidate is taken when it lies within a
      factor of three (cycles) or two (code) of what the remaining slots
      need on average.
    - A program whose reference is not a value, or that disagrees with it
      at any lattice point in set-up, is left out and named in the run's
      notes.  Timed units therefore measure compilation, not known
      divergences; [s1lc --fuzz] is the tool that hunts those. *)

module C = S1_core.Compiler
module Rt = S1_runtime.Rt
module Cpu = S1_machine.Cpu
module Oracle = S1_fuzz.Oracle
module Genprog = S1_fuzz.Genprog

let programs = 64
let round = 64
let mean_cycles = 190
let mean_code = 187
let max_candidates = 100_000

(* The same compile-and-run as [Oracle.run_compiled], with the world
   kept so the unit can read its machine statistics and release it. *)
let run_compiled c forms : Oracle.outcome =
  match C.eval_print c forms with
  | s -> Oracle.Value s
  | exception Rt.Lisp_error m -> Oracle.Error m
  | exception Rt.Thrown _ -> Oracle.Error "uncaught throw"
  | exception S1_frontend.Convert.Convert_error { message; _ } -> Oracle.Error ("convert: " ^ message)
  | exception S1_frontend.Macroexp.Expansion_error { message; _ } ->
      Oracle.Error ("macro: " ^ message)
  | exception S1_codegen.Gen.Codegen_error m -> Oracle.Crash ("codegen: " ^ m)
  | exception Cpu.Trap { kind; pc; message; _ } ->
      Oracle.Crash (Printf.sprintf "%s trap at pc %d: %s" (Cpu.trap_kind_name kind) pc message)
  | exception Stack_overflow -> Oracle.Crash "compiler stack overflow"
  | exception e -> Oracle.Crash (Printexc.to_string e)

type run = { outcome : Oracle.outcome; cycles : int; code_words : int; instructions : int }

(* One program at one lattice point in a fresh world, which [keep]
   receives (for release). *)
let compile_and_run ~keep (cfg : Oracle.config) forms =
  let c =
    Trace.with_span "core.boot" (fun () ->
        C.create ~options:cfg.Oracle.cfg_options ~rules:cfg.Oracle.cfg_rules
          ~cse:cfg.Oracle.cfg_cse ())
  in
  keep c;
  c.C.rt.Rt.fuel <- Some Oracle.fuzz_fuel;
  let cpu = c.C.rt.Rt.cpu in
  let code0 = cpu.Cpu.code_len in
  let cyc0 = cpu.Cpu.stats.Cpu.cycles and ins0 = cpu.Cpu.stats.Cpu.instructions in
  let outcome = Trace.with_span "core.exec" (fun () -> run_compiled c forms) in
  {
    outcome;
    cycles = cpu.Cpu.stats.Cpu.cycles - cyc0;
    code_words = cpu.Cpu.code_len - code0;
    instructions = cpu.Cpu.stats.Cpu.instructions - ins0;
  }

let once cfg forms =
  let world = ref None in
  let r = compile_and_run ~keep:(fun c -> world := Some c) cfg forms in
  Option.iter (fun c -> Workload.release [ c ]) !world;
  r

let default_cfg = List.hd Oracle.lattice
let within ~factor want x = float_of_int x >= want /. factor && float_of_int x <= want *. factor

let setup ~seed : Workload.instance =
  let rng = Random.State.make [| seed |] in
  let notes = ref [] in
  let candidates = ref 0 in
  let rec admit slot (cyc_acc, code_acc) acc =
    if slot = programs then Array.of_list (List.rev acc)
    else begin
      incr candidates;
      if !candidates > max_candidates then
        failwith "fuzz_lattice set-up: too few generated programs fit the size targets";
      let left = float_of_int (programs - slot) in
      let clamp mean v = Float.min (4.0 *. mean) (Float.max (mean /. 4.0) v) in
      let want_cyc = clamp (float mean_cycles) (float_of_int ((programs * mean_cycles) - cyc_acc) /. left) in
      let want_code = clamp (float mean_code) (float_of_int ((programs * mean_code) - code_acc) /. left) in
      let pseed = Random.State.bits rng in
      let prog = Genprog.generate ~seed:pseed in
      let forms = prog.Genprog.pr_forms in
      let d = once default_cfg forms in
      let fits =
        (match d.outcome with Oracle.Value _ -> true | _ -> false)
        && within ~factor:3.0 want_cyc d.cycles
        && within ~factor:2.0 want_code d.code_words
      in
      if not fits then admit slot (cyc_acc, code_acc) acc
      else
        match Trace.with_span "interp.ref" (fun () -> Oracle.run_interp forms) with
        | (Oracle.Error _ | Oracle.Crash _) -> admit slot (cyc_acc, code_acc) acc
        | Oracle.Value _ as reference ->
            let diverging =
              List.filter
                (fun cfg ->
                  let r = if cfg == default_cfg then d else once cfg forms in
                  not (Oracle.agree reference r.outcome))
                Oracle.lattice
            in
            if diverging <> [] then begin
              notes :=
                Printf.sprintf "left out genprog seed %d: disagrees with the interpreter at %s"
                  pseed
                  (String.concat ", " (List.map (fun c -> c.Oracle.cfg_name) diverging))
                :: !notes;
              admit slot (cyc_acc, code_acc) acc
            end
            else
              admit (slot + 1)
                (cyc_acc + d.cycles, code_acc + d.code_words)
                ((prog, reference) :: acc)
    end
  in
  let progs = admit 0 (0, 0) [] in
  let configs = Array.of_list Oracle.lattice in
  let pairs =
    Array.init (programs * Array.length configs) (fun i ->
        (i / Array.length configs, configs.(i mod Array.length configs)))
  in
  Workload.shuffle rng pairs;
  let worlds = ref [] in
  let run i =
    let p, cfg = pairs.(i) in
    let prog, reference = progs.(p) in
    let r = compile_and_run ~keep:(fun c -> worlds := c :: !worlds) cfg prog.Genprog.pr_forms in
    {
      Workload.label =
        Printf.sprintf "seed %d program %d (genprog seed %d) lattice %s" seed p
          prog.Genprog.pr_seed cfg.Oracle.cfg_name;
      result = Oracle.outcome_string r.outcome;
      failure =
        (if Oracle.agree reference r.outcome then None
         else
           Some
             (Printf.sprintf "interp=%s compiled=%s" (Oracle.outcome_string reference)
                (Oracle.outcome_string r.outcome)));
      cycles = r.cycles;
      code_words = r.code_words;
      instructions = r.instructions;
      worlds = 1;
    }
  in
  let end_round () =
    Workload.release !worlds;
    worlds := []
  in
  {
    Workload.units = Array.length pairs;
    round;
    run;
    end_round;
    setup_code_words = 0;
    notes = Printf.sprintf "%d candidates for %d programs" !candidates programs :: List.rev !notes;
    discard = end_round;
  }

let workload = { Workload.name = "fuzz_lattice"; setup }
