(** What a workload hands s1bench: a set-up that builds its inputs
    and references, and a unit function the closed loop calls. *)

type outcome = {
  label : string;  (** seed, kernel, file, lattice point: printed on a mismatch *)
  result : string;  (** the unit's printed result, hashed into the run's digest *)
  failure : string option;  (** why the unit trapped, crashed or disagreed *)
  cycles : int;  (** simulated cycles the unit ran *)
  code_words : int;  (** instructions of generated code the unit loaded after boot *)
  instructions : int;  (** simulated instructions the unit executed *)
  worlds : int;  (** worlds booted *)
}

type instance = {
  units : int;  (** units in one pass over the inputs *)
  round : int;  (** units between releases of the round's worlds; divides [units] *)
  run : int -> outcome;  (** unit [i] of a pass, [0 <= i < units] *)
  end_round : unit -> unit;  (** release the worlds the round booted *)
  setup_code_words : int;
      (** code the timed units run but set-up loaded (precompiled kernels) *)
  notes : string list;  (** what set-up chose or left out, for the report *)
  discard : unit -> unit;  (** free an instance that will not be measured *)
}

type t = { name : string; setup : seed:int -> instance }

(** Where the benchmark writes (cache directories, the span file),
    relative to the checkout it runs in. *)
let scratch_root = ".bench_out"

(** Seeded Fisher-Yates shuffle. *)
let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

(** Forget worlds the benchmark booted.  The interpreter's instance
    table keeps every world alive until [Interp.release]; a round ends by
    releasing its worlds so that a run's memory is bounded by one round,
    whatever its length. *)
let release (cs : S1_core.Compiler.t list) =
  List.iter (fun c -> S1_interp.Interp.release c.S1_core.Compiler.it) cs
