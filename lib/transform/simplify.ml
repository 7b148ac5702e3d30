(** The source-level optimizer driver (paper §4.2).

    "The next two phases (source-program analysis and source-level
    optimization) are actually executed in a complicated co-routining
    manner for efficiency.  Conceptually the analysis is performed first
    and the results made available to the optimizer.  However,
    optimization can alter the program, requiring re-analysis."

    We run to a fixpoint of sweeps.  A sweep visits nodes bottom-up, so
    inner redexes simplify first, and tries at each node the rules that
    match its kind, in {!Rules.all_rules} order.  A firing rewrites the
    node in place; the rules after it are then tried against the node's
    new kind.  Any firing triggers re-analysis before the next sweep.

    The first sweep visits the whole tree.  Each later one visits only
    the region {!S1_analysis.Analyze.update} left marked: the nodes
    above a rewrite, a re-derived decoration, or a use of a variable
    whose facts changed.  A node outside it would see exactly what it
    saw on its last visit, when no rule fired there, so every rule fires
    at the same node, in the same order, as if every node were visited.
    A sweep bound guards against rule cycles (the paper avoids its
    introduction/elimination thrashing the same way, by structural
    separation). *)

open S1_ir
open Node
module Analyze = S1_analysis.Analyze

let max_sweeps = 60

let rules = Array.of_list (List.map (fun (_, _, rule) -> rule) Rules.all_rules)

(* [(next s).(i)]: the first rule at or after index [i] whose shape is
   [s]; [Array.length rules] when none is. *)
let next =
  let count = Array.length rules in
  let shapes = Array.of_list (List.map (fun (_, shape, _) -> shape) Rules.all_rules) in
  let table s =
    let t = Array.make (count + 1) count in
    for i = count - 1 downto 0 do
      t.(i) <- (if shapes.(i) = s then i else t.(i + 1))
    done;
    t
  in
  let call = table Rules.On_call and if_ = table Rules.On_if in
  let progn = table Rules.On_progn and caseq = table Rules.On_caseq in
  function
  | Rules.On_call -> call | On_if -> if_ | On_progn -> progn | On_caseq -> caseq

(* Try the rules at or after index [i] that match [n]'s current kind;
   true when one fired. *)
let rec dispatch ctx n i =
  match Rules.shape_of n.kind with
  | None -> false
  | Some s ->
      let j = (next s).(i) in
      if j = Array.length rules then false
      else
        let fired = rules.(j) ctx n in
        dispatch ctx n (j + 1) || fired

let sweep (ctx : Rules.ctx) (root : node) : bool =
  let changed = ref false in
  let rec visit n =
    if n.n_dirty then begin
      n.n_dirty <- false;
      iter_children visit n;
      (* provenance: nodes a rule creates while rewriting [n] inherit [n]'s
         source position *)
      Node.set_origin n.n_loc;
      if dispatch ctx n 0 then changed := true
    end
  in
  visit root;
  Node.set_origin None;
  !changed

let run ?(config = Rules.default_config) ?(transcript = Transcript.create ~enabled:false ())
    (root : node) : Transcript.t =
  S1_obs.Obs.with_span "simplify" (fun () ->
      let ctx = { Rules.cfg = config; ts = transcript } in
      let sweeps = ref 0 in
      let fired = ref true in
      let restrategized = ref [] in
      while !fired && !sweeps < max_sweeps do
        incr sweeps;
        S1_obs.Obs.incr "simplify.sweeps";
        restrategized :=
          Analyze.update ~all:(!sweeps = 1) ~restrategized:!restrategized root;
        fired := sweep ctx root
      done;
      (* leave the tree fully analyzed for the machine-dependent phases *)
      if !fired then ignore (Analyze.update ~restrategized:!restrategized root)
      else Analyze.reprice ~restrategized:!restrategized root;
      transcript)
