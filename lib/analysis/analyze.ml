(** The analysis pipeline: the machine-independent analyses of the paper's
    Table 1, run in its order, and re-run incrementally for the
    optimizer.

    "The next two phases (source-program analysis and source-level
    optimization) are actually executed in a complicated co-routining
    manner for efficiency" (§4.2).  The optimizer marks what it rewrites
    ([n_dirty]); {!update} then re-derives the bottom-up decorations
    (environment, side effects, complexity) only on the spine above the
    marks, keeps every other node's, and leaves the spine marked so the
    optimizer's next sweep revisits exactly that region.  Back-pointers,
    tail positions and binding annotation are recomputed over the whole
    tree: they are cheap linear walks, and binding annotation is not
    local.  Every decoration after an update is exactly what re-running
    every analysis over the whole tree would leave. *)

open S1_ir
open Node

(* Re-derive the bottom-up decorations of every node whose subtree holds
   a mark (every node when [all]), and mark it.  Returns whether [n]'s
   subtree held one. *)
let rec spine ~all (n : node) : bool =
  let below = ref false in
  iter_children (fun c -> if spine ~all c then below := true) n;
  let below = !below in
  if all || below || n.n_dirty then begin
    Envan.node n;
    Effects.node n;
    Complexity.node n;
    n.n_dirty <- true;
    true
  end
  else false

(** Re-analyse after the tree changed.  [restrategized] is what the
    previous update returned: lambdas whose strategy binding annotation
    changed, which complexity analysis (run before binding annotation)
    now prices anew.  Returns the same for the next update. *)
let update ?(all = false) ~restrategized (root : node) : node list =
  Envan.backrefs root;
  List.iter (fun n -> n.n_dirty <- true) restrategized;
  ignore (spine ~all root);
  Tailan.run root;
  Binding.run root

(** The update after a sweep that rewrote nothing: back-pointers, tail
    positions and binding annotation would come out as they are, so only
    the lambdas whose strategy the last update changed are re-priced,
    with the spines above them. *)
let reprice ~restrategized (root : node) : unit =
  List.iter (fun n -> n.n_dirty <- true) restrategized;
  ignore (spine ~all:false root)

(** Analyse the whole tree from scratch. *)
let refresh (root : node) : unit = ignore (update ~all:true ~restrategized:[] root)

let run = refresh
