(** The analysis pipeline: the machine-independent analyses of the paper's
    Table 1, run in its order, and re-run incrementally for the
    optimizer.

    "The next two phases (source-program analysis and source-level
    optimization) are actually executed in a complicated co-routining
    manner for efficiency" (§4.2).  The optimizer marks what it rewrites
    ([n_dirty]); {!update} then re-derives the bottom-up decorations
    (side effects and complexity) only on the spine above the marks,
    keeps every other node's, and leaves the spine marked so the
    optimizer's next sweep revisits exactly that region.  The variables'
    back-pointers (all the optimizer reads of the environment analysis),
    tail positions and binding annotation are recomputed over the whole
    tree: they are linear walks that allocate only what they record, and
    binding annotation is not local.  Every decoration after an update is
    exactly what re-running every analysis over the whole tree would
    leave. *)

open S1_ir
open Node

let rederive n =
  Effects.node n;
  Complexity.node n;
  n.n_dirty <- true

(* Re-derive the bottom-up decorations of every node whose subtree holds
   a mark, and mark it.  Returns whether [n]'s subtree held one. *)
let rec spine n =
  if fold_children spine_step false n || n.n_dirty then begin
    rederive n;
    true
  end
  else false

and spine_step below c = spine c || below

(* The same over every node, postorder. *)
let rec rederive_all n =
  iter_children rederive_all n;
  rederive n

(** Re-analyse after the tree changed.  [restrategized] is what the
    previous update returned: lambdas whose strategy binding annotation
    changed, which complexity analysis (run before binding annotation)
    now prices anew.  Returns the same for the next update. *)
let update ?(all = false) ~restrategized (root : node) : node list =
  Envan.backrefs root;
  List.iter (fun n -> n.n_dirty <- true) restrategized;
  if all then rederive_all root else ignore (spine root);
  Tailan.run root;
  Binding.run root

(** The update after a sweep that rewrote nothing: back-pointers, tail
    positions and binding annotation would come out as they are, so only
    the lambdas whose strategy the last update changed are re-priced,
    with the spines above them. *)
let reprice ~restrategized (root : node) : unit =
  List.iter (fun n -> n.n_dirty <- true) restrategized;
  ignore (spine root)

(** Analyse the whole tree from scratch. *)
let refresh (root : node) : unit = ignore (update ~all:true ~restrategized:[] root)

let run = refresh
