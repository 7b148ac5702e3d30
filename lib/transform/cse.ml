(** Common-subexpression elimination — the paper's deferred phase.

    "Common sub-expression elimination has not yet been implemented ...
    its use is completely optional, for it only affects the efficiency of
    the resulting code and can be expressed as a source-level
    transformation using lambda-expressions." (§4.3)

    This implements exactly that, as an optional phase (off by default,
    matching the shipped compiler): repeated {e timeless} subexpressions
    (pure, reading no mutable storage — the same judgement the
    substitution rule uses) are bound once by a manifest lambda at the
    least common ancestor of their occurrences:

    [(+ (mul a b) (mul a b))  ==>  ((lambda (t) (+ t t)) (mul a b))]
    (with [mul] standing for the multiplication operator).

    The paper's thrashing worry — the source-level optimizer's
    common-subexpression {e introduction} undoing the elimination — is
    avoided structurally, as the paper suggests: META-SUBSTITUTE only
    propagates multi-reference bindings whose complexity is trivial,
    and CSE only eliminates expressions above that threshold. *)

open S1_ir
open Node

(* Candidates keyed by an unambiguous rendering (variables print with
   their unique ids). *)
let fingerprint (n : node) = Backtrans.to_string ~ids:true n

let min_complexity = 3

(* Collect (fingerprint -> occurrence list), bottoming out at real
   function boundaries, together with root paths for LCA computation. *)
let candidates (root : node) =
  let occs : (string, (node * node list) list) Hashtbl.t = Hashtbl.create 32 in
  let rec walk n path ~top =
    let path = n :: path in
    (match n.kind with
    | Lambda l when (not top) && (l.l_strategy = Full_closure || l.l_strategy = Toplevel) ->
        () (* separate function: CSE'd when that function is compiled *)
    | _ ->
        if Rules.timeless n && n.n_complexity >= min_complexity then begin
          let key = fingerprint n in
          let prev = try Hashtbl.find occs key with Not_found -> [] in
          Hashtbl.replace occs key ((n, List.rev path) :: prev)
        end;
        iter_children (fun c -> walk c path ~top:false) n)
  in
  walk root [] ~top:true;
  occs

let lca_of paths root =
  match paths with
  | [] -> root
  | first :: rest ->
      let common a b =
        let rec go a b acc =
          match (a, b) with
          | x :: a', y :: b' when x == y -> go a' b' (x :: acc)
          | _ -> List.rev acc
        in
        go a b []
      in
      let prefix = List.fold_left common first rest in
      (match List.rev prefix with x :: _ -> x | [] -> root)

(* Domain-local, reset per hermetic file compile ([reset_counter]): the
   generated CSE-<n> variable names reach listings and serialized
   images, so the well must be deterministic. *)
let counter : int ref S1_par.Dls.t = S1_par.Dls.create (fun () -> ref 0)
let reset_counter () = S1_par.Dls.get counter := 0

let children_transitive (n : node) =
  let acc = ref [] in
  iter (fun c -> if c != n then acc := c :: !acc) n;
  !acc

(* Perform one elimination; true if something changed. *)
let eliminate_one (ts : Transcript.t) (root : node) : bool =
  let occs = candidates root in
  (* Prefer the most complex candidate so nested duplicates collapse
     outside-in. *)
  let best = ref None in
  Hashtbl.iter
    (fun _ entries ->
      match entries with
      | (first, _) :: _ :: _ -> (
          (* distinct node objects only (a node is its own duplicate when
             hash-consed fingerprints collide — they cannot here, but an
             occurrence may be a subtree of another; filter those) *)
          let nodes = List.map fst entries in
          let independent =
            List.for_all
              (fun a ->
                List.for_all
                  (fun b -> a == b || not (List.memq a (children_transitive b)))
                  nodes)
              nodes
          in
          if independent then
            match !best with
            | Some (b, _) when b.n_complexity >= first.n_complexity -> ()
            | _ -> best := Some (first, entries))
      | _ -> ())
    occs;
  match !best with
  | None -> false
  | Some (template, entries) ->
      let nodes = List.map fst entries and paths = List.map snd entries in
      let home = lca_of paths root in
      let journaling = Rules.journaling ts in
      let before = if journaling then Backtrans.to_string home else "" in
      let ctr = S1_par.Dls.get counter in
      incr ctr;
      let v = mkvar (Printf.sprintf "CSE-%d" !ctr) in
      let init = Freshen.copy template in
      List.iter
        (fun n ->
          set_kind n (Var v);
          n.n_dirty <- true)
        nodes;
      (* ((lambda (v) <home>) init) *)
      let inner = mk home.kind in
      let lam = lambda ~name:"CSE" [ required v ] inner in
      v.v_binder <- Some lam;
      set_kind home (Call (lam, [ init ]));
      home.n_dirty <- true;
      Rules.count_fire "COMMON-SUBEXPRESSION-ELIMINATION" home;
      if journaling then begin
        S1_obs.Remark.passed ~pass:"cse" ~rule:"COMMON-SUBEXPRESSION-ELIMINATION"
          ~node:home.n_id ?loc:home.n_loc
          ~args:[ ("occurrences", S1_obs.Remark.Int (List.length nodes)) ]
          (Printf.sprintf "bound %s once for %d occurrences"
             (Rules.short (Backtrans.to_string template))
             (List.length nodes));
        Transcript.record ts ~pass:"cse" ~node:home.n_id ?loc:home.n_loc ~before
          ~after:(Backtrans.to_string home) ~rule:"COMMON-SUBEXPRESSION-ELIMINATION" ()
      end;
      true

(* The negative space: expressions that hash to the same fingerprint at
   eliminable complexity but are not timeless — a second evaluation could
   observe a SETQ, a special, or an effect, so the duplicate must stand.
   Reported once per fingerprint on the post-elimination tree, in an
   order independent of hash-table iteration and node numbering. *)
let report_missed (root : node) =
  if S1_obs.Remark.enabled () then begin
    let occs : (string, node list) Hashtbl.t = Hashtbl.create 32 in
    let rec walk n ~top =
      match n.kind with
      | Lambda l when (not top) && (l.l_strategy = Full_closure || l.l_strategy = Toplevel)
        ->
          ()
      | _ ->
          (match n.kind with
          | Call _ when n.n_complexity >= min_complexity && not (Rules.timeless n) ->
              let key = fingerprint n in
              let prev = try Hashtbl.find occs key with Not_found -> [] in
              Hashtbl.replace occs key (n :: prev)
          | _ -> ());
          iter_children (fun c -> walk c ~top:false) n
    in
    walk root ~top:true;
    Hashtbl.fold (fun _ ns acc -> match ns with _ :: _ :: _ -> List.rev ns :: acc | _ -> acc)
      occs []
    |> List.map (fun ns ->
           let first = List.hd ns in
           (Backtrans.to_string first, first, List.length ns))
    |> List.sort (fun (ta, na, _) (tb, nb, _) ->
           let c = compare ta tb in
           if c <> 0 then c else compare na.n_loc nb.n_loc)
    |> List.iter (fun (text, first, count) ->
           S1_obs.Remark.missed ~pass:"cse" ~rule:"COMMON-SUBEXPRESSION-ELIMINATION"
             ~node:first.n_id ?loc:first.n_loc
             ~args:[ ("occurrences", S1_obs.Remark.Int count) ]
             (Printf.sprintf
                "repeated expression %s is not timeless (may read mutable storage or have \
                 effects)"
                (Rules.short text)))
  end

let run ?(transcript = Transcript.create ~enabled:false ()) (root : node) : int =
  S1_obs.Obs.with_span "cse" (fun () ->
      let eliminated = ref 0 in
      let continue_ = ref true in
      while !continue_ && !eliminated < 50 do
        S1_analysis.Analyze.refresh root;
        if eliminate_one transcript root then incr eliminated else continue_ := false
      done;
      S1_analysis.Analyze.refresh root;
      report_missed root;
      S1_obs.Obs.incr ~n:!eliminated "cse.eliminated";
      !eliminated)
