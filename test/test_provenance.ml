(* End-to-end provenance: reader locations -> IR node ids -> rewrite
   journal -> PC line maps -> source-level cycle attribution. *)

module Sexp = S1_sexp.Sexp
module Reader = S1_sexp.Reader
module Loc = S1_loc.Loc
module Node = S1_ir.Node
module Convert = S1_frontend.Convert
module Transcript = S1_transform.Transcript
module C = S1_core.Compiler
module Rt = S1_runtime.Rt
module Cpu = S1_machine.Cpu
module Obs = S1_obs.Obs

let testfn_src =
  "(defun testfn (a &optional (b 3.0) (c a))\n\
  \  (let ((d (+$f a b c)) (e (*$f a b c)))\n\
  \    (let ((q (sin$f e)))\n\
  \      (frotz d e (max$f d e))\n\
  \      q)))"

let frotz_src = "(defun frotz (x y z) (list x y z))"

(* Reader locations ----------------------------------------------------- *)

let test_located_reader () =
  let forms, tab = Reader.parse_string_located ~file:"t.lisp" testfn_src in
  let form = List.hd forms in
  (match Reader.find_loc tab form with
  | Some l ->
      Alcotest.(check string) "top form position" "t.lisp:1:1" (Loc.to_string l)
  | None -> Alcotest.fail "top-level form has no location");
  (* every subform of a located parse is located *)
  let rec walk (s : Sexp.t) =
    (match s with
    | Sexp.List (_ :: _) ->
        Alcotest.(check bool)
          (Printf.sprintf "subform located: %s" (Sexp.to_string s))
          true
          (Reader.find_loc tab s <> None)
    | _ -> ());
    match s with Sexp.List xs -> List.iter walk xs | _ -> ()
  in
  walk form;
  (* a known interior position: (let ... on line 2 column 3 *)
  let body =
    match form with
    | Sexp.List (_ :: _ :: _ :: body :: _) -> body
    | _ -> Alcotest.fail "unexpected shape"
  in
  match Reader.find_loc tab body with
  | Some l -> Alcotest.(check string) "body position" "t.lisp:2:3" (Loc.to_string l)
  | None -> Alcotest.fail "body has no location"

let test_parse_error_position () =
  match Reader.parse_string_located ~file:"bad.lisp" "(a b\n  (c ?" with
  | _ -> Alcotest.fail "expected a parse error"
  | exception Reader.Parse_error e ->
      Alcotest.(check bool) "error line past 1" true (e.Reader.line >= 2)

(* Node stamping -------------------------------------------------------- *)

let test_node_locations () =
  let forms, tab = Reader.parse_string_located ~file:"t.lisp" testfn_src in
  let _, lam = Convert.defun ~locs:tab (List.hd forms) in
  Node.propagate_locs lam;
  let unlocated = ref 0 and total = ref 0 in
  Node.iter
    (fun n ->
      incr total;
      if n.Node.n_loc = None then incr unlocated)
    lam;
  Alcotest.(check bool) "nodes exist" true (!total > 10);
  Alcotest.(check int) "every node located after propagation" 0 !unlocated;
  (* node ids are unique *)
  let seen = Hashtbl.create 64 in
  Node.iter
    (fun n ->
      Alcotest.(check bool) "unique node id" false (Hashtbl.mem seen n.Node.n_id);
      Hashtbl.replace seen n.Node.n_id ())
    lam

(* The rewrite journal -------------------------------------------------- *)

let test_journal_roundtrip () =
  let c = C.create () in
  ignore (C.eval_string c frotz_src);
  c.C.log <- Some [];
  ignore (C.eval_string c ~file:"t.lisp" testfn_src);
  let ts =
    match c.C.log with Some (u :: _) -> u.C.l_rewrites | _ -> Alcotest.fail "no unit logged"
  in
  let events = Transcript.events ts in
  Alcotest.(check bool) "rules fired" true (List.length events >= 3);
  (* every event carries a node id and a source position *)
  List.iter
    (fun (e : Transcript.event) ->
      Alcotest.(check bool) ("node id on " ^ e.Transcript.ev_rule) true (e.Transcript.ev_node >= 0);
      Alcotest.(check bool) ("loc on " ^ e.Transcript.ev_rule) true (e.Transcript.ev_loc <> None))
    events;
  (* the JSONL journal: a schema header, then one line per event *)
  let lines = String.split_on_char '\n' (String.trim (Transcript.to_jsonl ts)) in
  Alcotest.(check int) "journal lines" (1 + List.length events) (List.length lines)

(* PC line maps --------------------------------------------------------- *)

let test_pc_map_complete () =
  let c = C.create () in
  let cpu = c.C.rt.Rt.cpu in
  let lo = cpu.Cpu.code_len in
  ignore (C.eval_string c ~file:"t.lisp" (frotz_src ^ "\n" ^ testfn_src));
  let hi = cpu.Cpu.code_len in
  Alcotest.(check bool) "code emitted" true (hi > lo);
  for pc = lo to hi - 1 do
    match Cpu.provenance_at cpu pc with
    | None -> Alcotest.failf "pc %d has no covering mark" pc
    | Some m ->
        if m.S1_machine.Asm.m_node < 0 then Alcotest.failf "pc %d mark lacks a node id" pc;
        (match m.S1_machine.Asm.m_loc with
        | Some l ->
            if l.Loc.file <> "t.lisp" || l.Loc.line < 1 then
              Alcotest.failf "pc %d maps to a bad position %s" pc (Loc.to_string l)
        | None -> Alcotest.failf "pc %d mark lacks a source position" pc)
  done

(* Source-level cycle attribution --------------------------------------- *)

let test_profile_sums_to_cycles () =
  let c = C.create () in
  let cpu = c.C.rt.Rt.cpu in
  ignore (C.eval_string c ~file:"t.lisp" (frotz_src ^ "\n" ^ testfn_src));
  Cpu.reset_stats cpu;
  Cpu.enable_profile cpu;
  ignore (C.eval_string c ~file:"drive.lisp" "(testfn 1.0 2.0 4.0)\n(testfn 1.0)");
  let lines = Cpu.profile_by_line cpu in
  Alcotest.(check bool) "attributed lines" true
    (List.exists (fun l -> l.Cpu.ln_file = "t.lisp" && l.Cpu.ln_cycles > 0) lines);
  let sum = List.fold_left (fun acc l -> acc + l.Cpu.ln_cycles) 0 lines in
  Alcotest.(check int) "per-line cycles sum to stats.cycles" cpu.Cpu.stats.Cpu.cycles sum;
  (* the IR-node table of the --profile report: label, cycles, %, instrs *)
  let rec node_rows = function
    | [] -> []
    | l :: rest when String.starts_with ~prefix:"IR node" l -> table rest
    | _ :: rest -> node_rows rest
  and table = function "" :: _ | [] -> [] | l :: rest -> l :: table rest in
  let cycles_of row =
    match List.rev (List.filter (( <> ) "") (String.split_on_char ' ' row)) with
    | _instrs :: _pct :: cycles :: _ -> int_of_string cycles
    | _ -> Alcotest.failf "malformed IR node row %S" row
  in
  let report = String.split_on_char '\n' (Format.asprintf "%a" Cpu.pp_profile cpu) in
  let nsum = List.fold_left (fun acc row -> acc + cycles_of row) 0 (node_rows report) in
  Alcotest.(check int) "per-node cycles sum to stats.cycles" cpu.Cpu.stats.Cpu.cycles nsum

(* Per-source-line rule counters ---------------------------------------- *)

let test_per_line_rule_counters () =
  Obs.reset ();
  let c = C.create () in
  ignore (C.eval_string c frotz_src);
  ignore (C.eval_string c ~file:"t.lisp" testfn_src);
  let has_prefix p s =
    String.length s >= String.length p && String.sub s 0 (String.length p) = p
  in
  let hits =
    List.filter (fun (name, n) -> has_prefix "rule_at." name && n > 0) (Obs.counters ())
  in
  Alcotest.(check bool) "per-line rule counters recorded" true (List.length hits > 0);
  Alcotest.(check bool) "counters name t.lisp lines" true
    (List.exists (fun (name, _) -> has_prefix "rule_at.t.lisp:" name) hits)

(* Monotonic time source ------------------------------------------------ *)

let test_now_ns_monotonic () =
  let t0 = Obs.now_ns () in
  let acc = ref 0 in
  for i = 1 to 100_000 do acc := !acc + i done;
  ignore !acc;
  let t1 = Obs.now_ns () in
  Alcotest.(check bool) "positive" true (t0 > 0);
  Alcotest.(check bool) "non-decreasing" true (t1 >= t0)

let () =
  Alcotest.run "provenance"
    [
      ( "reader",
        [
          Alcotest.test_case "located parse" `Quick test_located_reader;
          Alcotest.test_case "parse error position" `Quick test_parse_error_position;
        ] );
      ("ir", [ Alcotest.test_case "node locations" `Quick test_node_locations ]);
      ( "journal",
        [
          Alcotest.test_case "jsonl round trip" `Quick test_journal_roundtrip;
        ] );
      ( "machine",
        [
          Alcotest.test_case "pc map complete" `Quick test_pc_map_complete;
          Alcotest.test_case "profile sums" `Quick test_profile_sums_to_cycles;
        ] );
      ( "obs",
        [
          Alcotest.test_case "per-line rule counters" `Quick test_per_line_rule_counters;
          Alcotest.test_case "now_ns monotonic" `Quick test_now_ns_monotonic;
        ] );
    ]
