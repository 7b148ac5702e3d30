(* Tests for the observability layer: the Obs registry (counters, spans,
   JSON), the simulator's execution statistics and reset discipline, and
   the PC-level cycle profiler with its symbolization. *)

module Obs = S1_obs.Obs
module Json = S1_obs.Obs.Json
module Cpu = S1_machine.Cpu
module Isa = S1_machine.Isa
module Asm = S1_machine.Asm
module Rt = S1_runtime.Rt
module C = S1_core.Compiler
module Reader = S1_sexp.Reader

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* JSON encoder ---------------------------------------------------------- *)

let test_json_compact () =
  let doc =
    Json.Obj
      [
        ("a", Json.Int 1);
        ("xs", Json.Arr [ Json.Str "x\"y"; Json.Bool true; Json.Null ]);
        ("f", Json.Float 1.5);
        ("whole", Json.Float 2.0);
      ]
  in
  check_str "compact rendering"
    {|{"a":1,"xs":["x\"y",true,null],"f":1.5,"whole":2.0}|}
    (Json.to_string ~pretty:false doc)

let test_json_escapes () =
  check_str "string escapes" {|"tab\there\nctrl\u0001\\"|}
    (Json.to_string ~pretty:false (Json.Str "tab\there\nctrl\001\\"));
  check_str "escaped keys" {|{"k\"1":[]}|}
    (Json.to_string ~pretty:false (Json.Obj [ ("k\"1", Json.Arr []) ]))

(* JSON parser ------------------------------------------------------------ *)

(* Seeded random trees over everything the printer can emit: strings
   from every escape class (quote, backslash, \n \r \t, other control
   bytes as \u00XX, raw bytes >= 0x80, empty), integers around every
   width the parser's inline path switches on, and floats.  Integral
   floats stay below 1e15: from there to 1e17 the printer writes them
   with neither '.' nor exponent, so they would come back as [Int]. *)
let random_tree st =
  let pick xs = List.nth xs (Random.State.int st (List.length xs)) in
  let rand_char () =
    match Random.State.int st 7 with
    | 0 -> pick [ '"'; '\\'; '\n'; '\r'; '\t'; '/' ]
    | 1 -> Char.chr (Random.State.int st 0x20)
    | 2 -> Char.chr (0x80 + Random.State.int st 0x80)
    | _ -> Char.chr (0x20 + Random.State.int st 0x5f)
  in
  let rand_string () =
    if Random.State.int st 6 = 0 then ""
    else String.init (Random.State.int st 24) (fun _ -> rand_char ())
  in
  let rand_int () =
    let digits d = Int64.to_int (Int64.of_string ("1" ^ String.make (d - 1) '0')) in
    let n =
      match Random.State.int st 6 with
      | 0 -> pick [ 0; 1; -1; max_int; min_int; max_int - 1; min_int + 1 ]
      | 1 -> Random.State.int st 1000
      | 2 -> digits (17 + Random.State.int st 3) + Random.State.bits st
      | 3 -> digits (17 + Random.State.int st 2) - 1
      | _ -> Int64.to_int (Random.State.int64 st Int64.max_int)
    in
    if Random.State.bool st then n else -n
  in
  let rand_float () =
    match Random.State.int st 3 with
    | 0 -> Float.of_int (Random.State.int st 100000 - 50000)
    | 1 -> Random.State.float st 1.0 -. 0.5
    | _ -> Random.State.float st 1e300 *. if Random.State.bool st then 1e-200 else 1.0
  in
  let rec tree depth =
    match Random.State.int st (if depth = 0 then 5 else 7) with
    | 0 -> Json.Null
    | 1 -> Json.Bool (Random.State.bool st)
    | 2 -> Json.Int (rand_int ())
    | 3 -> Json.Float (rand_float ())
    | 4 -> Json.Str (rand_string ())
    | 5 -> Json.Arr (List.init (Random.State.int st 5) (fun _ -> tree (depth - 1)))
    | _ ->
        Json.Obj
          (List.init (Random.State.int st 5) (fun _ -> (rand_string (), tree (depth - 1))))
  in
  tree 4

let test_json_round_trip () =
  let st = Random.State.make [| 20 |] in
  for i = 1 to 2000 do
    let t = random_tree st in
    List.iter
      (fun pretty ->
        let text = Json.to_string ~pretty t in
        match Json.parse text with
        | t' -> if t' <> t then Alcotest.failf "tree %d (pretty %b) reparsed differently: %s" i pretty text
        | exception Json.Parse_error m -> Alcotest.failf "tree %d (pretty %b): %s in %s" i pretty m text)
      [ true; false ]
  done

(* The exact error text, offsets included, for each way a document can
   be malformed: image loading reports these verbatim. *)
let test_json_parse_errors () =
  List.iter
    (fun (input, expected) ->
      match Json.parse input with
      | _ -> Alcotest.failf "%S parsed" input
      | exception Json.Parse_error m -> check_str (Printf.sprintf "%S" input) expected m)
    [
      ({|"abc|}, "unterminated string at offset 4");
      ({|"a\nb|}, "unterminated string at offset 5");
      ({|["a\"b", "c|}, "unterminated string at offset 11");
      ({|"x\u0041|}, "unterminated string at offset 8");
      ({|"ab\|}, "unterminated escape at offset 4");
      ({|"\u00"|}, "truncated \\u escape at offset 2");
      ({|"\u00zz"|}, "bad \\u escape at offset 2");
      ({|"a\qb"|}, "bad escape '\\q' at offset 3");
      ("-", "bad number at offset 1");
      ("-x", "bad number at offset 1");
      ("1.2.3", "bad number at offset 5");
      ("99999999999999999999", "bad number at offset 20");
      ("4611686018427387904", "bad number at offset 19");
      ("[1] x", "trailing garbage at offset 4");
      ({|{"a" 1}|}, "expected ':' at offset 5");
      ("[1 2]", "expected ']' at offset 3");
      ("tru", "expected true at offset 0");
      ("", "unexpected character at offset 0");
    ]

(* Counters and spans ---------------------------------------------------- *)

let test_counters () =
  let t = Obs.create () in
  check_int "missing counter reads zero" 0 (Obs.count ~t "nope");
  Obs.incr ~t "b.two";
  Obs.incr ~t ~n:41 "a.one";
  Obs.incr ~t "a.one";
  check_int "accumulates" 42 (Obs.count ~t "a.one");
  Alcotest.(check (list (pair string int)))
    "sorted listing"
    [ ("a.one", 42); ("b.two", 1) ]
    (Obs.counters ~t ());
  Obs.incr ~t ~n:0 "c.zero";
  check_int "n:0 registers the name" 0 (Obs.count ~t "c.zero");
  check_int "n:0 appears in listing" 3 (List.length (Obs.counters ~t ()));
  Obs.reset ~t ();
  check_int "reset clears" 0 (Obs.count ~t "a.one");
  check_int "reset empties listing" 0 (List.length (Obs.counters ~t ()))

(* Interned counters count into the current domain's registry, in the
   same cells [incr] uses. *)
let test_interned_counters () =
  Obs.reset ();
  let a = Obs.counter "interned.a" and b = Obs.counter "interned.b" in
  check_bool "one id per name" true (a = Obs.counter "interned.a");
  Obs.incr ~n:2 "interned.b";
  Obs.add b 3;
  Obs.add a 5;
  Obs.incr "interned.a";
  check_int "add after incr" 5 (Obs.count "interned.b");
  check_int "incr after add" 6 (Obs.count "interned.a");
  let before = Obs.snapshot () in
  Obs.add a 4;
  Obs.add b 0;
  Alcotest.(check (list (pair string int)))
    "diff sees add" [ ("interned.a", 4) ] (Obs.diff ~before ());
  Alcotest.(check (list (pair string int)))
    "listing" [ ("interned.a", 10); ("interned.b", 5) ] (Obs.counters ());
  Obs.reset ();
  Obs.add a 7;
  Alcotest.(check (list (pair string int)))
    "reset drops the cached cell" [ ("interned.a", 7) ] (Obs.counters ());
  Obs.incr "interned.a";
  check_int "the recreated cell is the registry's" 8 (Obs.count "interned.a");
  let worker n () =
    for _ = 1 to n do
      Obs.add a 1
    done;
    Obs.counters ()
  in
  let d1 = Domain.spawn (worker 1000) and d2 = Domain.spawn (worker 3) in
  Alcotest.(check (list (pair string int)))
    "first domain" [ ("interned.a", 1000) ] (Domain.join d1);
  Alcotest.(check (list (pair string int)))
    "second domain" [ ("interned.a", 3) ] (Domain.join d2);
  check_int "the main domain's own" 8 (Obs.count "interned.a");
  Obs.reset ()

(* The list-scan [Obs.diff] this module once had: the model the merge
   walk must agree with. *)
let model_diff ~before after =
  List.filter_map
    (fun (name, v) ->
      let prior = match List.assoc_opt name before with Some p -> p | None -> 0 in
      if v <> prior then Some (name, v - prior) else None)
    after

(* Seeded registries: counters created after the snapshot, counters that
   did not move, counters that moved back to their old value, and (now
   and then) a reset between snapshot and diff. *)
let test_diff_parity () =
  for seed = 0 to 199 do
    let r = Random.State.make [| seed |] in
    let t = Obs.create () in
    let name () = Printf.sprintf "k.%d" (Random.State.int r 60) in
    for _ = 1 to Random.State.int r 40 do
      Obs.incr ~t ~n:(Random.State.int r 5) (name ())
    done;
    let before = Obs.snapshot ~t () in
    if Random.State.int r 10 = 0 then Obs.reset ~t ();
    for _ = 1 to Random.State.int r 40 do
      let k = name () and n = Random.State.int r 7 - 3 in
      Obs.incr ~t ~n k;
      if Random.State.bool r then Obs.incr ~t ~n:(-n) k
    done;
    Alcotest.(check (list (pair string int)))
      (Printf.sprintf "seed %d" seed)
      (model_diff ~before (Obs.counters ~t ()))
      (Obs.diff ~before ~t ())
  done

(* --timings prints each span right after its parent's subtree, so a
   span opened under [a] after [c] still reads as [a]'s child. *)
let test_timings_tree_order () =
  let t = Obs.create () in
  Obs.with_span ~t "a" (fun () -> Obs.with_span ~t "b" ignore);
  Obs.with_span ~t "c" ignore;
  Obs.with_span ~t "a" (fun () -> Obs.with_span ~t "d" ignore);
  let text = Format.asprintf "%t" (fun fmt -> Obs.pp_timings fmt ~t ()) in
  let leaves =
    String.split_on_char '\n' text
    |> List.tl
    |> List.filter_map (fun l ->
           match String.split_on_char ' ' (String.trim l) with
           | leaf :: _ when leaf <> "" -> Some leaf
           | _ -> None)
  in
  Alcotest.(check (list string)) "tree order" [ "a"; "b"; "d"; "c" ] leaves

let test_spans_nest () =
  let t = Obs.create () in
  let r =
    Obs.with_span ~t "outer" (fun () ->
        Obs.with_span ~t "inner" (fun () -> ());
        Obs.with_span ~t "inner" (fun () -> 17))
  in
  check_int "body result returned" 17 r;
  let paths = List.map (fun sp -> sp.Obs.sp_path) (Obs.spans ~t ()) in
  Alcotest.(check (list string))
    "paths in first-open order" [ "outer"; "outer/inner" ] paths;
  let inner = List.nth (Obs.spans ~t ()) 1 in
  check_int "nested span counted per entry" 2 inner.Obs.sp_count;
  check_int "depth from path" 1 inner.Obs.sp_depth;
  check_bool "wall time accumulated" true ((List.hd (Obs.spans ~t ())).Obs.sp_ns >= 0);
  Obs.with_span ~t "alloc" (fun () -> ignore (Sys.opaque_identity (List.init 1000 Fun.id)));
  check_bool "1000 conses are at least 3000 words" true
    ((List.nth (Obs.spans ~t ()) 2).Obs.sp_alloc >= 3000)

let test_spans_exception_safe () =
  let t = Obs.create () in
  (try Obs.with_span ~t "boom" (fun () -> failwith "inside") with Failure _ -> ());
  (* the stack must have been popped: a new span is top-level, not boom/x *)
  Obs.with_span ~t "after" (fun () -> ());
  let paths = List.map (fun sp -> sp.Obs.sp_path) (Obs.spans ~t ()) in
  Alcotest.(check (list string)) "raising span still closed" [ "boom"; "after" ] paths;
  check_int "raising span counted" 1 (List.hd (Obs.spans ~t ())).Obs.sp_count

let test_obs_json_schema () =
  let t = Obs.create () in
  Obs.incr ~t "k";
  Obs.with_span ~t "s" (fun () -> ());
  match Obs.json ~t () with
  | Json.Obj [ ("schema", Json.Str v); ("spans", Json.Arr [ sp ]); ("counters", Json.Obj cs) ]
    ->
      check_str "schema version" Obs.schema_version v;
      check_bool "span row shape" true
        (match sp with
        | Json.Obj
            [
              ("path", Json.Str "s");
              ("count", Json.Int 1);
              ("wall_ns", Json.Int _);
              ("alloc_words", Json.Int _);
            ] ->
            true
        | _ -> false);
      Alcotest.(check (list (pair string bool)))
        "counter row" [ ("k", true) ]
        (List.map (function k, Json.Int 1 -> (k, true) | k, _ -> (k, false)) cs)
  | _ -> Alcotest.fail "unexpected metrics document shape"

(* CPU statistics -------------------------------------------------------- *)

(* A hand-assembled program with a known instruction mix: the stats must
   move by exactly what the program does. *)
let test_stats_known_program () =
  let cpu = Cpu.create () in
  let image =
    Cpu.load cpu
      Asm.
        [
          Data ("CELL", [ Word 99 ]);
          Label "GO";
          Instr (Isa.Mov (Isa.Reg 10, Isa.Imm 5));
          Instr (Isa.Push (Isa.Reg 10));
          Instr (Isa.Push (Isa.Reg 10));
          Instr (Isa.Pop (Isa.Reg 11));
          Instr (Isa.Mov (Isa.Reg 12, Isa.Dlab ("CELL", 0)));
          Instr (Isa.Mov (Isa.Reg 13, Isa.Ind (12, 0)));
          Instr Isa.Halt;
        ]
  in
  Cpu.run cpu ~at:(Cpu.label_addr image "GO");
  check_int "memory operand read" 99 (Cpu.get_reg cpu 13);
  let s = cpu.Cpu.stats in
  check_int "instructions" 7 s.Cpu.instructions;
  check_int "movs" 3 s.Cpu.movs;
  check_int "stack high-water is two pushes" 2 s.Cpu.stack_high;
  check_bool "memory operand counted as traffic" true (s.Cpu.mem_traffic > 0);
  check_bool "cycles charged" true (s.Cpu.cycles >= s.Cpu.instructions);
  check_int "no calls in straight-line code" 0 (s.Cpu.calls + s.Cpu.tcalls + s.Cpu.svcs)

(* calls/tcalls through the real compiler: a non-tail-recursive factorial
   makes a frame per level; its tail-recursive twin runs in O(1) stack
   (the paper's "parameter-passing goto") and counts under tcalls. *)
let test_stats_calls_and_tcalls () =
  let c = C.create () in
  ignore
    (C.eval_string c "(defun fact (n) (if (< n 2) 1 (* n (fact (- n 1)))))");
  ignore
    (C.eval_string c
       "(defun factl (n acc) (if (< n 2) acc (factl (- n 1) (* acc n))))");
  let cpu = c.C.rt.Rt.cpu in
  let run src =
    Cpu.reset_stats cpu;
    ignore (C.eval_string c src);
    let s = cpu.Cpu.stats in
    (s.Cpu.calls, s.Cpu.tcalls, s.Cpu.stack_high)
  in
  let calls10, _, stack10 = run "(fact 10)" in
  let calls20, _, stack20 = run "(fact 20)" in
  check_bool "recursion makes calls" true (calls10 >= 10);
  check_bool "deeper recursion, more calls" true (calls20 >= calls10 + 10);
  check_bool "deeper recursion, more stack" true (stack20 > stack10);
  let _, tcalls10, tstack10 = run "(factl 10 1)" in
  let _, tcalls20, tstack20 = run "(factl 20 1)" in
  check_bool "tail recursion counts under tcalls" true (tcalls10 >= 10);
  check_bool "tcalls scale with depth" true (tcalls20 >= tcalls10 + 10);
  check_int "tail recursion runs in constant stack" tstack10 tstack20;
  let s = cpu.Cpu.stats in
  check_bool "compiled code moves words" true (s.Cpu.movs > 0);
  check_bool "compiled code touches memory" true (s.Cpu.mem_traffic > 0)

(* Every stats field must be live before reset, and reset must produce a
   state structurally equal to a fresh simulator's — so a newly added
   field cannot silently escape [reset_stats]. *)
let test_reset_stats_zeroes_everything () =
  let c = C.create () in
  ignore
    (C.eval_string c "(defun fact (n) (if (< n 2) 1 (* n (fact (- n 1)))))");
  ignore
    (C.eval_string c
       "(defun factl (n acc) (if (< n 2) acc (factl (- n 1) (* acc n))))");
  let cpu = c.C.rt.Rt.cpu in
  ignore (C.eval_string c "(defvar *obs-special* 1)");
  Cpu.reset_stats cpu;
  ignore (C.eval_string c "(fact 8)");
  ignore (C.eval_string c "(factl 8 1)");
  ignore (C.eval_string c "(cons 1 2)");
  ignore (C.eval_string c "(let ((*obs-special* 5)) *obs-special*)");
  let s = cpu.Cpu.stats in
  check_bool "cycles moved" true (s.Cpu.cycles > 0);
  check_bool "instructions moved" true (s.Cpu.instructions > 0);
  check_bool "movs moved" true (s.Cpu.movs > 0);
  check_bool "mem_traffic moved" true (s.Cpu.mem_traffic > 0);
  check_bool "calls moved" true (s.Cpu.calls > 0);
  check_bool "tcalls moved" true (s.Cpu.tcalls > 0);
  check_bool "svcs moved" true (s.Cpu.svcs > 0);
  check_bool "stack_high moved" true (s.Cpu.stack_high > 0);
  check_bool "bind_high moved" true (s.Cpu.bind_high > 0);
  Cpu.reset_stats cpu;
  let fresh = Cpu.create () in
  check_bool "reset_stats restores the pristine record" true
    (cpu.Cpu.stats = fresh.Cpu.stats)

(* Profiler -------------------------------------------------------------- *)

let test_profiler_attribution () =
  let c = C.create () in
  ignore
    (C.eval_string c
       "(defun fib (n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))");
  let cpu = c.C.rt.Rt.cpu in
  Cpu.reset_stats cpu;
  Cpu.enable_profile cpu;
  check_bool "profiling on" true (Cpu.profiling cpu);
  ignore (C.eval_string c "(fib 12)");
  let fns = Cpu.profile_by_function cpu in
  let total = List.fold_left (fun a f -> a + f.Cpu.f_cycles) 0 fns in
  check_int "profile accounts for every cycle" cpu.Cpu.stats.Cpu.cycles total;
  let named =
    List.fold_left (fun a f -> if f.Cpu.f_name = "?" then a else a + f.Cpu.f_cycles) 0 fns
  in
  check_bool "at least 90% of cycles symbolized" true (10 * named >= 9 * total);
  let fib = List.find (fun f -> f.Cpu.f_name = "FIB") fns in
  check_bool "FIB dominates" true (2 * fib.Cpu.f_cycles > total);
  check_bool "FIB call count" true (fib.Cpu.f_calls > 100);
  check_bool "FIB executes instructions" true (fib.Cpu.f_instructions > 0);
  check_bool "call opcode in histogram" true
    (List.mem_assoc "%CALL" (Cpu.opcode_histogram cpu));
  check_int "FIB's row starts at FIB's loaded range"
    (match List.find_opt (fun (_, _, n) -> n = "FIB") cpu.Cpu.symbols with
    | Some (lo, _, _) -> lo
    | None -> -1)
    fib.Cpu.f_entry

(* Pipeline integration: compiling through the driver populates the
   global registry with the spans and packing statistics the metrics
   export promises. *)
let test_pipeline_metrics () =
  let c = C.create () in
  Obs.reset ();
  ignore (C.eval_string c "(defun sq (x) (* x x))");
  let paths = List.map (fun sp -> sp.Obs.sp_path) (Obs.spans ()) in
  List.iter
    (fun p -> check_bool (p ^ " span recorded") true (List.mem p paths))
    [ "compile"; "compile/phases"; "compile/phases/simplify"; "compile/codegen";
      "compile/codegen/tnbind"; "compile/load" ];
  check_bool "TNBIND pooled some TNs" true (Obs.count "tn.total" > 0);
  check_bool "functions counted" true (Obs.count "gen.functions" >= 1);
  check_bool "instructions counted" true (Obs.count "gen.instructions" > 0);
  Obs.reset ();
  (* multiplying by the identity operand must fire a named §5 rule counter *)
  ignore (C.eval_string c "(defun idmul (x) (* x 1))");
  check_bool "rule fire counted" true (Obs.count "rule.META-IDENTITY-OPERAND" >= 1)

(* listing_of on a non-DEFUN form must expand user macros (regression:
   the expression path used to drop the macro predicate). *)
let test_listing_of_expands_macros () =
  let c = C.create () in
  ignore (C.eval_string c "(defmacro twice (x) (list 'progn x x))");
  let form = List.hd (Reader.parse_string "(twice (+ 1 2))") in
  let listing, _ = C.listing_of c form in
  check_bool "listing produced" true (String.length listing > 0);
  check_bool "macro expanded, no call to TWICE left" false (contains listing "TWICE")

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "compact" `Quick test_json_compact;
          Alcotest.test_case "escapes" `Quick test_json_escapes;
          Alcotest.test_case "parse round trip" `Quick test_json_round_trip;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
        ] );
      ( "registry",
        [
          Alcotest.test_case "counters" `Quick test_counters;
          Alcotest.test_case "interned counters" `Quick test_interned_counters;
          Alcotest.test_case "spans nest" `Quick test_spans_nest;
          Alcotest.test_case "spans exception-safe" `Quick test_spans_exception_safe;
          Alcotest.test_case "json schema" `Quick test_obs_json_schema;
          Alcotest.test_case "diff matches the list model" `Quick test_diff_parity;
          Alcotest.test_case "timings in tree order" `Quick test_timings_tree_order;
        ] );
      ( "cpu-stats",
        [
          Alcotest.test_case "known program" `Quick test_stats_known_program;
          Alcotest.test_case "calls and tcalls" `Quick test_stats_calls_and_tcalls;
          Alcotest.test_case "reset zeroes everything" `Quick
            test_reset_stats_zeroes_everything;
        ] );
      ( "profiler",
        [ Alcotest.test_case "attribution" `Quick test_profiler_attribution ] );
      ( "pipeline",
        [
          Alcotest.test_case "metrics counters" `Quick test_pipeline_metrics;
          Alcotest.test_case "listing_of expands macros" `Quick
            test_listing_of_expands_macros;
        ] );
    ]
