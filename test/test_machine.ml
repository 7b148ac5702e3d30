(* Tests for the S-1 machine model: words, floats, assembler, simulator. *)

open S1_machine

let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-12))

(* Word arithmetic ------------------------------------------------------- *)

let test_word_wrap () =
  check_int "add wraps" 0 (Word.add Word.mask 1 |> Word.to_signed);
  check_int "sub wraps" (-1) (Word.to_signed (Word.sub 0 1));
  check_int "neg" (-5) (Word.to_signed (Word.neg (Word.of_int 5)));
  check_int "mul" 391 (Word.to_signed (Word.mul (Word.of_int 17) (Word.of_int 23)));
  check_int "mul negative" (-391)
    (Word.to_signed (Word.mul (Word.of_int (-17)) (Word.of_int 23)))

let test_word_tags () =
  let w = Word.make_ptr ~tag:13 ~addr:12345 in
  check_int "tag" 13 (Word.tag_of w);
  check_int "addr" 12345 (Word.addr_of w);
  (* negative immediate datum *)
  let w2 = Word.make_ptr ~tag:9 ~addr:(-42 land Word.addr_mask) in
  check_int "signed datum" (-42) (Word.datum_signed w2);
  check_int "tag preserved" 9 (Word.tag_of w2)

let test_word_shift () =
  check_int "left" 8 (Word.to_signed (Word.shift (Word.of_int 1) 3));
  check_int "right arithmetic" (-2) (Word.to_signed (Word.shift (Word.of_int (-8)) (-2)))

let prop_word_roundtrip =
  QCheck2.Test.make ~count:1000 ~name:"to_signed/of_int round trip"
    QCheck2.Gen.(int_range (-(1 lsl 35)) ((1 lsl 35) - 1))
    (fun n -> Word.to_signed (Word.of_int n) = n)

(* Floats ----------------------------------------------------------------- *)

let test_float36_exact () =
  (* Small integers and simple dyadic fractions are exact in SWFLO. *)
  List.iter
    (fun f -> check_float (Printf.sprintf "%g exact" f) f (Float36.single_of_float f))
    [ 0.0; 1.0; -1.0; 2.0; 0.5; -0.25; 3.0; 1024.0; 0.125; 345.5; -1000.0 ]

let test_float36_rounding () =
  (* 26-bit fraction: relative error bounded by 2^-27. *)
  let f = 0.1 in
  let g = Float36.single_of_float f in
  Alcotest.(check bool) "0.1 close" true (Float.abs (g -. f) /. f < 1e-7);
  Alcotest.(check bool) "idempotent" true (Float36.single_of_float g = g)

let test_float36_specials () =
  Alcotest.(check bool) "inf" true
    (Float36.decode_single (Float36.encode_single Float.infinity) = Float.infinity);
  Alcotest.(check bool) "-inf" true
    (Float36.decode_single (Float36.encode_single Float.neg_infinity) = Float.neg_infinity);
  Alcotest.(check bool) "nan" true
    (Float.is_nan (Float36.decode_single (Float36.encode_single Float.nan)));
  Alcotest.(check bool) "overflow to inf" true
    (Float36.single_is_inf (Float36.encode_single 1e300));
  (* the format has a single zero: -0.0 encodes to the all-zero pattern,
     so the optimizer's associative/commutative reordering of float
     multiplies cannot change an observable zero sign *)
  check_float "negative zero" 0.0 (Float36.single_of_float (-0.0));
  Alcotest.(check int) "negative zero encoding" 0 (Float36.encode_single (-0.0));
  Alcotest.(check bool) "negative zero sign erased" false
    (Float.sign_bit (Float36.single_of_float (-0.0)))

let test_float36_double () =
  List.iter
    (fun f ->
      check_float
        (Printf.sprintf "double %g" f)
        f
        (Float36.decode_double (Float36.encode_double f)))
    [ 0.0; 1.0; -1.5; 3.14159265358979; 1e100; -2.2e-200 ]

let prop_float36_monotone =
  (* encode/decode is monotone over moderate floats *)
  QCheck2.Test.make ~count:500 ~name:"float36 ordering preserved"
    QCheck2.Gen.(pair (float_bound_inclusive 1e6) (float_bound_inclusive 1e6))
    (fun (a, b) ->
      let a' = Float36.single_of_float a and b' = Float36.single_of_float b in
      if a <= b then a' <= b' else a' >= b')

let prop_float36_relative_error =
  QCheck2.Test.make ~count:1000 ~name:"float36 relative error < 2^-26"
    QCheck2.Gen.(float_range 1e-10 1e10)
    (fun f ->
      let g = Float36.single_of_float f in
      Float.abs (g -. f) <= Float.abs f *. (1.0 /. Float.ldexp 1.0 26))

(* Assembler --------------------------------------------------------------- *)

let test_asm_labels () =
  let cpu = Cpu.create () in
  let image =
    Cpu.load cpu
      Asm.
        [
          Label "START";
          Instr (Isa.Mov (Isa.Reg 0, Isa.Imm 7));
          Instr (Isa.Jmpa (Isa.L "DONE"));
          Instr (Isa.Mov (Isa.Reg 0, Isa.Imm 99));
          Label "DONE";
          Instr Isa.Halt;
        ]
  in
  Cpu.run cpu ~at:(Cpu.label_addr image "START");
  check_int "skipped the second store" 7 (Cpu.get_reg cpu 0)

let string_contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let test_asm_undefined_label () =
  let cpu = Cpu.create () in
  match Cpu.load cpu Asm.[ Instr (Isa.Jmpa (Isa.L "NOWHERE")) ] with
  | exception Asm.Asm_error msgs ->
      Alcotest.(check bool) "mentions label" true
        (List.exists (fun m -> string_contains m "NOWHERE") msgs)
  | _ -> Alcotest.fail "expected Asm_error"

let test_asm_validates_25_address () =
  let cpu = Cpu.create () in
  (* Three distinct operands, none RT: illegal. *)
  let bad = Isa.Bin (Isa.ADD, Isa.S, Isa.Reg 1, Isa.Reg 2, Isa.Reg 3) in
  (match Cpu.load cpu Asm.[ Instr bad ] with
  | exception Asm.Asm_error _ -> ()
  | _ -> Alcotest.fail "expected 2.5-address violation");
  (* Same with RTA destination: legal. *)
  let ok = Isa.Bin (Isa.ADD, Isa.S, Isa.Reg Isa.rta, Isa.Reg 2, Isa.Reg 3) in
  let cpu2 = Cpu.create () in
  ignore (Cpu.load cpu2 Asm.[ Instr ok; Instr Isa.Halt ]);
  (* dst = s1 is also legal *)
  let ok2 = Isa.Bin (Isa.ADD, Isa.S, Isa.Reg 1, Isa.Reg 1, Isa.Reg 3) in
  ignore (Cpu.load cpu2 Asm.[ Instr ok2; Instr Isa.Halt ])

let test_asm_data_blocks () =
  let cpu = Cpu.create () in
  let image =
    Cpu.load cpu
      Asm.
        [
          Data ("TBL", [ Word 10; Word 20; Word 30 ]);
          Label "GO";
          Instr (Isa.Mov (Isa.Reg Isa.t2, Isa.Dlab ("TBL", 0)));
          Instr (Isa.Mov (Isa.Reg 0, Isa.Idx { base = Isa.t2; disp = 0; index = Isa.rta; shift = 0 }));
          Instr Isa.Halt;
        ]
  in
  Cpu.set_reg cpu Isa.rta 2;
  Cpu.run cpu ~at:(Cpu.label_addr image "GO");
  check_int "indexed read of data block" 30 (Cpu.get_reg cpu 0)

(* Paged memory ------------------------------------------------------------ *)

(* Memory is demand-paged in 1K-word pages; nothing about it may show
   through the interface: sizes, zeros, masking and range failures read
   exactly as they did over one flat array. *)
let page = 1024

let test_mem_size_and_zeros () =
  let m = Mem.create () in
  let c = Mem.default_config in
  check_int "size is the sum of the regions"
    (c.Mem.sq_words + c.Mem.static_words + c.Mem.heap_words + c.Mem.stack_words + c.Mem.bind_words)
    (Mem.size m);
  check_int "bind region ends the address space" (Mem.size m) (Mem.bind_limit m);
  let nonzero = ref 0 in
  for a = 0 to Mem.size m - 1 do
    if Mem.read m a <> 0 then incr nonzero
  done;
  check_int "every region reads 0 before its first write" 0 !nonzero

let test_mem_write_zero_untouched () =
  let m = Mem.create () in
  let a = Mem.heap_base m + (3 * page) + 7 in
  Mem.write m a 0;
  check_int "zero written to an untouched page" 0 (Mem.read m a);
  check_int "its neighbour" 0 (Mem.read m (a + 1));
  Mem.write m (a + 1) 99;
  check_int "then a nonzero neighbour" 99 (Mem.read m (a + 1));
  check_int "the zero stays" 0 (Mem.read m a)

let test_mem_mask_across_pages () =
  let m = Mem.create () in
  let boundary = 5 * page in
  Mem.write m (boundary - 1) (-1);
  Mem.write m boundary ((1 lsl 36) + 5);
  check_int "last word of a page masks to 36 bits" Word.mask (Mem.read m (boundary - 1));
  check_int "first word of the next page masks too" 5 (Mem.read m boundary);
  check_int "the word before is untouched" 0 (Mem.read m (boundary - 2));
  check_int "the word after is untouched" 0 (Mem.read m (boundary + 1))

let test_mem_out_of_range () =
  let m = Mem.create () in
  let n = Mem.size m in
  Alcotest.check_raises "read -1" (Failure "memory read out of range: -1") (fun () ->
      ignore (Mem.read m (-1)));
  Alcotest.check_raises "read size" (Failure (Printf.sprintf "memory read out of range: %d" n))
    (fun () -> ignore (Mem.read m n));
  Alcotest.check_raises "write -1" (Failure "memory write out of range: -1") (fun () ->
      Mem.write m (-1) 1);
  Alcotest.check_raises "write size" (Failure (Printf.sprintf "memory write out of range: %d" n))
    (fun () -> Mem.write m n 1);
  check_int "last word is in range" 0 (Mem.read m (n - 1))

let test_mem_static_snapshot_across_pages () =
  let m = Mem.create () in
  let n = (2 * page) + 10 in
  let base = Mem.alloc_static m n in
  Alcotest.(check bool) "spans a page boundary" true ((base + n) / page > base / page);
  for i = 0 to n - 1 do
    Mem.write m (base + i) (i * 7)
  done;
  let mark = Mem.static_mark m in
  let snap = Mem.static_snapshot m in
  check_int "snapshot holds the live words" (Mem.static_used m) (Array.length snap);
  for i = 0 to n - 1 do
    Mem.write m (base + i) 1
  done;
  ignore (Mem.alloc_static m page);
  Mem.static_release m mark;
  Mem.static_restore m snap;
  check_int "allocation pointer restored" mark (Mem.static_mark m);
  for i = 0 to n - 1 do
    if Mem.read m (base + i) <> i * 7 then Alcotest.failf "word %d not restored" (base + i)
  done;
  (* restoring into a memory that never wrote those pages *)
  let fresh = Mem.create () in
  Mem.static_restore fresh snap;
  check_int "fresh allocation pointer" mark (Mem.static_mark fresh);
  check_int "fresh last word" ((n - 1) * 7) (Mem.read fresh (base + n - 1));
  check_int "fresh word past the snapshot" 0 (Mem.read fresh (base + n))

let test_mem_no_shared_pages () =
  let m1 = Mem.create () and m2 = Mem.create () in
  let a = Mem.stack_base m1 + 17 in
  Mem.write m1 a 42;
  check_int "the other memory still reads 0" 0 (Mem.read m2 a);
  Mem.write m2 a 43;
  check_int "first memory keeps its word" 42 (Mem.read m1 a);
  check_int "second memory has its own" 43 (Mem.read m2 a);
  check_int "a new memory starts clean" 0 (Mem.read (Mem.create ()) a)

(* CPU execution ------------------------------------------------------------ *)

let run_program ?(setup = fun _ -> ()) prog =
  let cpu = Cpu.create () in
  let image = Cpu.load cpu Asm.(List.map (fun i -> Instr i) prog @ [ Instr Isa.Halt ]) in
  setup cpu;
  Cpu.run cpu ~at:image.org;
  cpu

let test_cpu_arith () =
  let open Isa in
  let cpu =
    run_program
      [
        Mov (Reg 0, Imm 10);
        Mov (Reg 1, Imm 3);
        Bin (ADD, S, Reg rta, Reg 0, Reg 1);
        Bin (SUB, S, Reg rtb, Reg 0, Reg 1);
        Bin (MULT, S, Reg 2, Reg 2, Reg 0) (* 0 * 10 = 0 *);
        Bin (DIV Floor, S, Reg 3, Reg rta, Reg 1) (* 13/3 floor = 4 *);
      ]
  in
  check_int "add" 13 (Cpu.get_reg cpu Isa.rta);
  check_int "sub" 7 (Cpu.get_reg cpu Isa.rtb);
  check_int "mul" 0 (Cpu.get_reg cpu 2);
  check_int "div floor" 4 (Cpu.get_reg cpu 3)

let test_cpu_div_roundings () =
  let open Isa in
  let check_div rounding a b expect =
    let cpu =
      run_program
        [
          Mov (Reg 0, Imm (Word.of_int a));
          Mov (Reg 1, Imm (Word.of_int b));
          Bin (DIV rounding, S, Reg rta, Reg 0, Reg 1);
        ]
    in
    check_int
      (Printf.sprintf "%d/%d" a b)
      expect
      (Word.to_signed (Cpu.get_reg cpu Isa.rta))
  in
  check_div Floor 7 2 3;
  check_div Floor (-7) 2 (-4);
  check_div Ceiling 7 2 4;
  check_div Ceiling (-7) 2 (-3);
  check_div Truncate (-7) 2 (-3);
  check_div Round 7 2 4 (* ties to even: 3.5 -> 4 *);
  check_div Round 5 2 2 (* 2.5 -> 2 *)

let test_cpu_float () =
  let open Isa in
  let f = Float36.encode_single in
  let cpu =
    run_program
      [
        Mov (Reg 0, Imm (f 1.5));
        Mov (Reg 1, Imm (f 2.25));
        Bin (FADD, S, Reg rta, Reg 0, Reg 1);
        Bin (FMULT, S, Reg rtb, Reg 0, Reg 1);
        Un (FSQRT, S, Reg 2, Reg 1);
        Un (FSIN, S, Reg 3, Imm (f 0.25)) (* sin of a quarter cycle = 1 *);
      ]
  in
  check_float "fadd" 3.75 (Float36.decode_single (Cpu.get_reg cpu Isa.rta));
  check_float "fmult" 3.375 (Float36.decode_single (Cpu.get_reg cpu Isa.rtb));
  check_float "fsqrt" 1.5 (Float36.decode_single (Cpu.get_reg cpu 2));
  Alcotest.(check (float 1e-6)) "fsin cycles" 1.0 (Float36.decode_single (Cpu.get_reg cpu 3))

let test_cpu_jumps () =
  let open Isa in
  let cpu = Cpu.create () in
  let image =
    Cpu.load cpu
      Asm.
        [
          Label "START";
          Instr (Mov (Reg 0, Imm 0));
          Instr (Mov (Reg 1, Imm 10));
          Label "LOOP";
          Instr (Jmp (GEQ, Reg 0, Reg 1, L "OUT"));
          Instr (Bin (ADD, S, Reg 0, Reg 0, Imm 1));
          Instr (Jmpa (L "LOOP"));
          Label "OUT";
          Instr Halt;
        ]
  in
  Cpu.run cpu ~at:(Cpu.label_addr image "START");
  check_int "loop counted to 10" 10 (Cpu.get_reg cpu 0)

let test_cpu_memory_operands () =
  let open Isa in
  let cpu = Cpu.create () in
  let mem = cpu.Cpu.mem in
  let base = Mem.static_base mem + 100 in
  Mem.write mem base 111;
  Mem.write mem (base + 1) 222;
  let image =
    Cpu.load cpu
      Asm.
        [
          Label "GO";
          Instr (Mov (Reg 5, Imm base));
          Instr (Mov (Reg 0, Ind (5, 0)));
          Instr (Mov (Reg 1, Ind (5, 1)));
          (* deref through a tagged pointer in a register *)
          Instr (Mov (Reg 7, Imm (Word.make_ptr ~tag:(Tags.to_int Tags.Single_flonum) ~addr:base)));
          Instr (Mov (Reg 2, Defreg (7, 1)));
          Instr Halt;
        ]
  in
  Cpu.run cpu ~at:(Cpu.label_addr image "GO");
  check_int "ind 0" 111 (Cpu.get_reg cpu 0);
  check_int "ind 1" 222 (Cpu.get_reg cpu 1);
  check_int "defreg deref" 222 (Cpu.get_reg cpu 2)

let test_cpu_push_pop () =
  let open Isa in
  let cpu =
    run_program [ Push (Imm 5); Push (Imm 6); Pop (Reg 0); Pop (Reg 1) ]
  in
  check_int "pop order" 6 (Cpu.get_reg cpu 0);
  check_int "pop order 2" 5 (Cpu.get_reg cpu 1);
  Alcotest.(check bool) "stack high water" true (cpu.Cpu.stats.Cpu.stack_high >= 2)

let test_cpu_movp_and_tags () =
  let open Isa in
  let cpu = Cpu.create () in
  let mem = cpu.Cpu.mem in
  let base = Mem.static_base mem + 50 in
  Mem.write mem base 777;
  let image =
    Cpu.load cpu
      Asm.
        [
          Label "GO";
          Instr (Mov (Reg 5, Imm base));
          Instr (Movp (Tags.Single_flonum, Reg 0, Ind (5, 0)));
          Instr (Gettag (Reg 1, Reg 0));
          Instr (Getaddr (Reg 2, Reg 0));
          Instr (Mov (Reg 3, Defreg (0, 0)));
          Instr Halt;
        ]
  in
  Cpu.run cpu ~at:(Cpu.label_addr image "GO");
  check_int "tag" (Tags.to_int Tags.Single_flonum) (Cpu.get_reg cpu 1);
  check_int "addr" base (Cpu.get_reg cpu 2);
  check_int "deref" 777 (Cpu.get_reg cpu 3)

(* Calls -------------------------------------------------------------------- *)

(* Build a callable function word: a one-word code object whose payload is
   the raw entry address. *)
let make_fobj cpu entry =
  let a = Mem.alloc_static cpu.Cpu.mem 1 in
  Mem.write cpu.Cpu.mem a entry;
  Word.make_ptr ~tag:(Tags.to_int Tags.Code) ~addr:a


let test_cpu_call_ret () =
  let open Isa in
  let cpu = Cpu.create () in
  let image =
    Cpu.load cpu
      Asm.
        [
          (* double(x) = x + x, args are raw ints for this test *)
          Label "DOUBLE";
          Instr (Mov (Reg a, Ind (fp, -5))) (* arg 1 of a 1-arg frame: FP-5-1+1 *);
          Instr (Bin (ADD, S, Reg a, Reg a, Reg a));
          Instr Ret;
        ]
  in
  let entry = Cpu.label_addr image "DOUBLE" in
  let fobj = make_fobj cpu entry in
  let result = Cpu.call_function cpu ~fobj ~args:[ 21 ] in
  check_int "double(21)" 42 result;
  (* stack fully popped *)
  check_int "sp restored" (Mem.stack_base cpu.Cpu.mem) (Cpu.get_reg cpu sp)

let test_cpu_tail_call_constant_stack () =
  let open Isa in
  (* countdown(n) = if n = 0 then 0 else countdown(n-1), via TCALL *)
  let cpu = Cpu.create () in
  let image =
    Cpu.load cpu
      Asm.
        [
          Label "COUNTDOWN";
          Instr (Mov (Reg 0, Ind (fp, -5)));
          Instr (Jmpz (EQ, Reg 0, L "BASE"));
          Instr (Bin (SUB, S, Reg 0, Reg 0, Imm 1));
          Instr (Push (Reg 0));
          Instr (Tcall (Reg 9, 1));
          Label "BASE";
          Instr (Mov (Reg a, Imm 0));
          Instr Ret;
        ]
  in
  let entry = Cpu.label_addr image "COUNTDOWN" in
  let fobj = make_fobj cpu entry in
  Cpu.set_reg cpu 9 fobj;
  let result = Cpu.call_function cpu ~fobj ~args:[ 10000 ] in
  check_int "countdown result" 0 result;
  Alcotest.(check bool) "stack stayed O(1)" true (cpu.Cpu.stats.Cpu.stack_high < 32);
  check_int "10000 tail calls" 10000 cpu.Cpu.stats.Cpu.tcalls

let test_cpu_call_closure () =
  let open Isa in
  let cpu = Cpu.create () in
  let mem = cpu.Cpu.mem in
  let image =
    Cpu.load cpu
      Asm.
        [
          (* return the env word *)
          Label "GETENV";
          Instr (Mov (Reg a, Reg env));
          Instr Ret;
        ]
  in
  let entry = Cpu.label_addr image "GETENV" in
  (* Build a closure object in static space: [code-word, env-word]. *)
  let code_word = make_fobj cpu entry in
  let caddr = Mem.alloc_static mem 2 in
  Mem.write mem caddr code_word;
  Mem.write mem (caddr + 1) 424242;
  let fobj = Word.make_ptr ~tag:(Tags.to_int Tags.Closure) ~addr:caddr in
  let result = Cpu.call_function cpu ~fobj ~args:[] in
  check_int "closure env loaded" 424242 result

let test_cpu_stats_movs () =
  let open Isa in
  let cpu = run_program [ Mov (Reg 0, Imm 1); Mov (Reg 1, Imm 2); Nop ] in
  check_int "mov count" 2 cpu.Cpu.stats.Cpu.movs;
  Alcotest.(check bool) "cycles counted" true (cpu.Cpu.stats.Cpu.cycles > 0)

let test_cpu_vector () =
  let open Isa in
  let cpu = Cpu.create () in
  let mem = cpu.Cpu.mem in
  let va = Mem.alloc_static mem 3 and vb = Mem.alloc_static mem 3 in
  List.iteri (fun i f -> Mem.write mem (va + i) (Float36.encode_single f)) [ 1.0; 2.0; 3.0 ];
  List.iteri (fun i f -> Mem.write mem (vb + i) (Float36.encode_single f)) [ 4.0; 5.0; 6.0 ];
  let image =
    Cpu.load cpu
      Asm.
        [
          Label "GO";
          Instr (Vdot (Reg 0, Imm va, Imm vb, Imm 3));
          Instr Halt;
        ]
  in
  Cpu.run cpu ~at:(Cpu.label_addr image "GO");
  check_float "dot product" 32.0 (Float36.decode_single (Cpu.get_reg cpu 0))

(* Additional instruction coverage ---------------------------------------- *)

let test_cpu_datum_and_settag () =
  let open Isa in
  let fx n = Word.make_ptr ~tag:(Tags.to_int Tags.Fixnum) ~addr:(n land Word.addr_mask) in
  let cpu =
    run_program
      [
        Mov (Reg 0, Imm (fx (-42)));
        Un (DATUM, S, Reg 1, Reg 0) (* untag: sign-extended -42 *);
        Mov (Reg 2, Imm (Word.of_int 99));
        Settag (Tags.Fixnum, Reg 2) (* retag raw 99 as a fixnum *);
      ]
  in
  check_int "datum sign-extends" (-42) (Word.to_signed (Cpu.get_reg cpu 1));
  check_int "settag tag" (Tags.to_int Tags.Fixnum) (Word.tag_of (Cpu.get_reg cpu 2));
  check_int "settag datum" 99 (Word.datum_signed (Cpu.get_reg cpu 2))

let test_cpu_fix_float_conversions () =
  let open Isa in
  let f = Float36.encode_single in
  let cpu =
    run_program
      [
        Un (FLOAT, S, Reg 0, Imm (Word.of_int 7));
        Un (FIX Floor, S, Reg 1, Imm (f 2.9));
        Un (FIX Ceiling, S, Reg 2, Imm (f 2.1));
        Un (FIX Truncate, S, Reg 3, Imm (f (-2.9)));
        Un (FIX Round, S, Reg 5, Imm (f 2.5));
      ]
  in
  check_float "float" 7.0 (Float36.decode_single (Cpu.get_reg cpu 0));
  check_int "fix floor" 2 (Word.to_signed (Cpu.get_reg cpu 1));
  check_int "fix ceiling" 3 (Word.to_signed (Cpu.get_reg cpu 2));
  check_int "fix truncate" (-2) (Word.to_signed (Cpu.get_reg cpu 3));
  check_int "fix round ties-even" 2 (Word.to_signed (Cpu.get_reg cpu 5))

let test_cpu_double_width () =
  let open Isa in
  let cpu = Cpu.create () in
  let mem = cpu.Cpu.mem in
  let a = Mem.alloc_static mem 2 and b = Mem.alloc_static mem 2 and z = Mem.alloc_static mem 2 in
  let wr addr f =
    let hi, lo = Float36.encode_double f in
    Mem.write mem addr hi;
    Mem.write mem (addr + 1) lo
  in
  wr a 3.141592653589793;
  wr b 2.718281828459045;
  let image =
    Cpu.load cpu
      Asm.
        [
          Label "GO";
          Instr (Mov (Reg 10, Imm a));
          Instr (Mov (Reg 11, Imm b));
          Instr (Mov (Reg 12, Imm z));
          Instr (Bin (FMULT, D, Reg rta, Ind (10, 0), Ind (11, 0)));
          Instr (Mov (Ind (12, 0), Reg rta));
          Instr (Mov (Ind (12, 1), Reg (rta + 1)));
          Instr Halt;
        ]
  in
  Cpu.run cpu ~at:(Cpu.label_addr image "GO");
  Alcotest.(check (float 1e-12)) "double multiply"
    (3.141592653589793 *. 2.718281828459045)
    (Float36.decode_double (Mem.read mem z, Mem.read mem (z + 1)))

let test_cpu_mabs_and_jmptag () =
  let open Isa in
  let cpu = Cpu.create () in
  let mem = cpu.Cpu.mem in
  let cell = Mem.alloc_static mem 1 in
  Mem.write mem cell (Word.make_ptr ~tag:(Tags.to_int Tags.Symbol) ~addr:77);
  let image =
    Cpu.load cpu
      Asm.
        [
          Label "GO";
          Instr (Mov (Reg 0, Mabs cell));
          Instr (Jmptag (EQ, Reg 0, Tags.Symbol, L "YES"));
          Instr (Mov (Reg 1, Imm 0));
          Instr Halt;
          Label "YES";
          Instr (Mov (Reg 1, Imm 1));
          Instr Halt;
        ]
  in
  Cpu.run cpu ~at:(Cpu.label_addr image "GO");
  check_int "mabs read + tag dispatch" 1 (Cpu.get_reg cpu 1);
  (* Mabs is also writable *)
  let image2 =
    Cpu.load cpu Asm.[ Label "W"; Instr (Mov (Mabs cell, Imm 123)); Instr Halt ]
  in
  Cpu.run cpu ~at:(Cpu.label_addr image2 "W");
  check_int "mabs write" 123 (Mem.read mem cell)

let test_cpu_vadd () =
  let open Isa in
  let cpu = Cpu.create () in
  let mem = cpu.Cpu.mem in
  let va = Mem.alloc_static mem 4 and vb = Mem.alloc_static mem 4 and vz = Mem.alloc_static mem 4 in
  List.iteri (fun i f -> Mem.write mem (va + i) (Float36.encode_single f)) [ 1.; 2.; 3.; 4. ];
  List.iteri (fun i f -> Mem.write mem (vb + i) (Float36.encode_single f)) [ 10.; 20.; 30.; 40. ];
  let image =
    Cpu.load cpu
      Asm.[ Label "GO"; Instr (Vadd (Imm vz, Imm va, Imm vb, Imm 4)); Instr Halt ]
  in
  Cpu.run cpu ~at:(Cpu.label_addr image "GO");
  List.iteri
    (fun i expect ->
      check_float (Printf.sprintf "vadd[%d]" i) expect
        (Float36.decode_single (Mem.read mem (vz + i))))
    [ 11.; 22.; 33.; 44. ]

let test_cpu_stack_overflow_fault () =
  let open Isa in
  let cpu = Cpu.create () in
  let image =
    Cpu.load cpu
      Asm.[ Label "GO"; Label "LOOP"; Instr (Push (Imm 1)); Instr (Jmpa (L "LOOP")) ]
  in
  match Cpu.run cpu ~at:(Cpu.label_addr image "GO") with
  | exception Cpu.Trap { kind; message; _ } ->
      Alcotest.(check bool) "overflow kind" true (kind = Cpu.Control_stack_overflow);
      Alcotest.(check bool) "overflow reported" true
        (string_contains message "stack overflow")
  | () -> Alcotest.fail "expected stack overflow fault"

let test_instruction_metrics () =
  let open Isa in
  (* sizes: 1-3 words; complex operands cost extension words *)
  Alcotest.(check int) "reg-reg mov is 1 word" 1 (words (Mov (Reg 0, Reg 1)));
  Alcotest.(check bool) "big immediate takes a word" true
    (words (Mov (Reg 0, Imm 100000)) >= 2);
  Alcotest.(check bool) "indexed operands cost more" true
    (words (Bin (FADD, S, Reg rta, Idx { base = 1; disp = 0; index = 2; shift = 0 },
                 Idx { base = 3; disp = 0; index = 4; shift = 0 }))
     = 3);
  Alcotest.(check bool) "fsin slower than fadd" true
    (base_cycles (Un (FSIN, S, Reg 0, Reg 0)) > base_cycles (Bin (FADD, S, Reg 0, Reg 0, Reg 1)));
  Alcotest.(check bool) "div slower than mult" true
    (base_cycles (Bin (DIV Floor, S, Reg 0, Reg 0, Reg 1))
     > base_cycles (Bin (MULT, S, Reg 0, Reg 0, Reg 1)))

let test_asm_listing_format () =
  let open Isa in
  let prog =
    Asm.
      [
        Label "L1";
        Comment "a comment";
        Instr (Bin (FADD, S, Reg rta, Defind (fp, -96, 0), Defind (fp, -100, 0)));
        Instr (Movp (Tags.Single_flonum, Reg 20, Ind (tp, 1)));
      ]
  in
  let text = Asm.listing prog in
  Alcotest.(check bool) "paper-style FADD" true
    (string_contains text "((FADD S) RTA (REF (FP -96) 0) (REF (FP -100) 0))");
  Alcotest.(check bool) "paper-style MOVP" true
    (string_contains text "((MOVP *:DTP-SINGLE-FLONUM) A (TP 1))");
  Alcotest.(check bool) "comment rendered" true (string_contains text ";a comment")

(* Simulator parity ------------------------------------------------------------ *)

(* The expected values below were pinned on the per-instruction
   interpreter that the decoded simulator replaced.  Every statistics
   field, result and trap must stay identical, with and without the
   per-PC profiler and the call-path profiler attached. *)

module C = S1_core.Compiler
module Rt = S1_runtime.Rt
module Prng = S1_fuzz.Prng

let stats_line (s : Cpu.stats) =
  Printf.sprintf "cyc=%d ins=%d mov=%d mem=%d call=%d tcall=%d svc=%d stk=%d bind=%d" s.cycles
    s.instructions s.movs s.mem_traffic s.calls s.tcalls s.svcs s.stack_high s.bind_high

let trap_line = function
  | Cpu.Trap { kind; pc; message; _ } ->
      Some (Printf.sprintf "trap %s pc %d: %s" (Cpu.trap_kind_name kind) pc message)
  | _ -> None

let instrument cpu =
  Cpu.enable_profile cpu;
  Cpu.enable_callgraph cpu

(* One fresh world evaluating [src]: statistics since boot, then the
   printed value or the failure; instrumented, also the profile report
   and the folded call-path stacks. *)
let world_run ~instrumented ?file src =
  let c = C.create () in
  let cpu = c.C.rt.Rt.cpu in
  if instrumented then instrument cpu;
  c.C.rt.Rt.fuel <- Some S1_fuzz.Oracle.fuzz_fuel;
  let result =
    match C.eval_string ?file c src with
    | w -> Rt.print_value c.C.rt w
    | exception e -> (
        match (trap_line e, e) with
        | Some t, _ -> t
        | None, Rt.Lisp_error m -> "error: " ^ m
        | None, e -> "exception: " ^ Printexc.to_string e)
  in
  ( stats_line cpu.Cpu.stats ^ " => " ^ result,
    Format.asprintf "%a" Cpu.pp_profile cpu ^ Cpu.render_folded cpu )

let world_outcome ~instrumented ?file src = fst (world_run ~instrumented ?file src)

let corpus_dir = if Sys.file_exists "corpus" then "corpus" else "test/corpus"

let corpus_pins =
  [
    ( "assoc-reorder-setq.lisp",
      "cyc=121 ins=41 mov=17 mem=10 call=2 tcall=1 svc=4 stk=17 bind=0 => 997003000" );
    ( "catch-fixnum-decl.lisp",
      "cyc=74 ins=21 mov=9 mem=2 call=1 tcall=0 svc=4 stk=6 bind=0 => -50" );
    ( "catch-throw-typed.lisp",
      "cyc=366 ins=95 mov=41 mem=14 call=3 tcall=0 svc=20 stk=14 bind=0 => 24" );
    ( "catch-unwind.lisp",
      "cyc=357 ins=113 mov=46 mem=20 call=7 tcall=0 svc=13 stk=26 bind=0 => 109" );
    ( "chaos-bind-depth.lisp",
      "cyc=19380 ins=5360 mov=2021 mem=1011 call=204 tcall=0 svc=906 stk=819 bind=200 => 5051" );
    ( "chaos-heap-churn.lisp",
      "cyc=1595483 ins=514629 mov=205409 mem=184407 call=401 tcall=20201 svc=71803 stk=21 bind=0 => 10000" );
    ( "chaos-rollback-equivalence.lisp",
      "cyc=312 ins=85 mov=36 mem=4 call=3 tcall=0 svc=16 stk=13 bind=0 => 0" );
    ( "closure-capture.lisp",
      "cyc=135 ins=43 mov=23 mem=12 call=2 tcall=0 svc=6 stk=14 bind=0 => 53" );
    ( "defmacro-warm-expand.lisp",
      "cyc=160 ins=55 mov=17 mem=10 call=3 tcall=3 svc=5 stk=10 bind=0 => 42" );
    ( "float-reassociation.lisp",
      "cyc=111 ins=27 mov=15 mem=0 call=1 tcall=0 svc=7 stk=5 bind=0 => -41769299.5" );
    ( "float-zero-sign.lisp",
      "cyc=87 ins=22 mov=9 mem=1 call=2 tcall=0 svc=4 stk=11 bind=0 => 0.0" );
    ( "flonum-contagion.lisp",
      "cyc=266 ins=75 mov=29 mem=16 call=3 tcall=0 svc=12 stk=24 bind=0 => 100.875" );
    ( "funcall-loop-counter.lisp",
      "cyc=458 ins=155 mov=87 mem=60 call=4 tcall=0 svc=21 stk=17 bind=0 => 8" );
    ( "if-of-if.lisp",
      "cyc=71 ins=26 mov=12 mem=7 call=1 tcall=0 svc=3 stk=8 bind=0 => 10" );
    ( "lambda-beta.lisp",
      "cyc=14 ins=7 mov=2 mem=0 call=1 tcall=0 svc=0 stk=5 bind=0 => -4.5" );
    ( "noinline-float-prim.lisp",
      "cyc=48 ins=16 mov=6 mem=1 call=1 tcall=0 svc=2 stk=6 bind=0 => -21.5" );
    ( "nontail-recursion.lisp",
      "cyc=1288 ins=356 mov=161 mem=46 call=7 tcall=1 svc=70 stk=49 bind=0 => 36" );
    ( "remarks-demo.lisp",
      "cyc=311 ins=104 mov=48 mem=36 call=4 tcall=1 svc=11 stk=22 bind=0 => (4.0 8 . 4)" );
    ( "special-rebind.lisp",
      "cyc=199 ins=65 mov=27 mem=10 call=3 tcall=1 svc=8 stk=11 bind=2 => 111" );
    ( "tail-recursion.lisp",
      "cyc=13199 ins=3733 mov=1411 mem=907 call=1 tcall=101 svc=704 stk=11 bind=0 => 5050" );
  ]

let test_parity_corpus () =
  let files =
    Sys.readdir corpus_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".lisp")
    |> List.sort compare
  in
  Alcotest.(check (list string)) "corpus files pinned" (List.map fst corpus_pins) files;
  let profiles =
    List.map
      (fun (file, want) ->
        let src = In_channel.with_open_text (Filename.concat corpus_dir file) In_channel.input_all in
        (* located by bare file name: the profile's source-line table
           must not depend on the working directory *)
        Alcotest.(check string) (file ^ " plain") want (world_outcome ~instrumented:false ~file src);
        let profiled, profile = world_run ~instrumented:true ~file src in
        Alcotest.(check string) (file ^ " profiled") want profiled;
        profile)
      corpus_pins
  in
  Alcotest.(check string) "corpus profiles and folded stacks digest"
    "ba9385029cc7fed644d898cf56d4afaf"
    (Digest.to_hex (Digest.string (String.concat "\n" profiles)))

let test_parity_genprog () =
  let lines =
    List.init 200 (fun i ->
        let p = S1_fuzz.Genprog.generate ~seed:(1000 + i) in
        let src = S1_fuzz.Genprog.render p in
        let plain = world_outcome ~instrumented:false src in
        Alcotest.(check string)
          (Printf.sprintf "genprog seed %d profiled" p.S1_fuzz.Genprog.pr_seed)
          plain
          (world_outcome ~instrumented:true src);
        plain)
  in
  let total_cycles =
    List.fold_left
      (fun acc l -> acc + Scanf.sscanf l "cyc=%d" Fun.id)
      0 lines
  in
  check_int "genprog total cycles" 118170 total_cycles;
  Alcotest.(check string) "genprog outcome digest" "9d174e1e606363e56329e1888836696c"
    (Digest.to_hex (Digest.string (String.concat "\n" lines)))

(* Hand-assembled straight-line programs over every instruction and
   operand shape, with forward jumps only so each terminates.  Memory
   operands address a small static block (some wander outside it and
   trap), so partial-instruction traps are exercised too. *)
let isa_fuzz_program r ~block ~svc =
  let open Isa in
  let n = Prng.range r 4 24 in
  let scratch = [ 0; 1; 2; 3; 5; 7; rta; rtb ] in
  let reg () = Prng.choose r scratch in
  let tag () = Prng.choose r Tags.[ Fixnum; Single_flonum; List; Symbol; Code; Char ] in
  let mem_operand () =
    match Prng.int r 6 with
    | 0 -> Mabs (block + Prng.int r 16)
    | 1 -> Ind (8, Prng.range r (-2) 18)
    | 2 -> Idx { base = 8; disp = Prng.int r 8; index = 9; shift = Prng.int r 2 }
    | 3 -> Defind (8, Prng.int r 16, Prng.range r (-1) 3)
    | 4 -> Defreg (10, Prng.int r 8)
    | _ -> Ind (8, if Prng.chance r 1 8 then 1_000_000_000 else Prng.int r 16)
  in
  let src () =
    match Prng.int r 5 with
    | 0 | 1 -> Reg (reg ())
    | 2 -> Imm (Word.of_int (Prng.range r (-3000) 3000))
    | 3 -> Imm (Float36.encode_single (float_of_int (Prng.range r (-40) 40) /. 4.0))
    | _ -> mem_operand ()
  in
  let dst () = if Prng.bool r then Reg (reg ()) else mem_operand () in
  let target i = L (Printf.sprintf "T%d" (Prng.range r (i + 1) n)) in
  let cond () = Prng.choose r [ EQ; NEQ; LSS; LEQ; GTR; GEQ ] in
  let rounding () = Prng.choose r [ Floor; Ceiling; Truncate; Round ] in
  let binop () =
    Prng.choose r
      [ ADD; SUB; MULT; DIV (rounding ()); MOD; REM; AND; OR; XOR; ASH; FADD; FSUB; FMULT;
        FDIV; FMAX; FMIN; FATAN ]
  in
  let unop () =
    Prng.choose r [ NEG; NOT; FNEG; FABS; FSQRT; FSIN; FCOS; FEXP; FLOG; FLOAT; FIX (rounding ()); DATUM ]
  in
  let width () = if Prng.chance r 1 6 then D else S in
  let instr i =
    match Prng.int r 22 with
    | 0 | 1 -> Mov (dst (), src ())
    | 2 -> Movp (tag (), dst (), mem_operand ())
    | 3 -> Gettag (dst (), src ())
    | 4 -> Getaddr (dst (), src ())
    | 5 -> Settag (tag (), dst ())
    | 6 | 7 ->
        let d = dst () in
        if Prng.bool r then Bin (binop (), width (), d, d, src ())
        else Bin (binop (), width (), Reg (if Prng.bool r then rta else rtb), src (), src ())
    | 8 -> Un (unop (), width (), dst (), src ())
    | 9 -> Jmp (cond (), src (), src (), target i)
    | 10 -> Fjmp (cond (), src (), src (), target i)
    | 11 -> Jmpz (cond (), src (), target i)
    | 12 -> Jmptag (cond (), src (), tag (), target i)
    | 13 -> Jmpa (target i)
    | 14 -> Jsp (reg (), target i)
    | 15 -> Push (src ())
    | 16 -> Pop (dst ())
    | 17 -> Allocs (src (), Prng.int r 3)
    | 18 -> Svc svc
    | 19 -> Vdot (dst (), Imm block, Imm (block + 4), Imm (Prng.int r 4))
    | 20 -> Vadd (Imm (block + 8), Imm block, Imm (block + 4), Imm (Prng.int r 4))
    | _ -> Nop
  in
  List.concat
    (List.init n (fun i -> Asm.[ Label (Printf.sprintf "T%d" i); Instr (instr i) ]))
  @ Asm.[ Label (Printf.sprintf "T%d" n); Instr Halt ]

let isa_fuzz_outcome ~instrumented seed =
  let r = Prng.create seed in
  let cpu = Cpu.create () in
  if instrumented then instrument cpu;
  let mem = cpu.Cpu.mem in
  let block = Mem.alloc_static mem 24 in
  for i = 0 to 23 do
    Mem.write mem (block + i)
      (if i < 12 then Float36.encode_single (float_of_int (i + 1) /. 2.0) else block + (i mod 8))
  done;
  let svc = Isa.register_svc "*:SQ-PARITY-PROBE" in
  cpu.Cpu.service <- (fun c _ -> Cpu.set_reg c 0 (Cpu.get_reg c 0 + 1));
  let outcome =
    match Cpu.load cpu (isa_fuzz_program r ~block ~svc) with
    | exception Asm.Asm_error _ -> "rejected by the assembler"
    | image -> (
        List.iteri (fun i r -> Cpu.set_reg cpu r (Prng.range (Prng.create (seed + i)) (-50) 50))
          [ 0; 1; 2; 3; 5; 7; Isa.rta; Isa.rtb ];
        Cpu.set_reg cpu 8 block;
        Cpu.set_reg cpu 9 (Prng.int r 4);
        Cpu.set_reg cpu 10 (Word.make_ptr ~tag:(Tags.to_int Tags.List) ~addr:block);
        match Cpu.run cpu ~at:image.Asm.org with
        | () -> "halted"
        | exception e -> Option.value ~default:(Printexc.to_string e) (trap_line e))
  in
  let regs = String.concat " " (List.init Isa.nregs (fun i -> string_of_int (Cpu.get_reg cpu i))) in
  let words = String.concat " " (List.init 24 (fun i -> string_of_int (Mem.read mem (block + i)))) in
  String.concat " | " [ stats_line cpu.Cpu.stats; outcome; regs; words ]

let test_parity_isa_fuzz () =
  let lines =
    List.init 600 (fun seed ->
        let plain = isa_fuzz_outcome ~instrumented:false seed in
        Alcotest.(check string)
          (Printf.sprintf "isa program %d profiled" seed)
          plain
          (isa_fuzz_outcome ~instrumented:true seed);
        plain)
  in
  let count p = List.length (List.filter p lines) in
  let has s l = string_contains l s in
  check_int "halted" 294 (count (has "| halted |"));
  check_int "trapped" 306 (count (has "| trap "));
  Alcotest.(check string) "isa outcome digest" "5a685a8f7cc31ddaff1812781efcfeb5"
    (Digest.to_hex (Digest.string (String.concat "\n" lines)))

(* Releasing code to a mark must drop what was decoded past it: B,
   loaded where A was, runs as B. *)
let test_parity_code_release () =
  let open Isa in
  let cpu = Cpu.create () in
  let mark = Cpu.code_mark cpu in
  let img_a =
    Cpu.load cpu Asm.[ Instr (Mov (Reg a, Imm 1)); Instr (Mov (Reg 1, Imm 10)); Instr Halt ]
  in
  Cpu.run cpu ~at:img_a.Asm.org;
  check_int "A's result" 1 (Cpu.get_reg cpu a);
  Cpu.code_release cpu mark;
  let img_b = Cpu.load cpu Asm.[ Instr (Mov (Reg a, Imm 2)); Instr Halt ] in
  check_int "B loads at A's origin" img_a.Asm.org img_b.Asm.org;
  Cpu.run cpu ~at:img_b.Asm.org;
  check_int "B's result" 2 (Cpu.get_reg cpu a);
  check_int "A's second instruction did not run" 10 (Cpu.get_reg cpu 1);
  match Cpu.run cpu ~at:(img_a.Asm.org + 2) with
  | () -> Alcotest.fail "expected a trap past the released mark"
  | exception e ->
      Alcotest.(check (option string)) "released pc traps"
        (Some (Printf.sprintf "trap bad-address pc %d: pc out of code range" (img_a.Asm.org + 2)))
        (trap_line e)

(* A service that loads and runs more code than the store holds, in a
   nested run, while the outer run is mid-program: the outer run
   continues with the grown store. *)
let test_parity_nested_load () =
  let open Isa in
  let cpu = Cpu.create () in
  let svc = Isa.register_svc "*:SQ-PARITY-NESTED-LOAD" in
  cpu.Cpu.service <-
    (fun c _ ->
      let saved = c.Cpu.pc in
      let body = List.init 3000 (fun _ -> Asm.Instr (Bin (ADD, S, Reg 1, Reg 1, Imm 1))) in
      let img = Cpu.load c (body @ [ Asm.Instr Halt ]) in
      Cpu.run c ~at:img.Asm.org;
      c.Cpu.pc <- saved;
      c.Cpu.halted <- false);
  let img =
    Cpu.load cpu
      Asm.[ Instr (Mov (Reg 1, Imm 0)); Instr (Svc svc); Instr (Bin (ADD, S, Reg 1, Reg 1, Imm 5)); Instr Halt ]
  in
  Cpu.run cpu ~at:img.Asm.org;
  check_int "nested and outer code both ran" 3005 (Cpu.get_reg cpu 1);
  Alcotest.(check string) "stats" "cyc=3016 ins=3005 mov=1 mem=0 call=0 tcall=0 svc=1 stk=0 bind=0"
    (stats_line cpu.Cpu.stats)

(* Traps part-way through an instruction keep the statistics the
   instruction had charged when it faulted. *)
let test_parity_partial_traps () =
  let open Isa in
  let far = 1_000_000_000 in
  let run_one instr =
    let cpu = Cpu.create () in
    let block = Mem.alloc_static cpu.Cpu.mem 4 in
    Cpu.set_reg cpu 8 block;
    (* planted after assembly, which would reject the malformed ones *)
    let img = Cpu.load cpu Asm.[ Instr Nop; Instr Halt ] in
    cpu.Cpu.code.(img.Asm.org) <- instr;
    let outcome =
      match Cpu.run cpu ~at:img.Asm.org with
      | () -> "halted"
      | exception e -> Option.value ~default:(Printexc.to_string e) (trap_line e)
    in
    stats_line cpu.Cpu.stats ^ " => " ^ outcome
  in
  List.iter
    (fun (what, instr, want) -> Alcotest.(check string) what want (run_one instr))
    [
      ("second source", Bin (ADD, S, Reg rta, Ind (8, 0), Ind (8, far)),
        "cyc=1 ins=1 mov=0 mem=2 call=0 tcall=0 svc=0 stk=0 bind=0 => trap bad-address pc 1: memory read out of range: 1000000064" );
      ("destination", Mov (Ind (8, far), Ind (8, 0)),
        "cyc=1 ins=1 mov=1 mem=2 call=0 tcall=0 svc=0 stk=0 bind=0 => trap bad-address pc 1: memory write out of range: 1000000064" );
      ("unwritable destination", Mov (Imm 3, Ind (8, 0)),
        "cyc=1 ins=1 mov=1 mem=1 call=0 tcall=0 svc=0 stk=0 bind=0 => trap illegal-instruction pc 1: store to non-writable operand" );
      ("push", Push (Ind (8, far)),
        "cyc=2 ins=1 mov=0 mem=1 call=0 tcall=0 svc=0 stk=0 bind=0 => trap bad-address pc 1: memory read out of range: 1000000064" );
      ("unresolved data label", Mov (Reg 0, Dlab ("D", 1)),
        "cyc=1 ins=1 mov=1 mem=1 call=0 tcall=0 svc=0 stk=0 bind=0 => trap illegal-instruction pc 1: unresolved label operand" );
      ("store to a label", Gettag (Lab "L", Reg 0),
        "cyc=1 ins=1 mov=0 mem=0 call=0 tcall=0 svc=0 stk=0 bind=0 => trap illegal-instruction pc 1: store to non-writable operand" );
      ("no effective address", Movp (Tags.List, Reg 0, Reg 1),
        "cyc=1 ins=1 mov=0 mem=0 call=0 tcall=0 svc=0 stk=0 bind=0 => trap illegal-instruction pc 1: operand has no effective address" );
    ];
  (* the assembler resolves every label, so plant an unresolved one *)
  let cpu = Cpu.create () in
  let img = Cpu.load cpu Asm.[ Instr Nop; Instr Nop; Instr Halt ] in
  cpu.Cpu.code.(img.Asm.org + 1) <- Jmpz (EQ, Reg 0, L "NOWHERE");
  let outcome =
    match Cpu.run cpu ~at:img.Asm.org with
    | () -> "halted"
    | exception e -> Option.value ~default:(Printexc.to_string e) (trap_line e)
  in
  Alcotest.(check string) "unresolved label"
    "cyc=3 ins=2 mov=0 mem=0 call=0 tcall=0 svc=0 stk=0 bind=0 => trap illegal-instruction pc 2: unresolved target NOWHERE"
    (stats_line cpu.Cpu.stats ^ " => " ^ outcome);
  let before = stats_line cpu.Cpu.stats in
  (match Cpu.run cpu ~at:cpu.Cpu.code_len with
  | () -> Alcotest.fail "expected a trap"
  | exception e ->
      Alcotest.(check (option string)) "pc out of range"
        (Some (Printf.sprintf "trap bad-address pc %d: pc out of code range" cpu.Cpu.code_len))
        (trap_line e));
  Alcotest.(check string) "pc out of range charges nothing" before (stats_line cpu.Cpu.stats)

let () =
  Alcotest.run "machine"
    [
      ( "word",
        [
          Alcotest.test_case "wraparound" `Quick test_word_wrap;
          Alcotest.test_case "tags" `Quick test_word_tags;
          Alcotest.test_case "shift" `Quick test_word_shift;
          QCheck_alcotest.to_alcotest prop_word_roundtrip;
        ] );
      ( "float36",
        [
          Alcotest.test_case "exact values" `Quick test_float36_exact;
          Alcotest.test_case "rounding" `Quick test_float36_rounding;
          Alcotest.test_case "specials" `Quick test_float36_specials;
          Alcotest.test_case "double" `Quick test_float36_double;
          QCheck_alcotest.to_alcotest prop_float36_monotone;
          QCheck_alcotest.to_alcotest prop_float36_relative_error;
        ] );
      ( "asm",
        [
          Alcotest.test_case "labels" `Quick test_asm_labels;
          Alcotest.test_case "undefined label" `Quick test_asm_undefined_label;
          Alcotest.test_case "2.5-address discipline" `Quick test_asm_validates_25_address;
          Alcotest.test_case "data blocks" `Quick test_asm_data_blocks;
        ] );
      ( "mem",
        [
          Alcotest.test_case "size and zeros" `Quick test_mem_size_and_zeros;
          Alcotest.test_case "write zero to untouched page" `Quick test_mem_write_zero_untouched;
          Alcotest.test_case "masking across pages" `Quick test_mem_mask_across_pages;
          Alcotest.test_case "out of range" `Quick test_mem_out_of_range;
          Alcotest.test_case "static snapshot across pages" `Quick
            test_mem_static_snapshot_across_pages;
          Alcotest.test_case "no shared pages" `Quick test_mem_no_shared_pages;
        ] );
      ( "cpu",
        [
          Alcotest.test_case "arithmetic" `Quick test_cpu_arith;
          Alcotest.test_case "division roundings" `Quick test_cpu_div_roundings;
          Alcotest.test_case "floating point" `Quick test_cpu_float;
          Alcotest.test_case "jumps" `Quick test_cpu_jumps;
          Alcotest.test_case "memory operands" `Quick test_cpu_memory_operands;
          Alcotest.test_case "push/pop" `Quick test_cpu_push_pop;
          Alcotest.test_case "movp and tags" `Quick test_cpu_movp_and_tags;
          Alcotest.test_case "call/ret" `Quick test_cpu_call_ret;
          Alcotest.test_case "tail call constant stack" `Quick test_cpu_tail_call_constant_stack;
          Alcotest.test_case "closure call" `Quick test_cpu_call_closure;
          Alcotest.test_case "stats" `Quick test_cpu_stats_movs;
          Alcotest.test_case "vector dot" `Quick test_cpu_vector;
          Alcotest.test_case "datum and settag" `Quick test_cpu_datum_and_settag;
          Alcotest.test_case "fix/float conversions" `Quick test_cpu_fix_float_conversions;
          Alcotest.test_case "double width" `Quick test_cpu_double_width;
          Alcotest.test_case "mabs and jmptag" `Quick test_cpu_mabs_and_jmptag;
          Alcotest.test_case "vadd" `Quick test_cpu_vadd;
          Alcotest.test_case "stack overflow fault" `Quick test_cpu_stack_overflow_fault;
          Alcotest.test_case "instruction metrics" `Quick test_instruction_metrics;
          Alcotest.test_case "listing format" `Quick test_asm_listing_format;
        ] );
      ( "parity",
        [
          Alcotest.test_case "corpus" `Quick test_parity_corpus;
          Alcotest.test_case "genprog" `Quick test_parity_genprog;
          Alcotest.test_case "isa fuzz" `Quick test_parity_isa_fuzz;
          Alcotest.test_case "code release" `Quick test_parity_code_release;
          Alcotest.test_case "nested load" `Quick test_parity_nested_load;
          Alcotest.test_case "partial traps" `Quick test_parity_partial_traps;
        ] );
    ]