(** gabriel_sim: precompiled Gabriel-style kernels called directly.

    Set-up boots one world, compiles every kernel and one nullary entry
    function per call into it, and runs each call once against its
    expected value.  A unit is one [Rt.call] of an entry function: no
    boot, no compile, no serve — nearly all of its time is the
    simulator's fetch-decode-execute loop.

    Each kernel is called at fifteen argument sizes, a ladder from about
    60 000 to 500 000 simulated instructions, so that a pass has 105
    distinct units and its p90 has ten units beyond it (NOTES.md). *)

module C = S1_core.Compiler
module Rt = S1_runtime.Rt
module Cpu = S1_machine.Cpu

type kernel = {
  k_name : string;
  k_source : string;  (** the kernel's definitions *)
  k_calls : (string * string) list;
      (** the calls, smallest first, each with its printed value, computed
          once with the reference interpreter ([s1bench --expected]) and
          written down here *)
}

let kernels =
  [
    {
      k_name = "tak";
      k_source =
        "(defun tak (x y z)\n\
        \  (if (not (< y x)) z\n\
        \      (tak (tak (1- x) y z) (tak (1- y) z x) (tak (1- z) x y))))";
      k_calls =
        [
          ("(tak 12 3 0)", "3"); ("(tak 13 4 1)", "4"); ("(tak 8 5 0)", "5");
          ("(tak 13 3 0)", "1"); ("(tak 10 4 0)", "1"); ("(tak 15 3 0)", "1");
          ("(tak 16 3 0)", "3"); ("(tak 11 4 0)", "4"); ("(tak 17 3 0)", "1");
          ("(tak 12 4 0)", "1"); ("(tak 10 5 0)", "5"); ("(tak 13 4 0)", "4");
          ("(tak 9 8 0)", "8"); ("(tak 14 4 0)", "1"); ("(tak 15 4 0)", "4");
        ];
    };
    {
      (* TAK through CATCH/THROW: catch frames and unwinding *)
      k_name = "ctak";
      k_source =
        "(defun ctak (x y z) (catch 'ctak (ctak-aux x y z)))\n\
         (defun ctak-aux (x y z)\n\
        \  (if (not (< y x)) (throw 'ctak z)\n\
        \      (ctak-aux (catch 'ctak (ctak-aux (1- x) y z))\n\
        \                (catch 'ctak (ctak-aux (1- y) z x))\n\
        \                (catch 'ctak (ctak-aux (1- z) x y)))))";
      k_calls =
        [
          ("(ctak 11 3 0)", "1"); ("(ctak 12 3 0)", "3"); ("(ctak 8 5 0)", "5");
          ("(ctak 13 3 0)", "1"); ("(ctak 14 3 0)", "3"); ("(ctak 8 6 0)", "1");
          ("(ctak 16 3 0)", "3"); ("(ctak 11 4 0)", "4"); ("(ctak 17 3 0)", "1");
          ("(ctak 18 3 0)", "3"); ("(ctak 19 3 0)", "1"); ("(ctak 13 4 0)", "4");
          ("(ctak 9 8 0)", "8"); ("(ctak 9 7 0)", "1"); ("(ctak 11 5 0)", "1");
        ];
    };
    {
      (* Gabriel's TAKL: TAK with lists for counters — CAR/CDR/NULL and
         conses instead of fixnum arithmetic *)
      k_name = "takl";
      k_source =
        "(defun listn (n) (if (not (= 0 n)) (cons n (listn (1- n)))))\n\
         (defun shorterp (x y) (and y (or (null x) (shorterp (cdr x) (cdr y)))))\n\
         (defun mas (x y z)\n\
        \  (if (not (shorterp y x)) z\n\
        \      (mas (mas (cdr x) y z) (mas (cdr y) z x) (mas (cdr z) x y))))\n\
         (defun takl (x y z) (length (mas (listn x) (listn y) (listn z))))";
      k_calls =
        [
          ("(takl 9 5 2)", "3"); ("(takl 15 7 5)", "6"); ("(takl 15 4 2)", "4");
          ("(takl 13 12 7)", "12"); ("(takl 10 4 1)", "2"); ("(takl 11 5 2)", "3");
          ("(takl 11 4 1)", "4"); ("(takl 16 11 8)", "11"); ("(takl 10 8 3)", "4");
          ("(takl 13 5 2)", "3"); ("(takl 13 12 6)", "12"); ("(takl 9 6 1)", "6");
          ("(takl 15 11 7)", "8"); ("(takl 11 5 1)", "2"); ("(takl 9 5 0)", "1");
        ];
    };
    {
      k_name = "fib";
      k_source = "(defun fib (n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))";
      k_calls =
        [
          ("(+ (fib 15) (fib 11))", "699"); ("(+ (fib 15) (fib 13))", "843");
          ("(+ (fib 15) (fib 14))", "987"); ("(+ (fib 16) (fib 12))", "1131");
          ("(+ (fib 16) (fib 14))", "1364"); ("(+ (fib 16) (fib 15))", "1597");
          ("(+ (fib 17) (fib 12))", "1741"); ("(+ (fib 17) (fib 14))", "1974");
          ("(+ (fib 17) (fib 16))", "2584"); ("(+ (fib 18) (fib 13))", "2817");
          ("(+ (fib 18) (fib 15))", "3194"); ("(+ (fib 18) (fib 16))", "3571");
          ("(+ (fib 19) (fib 13))", "4414"); ("(+ (fib 19) (fib 16))", "5168");
          ("(+ (fib 19) (fib 17))", "5778");
        ];
    };
    {
      (* X3's declared float loop *)
      k_name = "fsum";
      k_source =
        "(defun fsum (n acc) (declare (single-float acc))\n\
        \  (if (zerop n) acc (fsum (1- n) (+$f 0.25 (*$f 0.5 (+$f 0.125 (*$f acc 0.99)))))))";
      k_calls =
        [
          ("(fsum 2000 0.0)", "0.618811876"); ("(fsum 2327 0.0)", "0.618811876");
          ("(fsum 2708 0.0)", "0.618811876"); ("(fsum 3150 0.0)", "0.618811876");
          ("(fsum 3665 0.0)", "0.618811876"); ("(fsum 4265 0.0)", "0.618811876");
          ("(fsum 4962 0.0)", "0.618811876"); ("(fsum 5774 0.0)", "0.618811876");
          ("(fsum 6718 0.0)", "0.618811876"); ("(fsum 7816 0.0)", "0.618811876");
          ("(fsum 9094 0.0)", "0.618811876"); ("(fsum 10581 0.0)", "0.618811876");
          ("(fsum 12311 0.0)", "0.618811876"); ("(fsum 14324 0.0)", "0.618811876");
          ("(fsum 16667 0.0)", "0.618811876");
        ];
    };
    {
      (* X9's closure churn: one closure and heap environment per iteration *)
      k_name = "churn";
      k_source =
        "(defun make-adder (n) (lambda (x) (+ x n)))\n\
         (defun churn (k acc) (if (zerop k) acc (churn (1- k) (+ acc (funcall (make-adder k) k)))))";
      k_calls =
        [
          ("(churn 984 0)", "969240"); ("(churn 1144 0)", "1309880");
          ("(churn 1332 0)", "1775556"); ("(churn 1549 0)", "2400950");
          ("(churn 1803 0)", "3252612"); ("(churn 2097 0)", "4399506");
          ("(churn 2440 0)", "5956040"); ("(churn 2839 0)", "8062760");
          ("(churn 3304 0)", "10919720"); ("(churn 3844 0)", "14780180");
          ("(churn 4472 0)", "20003256"); ("(churn 5204 0)", "27086820");
          ("(churn 6055 0)", "36669080"); ("(churn 7045 0)", "49639070");
          ("(churn 8197 0)", "67199006");
        ];
    };
    {
      (* X7's specials spin: six special reads per iteration *)
      k_name = "spin";
      k_source =
        "(defvar *a* 1) (defvar *b* 2) (defvar *c* 3)\n\
         (defun spin (n acc)\n\
        \  (if (zerop n) acc\n\
        \      (spin (1- n)\n\
        \            (+ acc (+ *a* (+ *b* (+ *c* (+ *a* (+ *b* *c*)))))))))";
      k_calls =
        [
          ("(spin 845 0)", "10140"); ("(spin 983 0)", "11796"); ("(spin 1144 0)", "13728");
          ("(spin 1331 0)", "15972"); ("(spin 1549 0)", "18588"); ("(spin 1802 0)", "21624");
          ("(spin 2097 0)", "25164"); ("(spin 2440 0)", "29280"); ("(spin 2838 0)", "34056");
          ("(spin 3303 0)", "39636"); ("(spin 3843 0)", "46116"); ("(spin 4471 0)", "53652");
          ("(spin 5202 0)", "62424"); ("(spin 6053 0)", "72636"); ("(spin 7042 0)", "84504");
        ];
    };
  ]

type call = { kernel : string; expr : string; expected : string; entry : string }

(* One nullary entry function per call: RUN-TAK-0, RUN-TAK-1, ... *)
let calls =
  List.concat_map
    (fun k ->
      List.mapi
        (fun i (expr, expected) ->
          {
            kernel = k.k_name;
            expr;
            expected;
            entry = Printf.sprintf "RUN-%s-%d" (String.uppercase_ascii k.k_name) i;
          })
        k.k_calls)
    kernels

let entry_defuns k =
  calls
  |> List.filter (fun c -> c.kernel = k.k_name)
  |> List.map (fun c -> Printf.sprintf "(defun %s () %s)" c.entry c.expr)
  |> String.concat "\n"

(** Every call's value under the reference interpreter, which is how the
    expected values were obtained. *)
let interp_values () =
  List.concat_map
    (fun k ->
      let it = S1_interp.Interp.boot () in
      ignore (S1_interp.Interp.eval_string it k.k_source);
      let values =
        List.filter_map
          (fun c ->
            if c.kernel <> k.k_name then None
            else
              let v = S1_interp.Interp.eval_string it c.expr in
              Some (c.expr, Rt.print_value it.S1_interp.Interp.rt v))
          calls
      in
      S1_interp.Interp.release it;
      values)
    kernels

let setup ~seed : Workload.instance =
  let c = Trace.with_span "core.boot" (fun () -> C.create ()) in
  let rt = c.C.rt in
  let cpu = rt.Rt.cpu in
  let code0 = cpu.Cpu.code_len in
  List.iter
    (fun k -> ignore (C.eval_string ~file:k.k_name c (k.k_source ^ "\n" ^ entry_defuns k)))
    kernels;
  let setup_code_words = cpu.Cpu.code_len - code0 in
  let fobj call = Rt.function_of rt (Rt.intern rt call.entry) in
  List.iter
    (fun call ->
      let got = Rt.print_value rt (Rt.call rt (fobj call) []) in
      if not (S1_fuzz.Oracle.values_agree got call.expected) then
        failwith
          (Printf.sprintf "gabriel_sim set-up: %s returned %s, expected %s" call.expr got
             call.expected))
    calls;
  (* every call once per pass, in a seed-chosen order *)
  let order = Array.of_list calls in
  Workload.shuffle (Random.State.make [| seed |]) order;
  let fobjs = Array.map fobj order in
  let n = Array.length order in
  let run i =
    let call = order.(i) in
    let stats = cpu.Cpu.stats in
    let cyc0 = stats.Cpu.cycles and ins0 = stats.Cpu.instructions in
    let v = Trace.with_span "machine.run" (fun () -> Rt.call rt fobjs.(i) []) in
    let result = Rt.print_value rt v in
    {
      Workload.label = Printf.sprintf "seed %d %s" seed call.expr;
      result;
      failure =
        (if S1_fuzz.Oracle.values_agree result call.expected then None
         else Some (Printf.sprintf "returned %s, expected %s" result call.expected));
      cycles = stats.Cpu.cycles - cyc0;
      code_words = 0;
      instructions = stats.Cpu.instructions - ins0;
      worlds = 0;
    }
  in
  {
    Workload.units = n;
    round = n;
    run;
    end_round = (fun () -> ());
    setup_code_words;
    notes = [];
    discard = (fun () -> Workload.release [ c ]);
  }

let workload = { Workload.name = "gabriel_sim"; setup }
