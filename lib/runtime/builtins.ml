module Tags = S1_machine.Tags
module Word = S1_machine.Word
module F36 = S1_machine.Float36

let err fmt = Printf.ksprintf (fun s -> raise (Rt.Lisp_error s)) fmt

(* Numeric helpers ------------------------------------------------------------ *)

let num rt w = Numerics.decode rt.Rt.obj w
let enc rt n = Numerics.encode rt.Rt.obj n

let fold_arith name f init rt args =
  match args with
  | [] -> enc rt init
  | [ x ] -> enc rt (f init (num rt x))
  | x :: rest ->
      ignore name;
      enc rt (List.fold_left (fun acc w -> f acc (num rt w)) (num rt x) rest)

let chain_compare rel rt args =
  let rec go = function
    | a :: (b :: _ as rest) ->
        if rel (Numerics.compare_ (num rt a) (num rt b)) 0 then go rest else false
    | _ -> true
  in
  Rt.bool_word rt (go args)

let strict_single rt w =
  match Obj.tag_of w with
  | Tags.Single_flonum -> Obj.single_value rt.Rt.obj w
  | Tags.Half_flonum -> F36.decode_half (Word.addr_of w)
  | _ -> err "not a single-float: %s" (Rt.print_value rt w)

let strict_fixnum rt w =
  if Obj.is_fixnum w then Obj.fixnum_value w
  else err "not a fixnum: %s" (Rt.print_value rt w)

(* List helpers ------------------------------------------------------------- *)

let car rt w = Obj.car rt.Rt.obj w
let cdr rt w = Obj.cdr rt.Rt.obj w
let cons rt a b = Rt.with_protected rt [ a; b ] (fun () -> Obj.cons rt.Rt.obj a b)

let list_of rt items =
  List.fold_right (fun x acc -> Rt.with_protected rt [ acc ] (fun () -> cons rt x acc)) items
    rt.Rt.nil

(* Installation ------------------------------------------------------------- *)

(* Native handlers are world-independent (each receives its world, and
   NIL is the same word in every world), so they are registered on the
   first boot only, which fixes their service ids in definition order.
   Every boot then loads one stub per native.  Entries are
   [(name, svc, min_args, max_args)]. *)
let natives : (string * int * int * int) list option Atomic.t = Atomic.make None
let natives_lock = Mutex.create ()

let register nil =
  let collected = ref [] in
  let def name min_args max_args impl =
    let svc = Rt.register_native ~name ~min_args ~max_args impl in
    collected := (name, svc, min_args, max_args) :: !collected
  in
  let arg1 = function [ a ] -> a | _ -> assert false in
  let arg2 = function [ a; b ] -> (a, b) | _ -> assert false in

  (* --- cons cells and lists --- *)
  def "CONS" 2 2 (fun rt args -> let a, b = arg2 args in cons rt a b);
  def "CAR" 1 1 (fun rt args -> car rt (arg1 args));
  def "CDR" 1 1 (fun rt args -> cdr rt (arg1 args));
  def "CAAR" 1 1 (fun rt args -> car rt (car rt (arg1 args)));
  def "CADR" 1 1 (fun rt args -> car rt (cdr rt (arg1 args)));
  def "CDAR" 1 1 (fun rt args -> cdr rt (car rt (arg1 args)));
  def "CDDR" 1 1 (fun rt args -> cdr rt (cdr rt (arg1 args)));
  def "CADDR" 1 1 (fun rt args -> car rt (cdr rt (cdr rt (arg1 args))));
  def "LIST" 0 (-1) (fun rt args -> list_of rt args);
  def "LIST*" 1 (-1) (fun rt args ->
      let rec go = function
        | [ last ] -> last
        | x :: rest -> Rt.with_protected rt [ x ] (fun () -> cons rt x (go rest))
        | [] -> nil
      in
      go args);
  def "APPEND" 0 (-1) (fun rt args ->
      let rec app2 xs tail =
        if xs = nil then tail
        else
          let rest = app2 (cdr rt xs) tail in
          Rt.with_protected rt [ rest ] (fun () -> cons rt (car rt xs) rest)
      in
      let rec go = function
        | [] -> nil
        | [ last ] -> last
        | x :: rest ->
            let tl = go rest in
            Rt.with_protected rt [ tl ] (fun () -> app2 x tl)
      in
      go args);
  def "REVERSE" 1 1 (fun rt args ->
      let rec go xs acc =
        if xs = nil then acc
        else Rt.with_protected rt [ acc ] (fun () -> go (cdr rt xs) (cons rt (car rt xs) acc))
      in
      go (arg1 args) nil);
  def "LENGTH" 1 1 (fun rt args ->
      let rec go xs n = if xs = nil then n else go (cdr rt xs) (n + 1) in
      Obj.fixnum (go (arg1 args) 0));
  def "NTH" 2 2 (fun rt args ->
      let n, xs = arg2 args in
      let rec go xs k = if xs = nil then nil else if k = 0 then car rt xs else go (cdr rt xs) (k - 1) in
      go xs (strict_fixnum rt n));
  def "NTHCDR" 2 2 (fun rt args ->
      let n, xs = arg2 args in
      let rec go xs k = if k = 0 || xs = nil then xs else go (cdr rt xs) (k - 1) in
      go xs (strict_fixnum rt n));
  def "LAST" 1 1 (fun rt args ->
      let rec go xs =
        if xs = nil then nil
        else if cdr rt xs = nil || not (Obj.is_cons rt.Rt.obj (cdr rt xs)) then xs
        else go (cdr rt xs)
      in
      go (arg1 args));
  def "ASSOC" 2 2 (fun rt args ->
      let key, alist = arg2 args in
      let rec go xs =
        if xs = nil then nil
        else
          let pair = car rt xs in
          if Obj.is_cons rt.Rt.obj pair && Rt.equal rt (car rt pair) key then pair
          else go (cdr rt xs)
      in
      go alist);
  def "ASSQ" 2 2 (fun rt args ->
      let key, alist = arg2 args in
      let rec go xs =
        if xs = nil then nil
        else
          let pair = car rt xs in
          if Obj.is_cons rt.Rt.obj pair && car rt pair = key then pair else go (cdr rt xs)
      in
      go alist);
  def "MEMBER" 2 2 (fun rt args ->
      let key, xs = arg2 args in
      let rec go xs =
        if xs = nil then nil else if Rt.equal rt (car rt xs) key then xs else go (cdr rt xs)
      in
      go xs);
  def "MEMQ" 2 2 (fun rt args ->
      let key, xs = arg2 args in
      let rec go xs = if xs = nil then nil else if car rt xs = key then xs else go (cdr rt xs) in
      go xs);
  def "COPY-LIST" 1 1 (fun rt args ->
      let rec go xs =
        if xs = nil || not (Obj.is_cons rt.Rt.obj xs) then xs
        else
          let rest = go (cdr rt xs) in
          Rt.with_protected rt [ rest ] (fun () -> cons rt (car rt xs) rest)
      in
      go (arg1 args));
  def "NCONC" 0 (-1) (fun rt args ->
      let rec last_cons xs =
        let d = cdr rt xs in
        if Obj.is_cons rt.Rt.obj d then last_cons d else xs
      in
      let rec go = function
        | [] -> nil
        | [ last ] -> last
        | x :: rest ->
            let tail = go rest in
            if x = nil then tail
            else begin
              Obj.set_cdr rt.Rt.obj (last_cons x) tail;
              x
            end
      in
      go args);
  def "REMOVE" 2 2 (fun rt args ->
      let item, xs = arg2 args in
      let rec go xs =
        if xs = nil then nil
        else
          let hd = car rt xs in
          let rest = go (cdr rt xs) in
          if Rt.equal rt hd item then rest
          else Rt.with_protected rt [ rest ] (fun () -> cons rt hd rest)
      in
      go xs);
  def "COUNT" 2 2 (fun rt args ->
      let item, xs = arg2 args in
      let rec go xs n =
        if xs = nil then n
        else go (cdr rt xs) (if Rt.equal rt (car rt xs) item then n + 1 else n)
      in
      Obj.fixnum (go xs 0));
  def "POSITION" 2 2 (fun rt args ->
      let item, xs = arg2 args in
      let rec go xs i =
        if xs = nil then nil
        else if Rt.equal rt (car rt xs) item then Obj.fixnum i
        else go (cdr rt xs) (i + 1)
      in
      go xs 0);
  def "SUBST" 3 3 (fun rt args ->
      match args with
      | [ new_; old; tree ] ->
          let rec go tree =
            if Rt.equal rt tree old then new_
            else if Obj.is_cons rt.Rt.obj tree then begin
              let a = go (car rt tree) in
              Rt.with_protected rt [ a ] (fun () ->
                  let d = go (cdr rt tree) in
                  Rt.with_protected rt [ d ] (fun () -> cons rt a d))
            end
            else tree
          in
          go tree
      | _ -> assert false);
  def "SORT" 2 2 (fun rt args ->
      (* merge sort; the comparator is a Lisp function called back
         through the simulator *)
      let xs, pred = arg2 args in
      let lt a b = Rt.truthy rt (Rt.call rt pred [ a; b ]) in
      let items = Obj.to_list rt.Rt.obj xs in
      let sorted = List.stable_sort (fun a b -> if lt a b then -1 else if lt b a then 1 else 0) items in
      list_of rt sorted);
  def "RPLACA" 2 2 (fun rt args ->
      let c, v = arg2 args in
      Obj.set_car rt.Rt.obj c v;
      c);
  def "RPLACD" 2 2 (fun rt args ->
      let c, v = arg2 args in
      Obj.set_cdr rt.Rt.obj c v;
      c);

  (* --- predicates --- *)
  def "NULL" 1 1 (fun rt args -> Rt.bool_word rt (arg1 args = nil));
  def "NOT" 1 1 (fun rt args -> Rt.bool_word rt (arg1 args = nil));
  def "ATOM" 1 1 (fun rt args -> Rt.bool_word rt (not (Obj.is_cons rt.Rt.obj (arg1 args))));
  def "CONSP" 1 1 (fun rt args -> Rt.bool_word rt (Obj.is_cons rt.Rt.obj (arg1 args)));
  def "LISTP" 1 1 (fun rt args ->
      let w = arg1 args in
      Rt.bool_word rt (w = nil || Obj.is_cons rt.Rt.obj w));
  def "SYMBOLP" 1 1 (fun rt args -> Rt.bool_word rt (Obj.tag_of (arg1 args) = Tags.Symbol));
  def "NUMBERP" 1 1 (fun rt args -> Rt.bool_word rt (Tags.is_number (Obj.tag_of (arg1 args))));
  def "INTEGERP" 1 1 (fun rt args ->
      let t = Obj.tag_of (arg1 args) in
      Rt.bool_word rt (t = Tags.Fixnum || t = Tags.Bignum));
  def "FLOATP" 1 1 (fun rt args ->
      let t = Obj.tag_of (arg1 args) in
      Rt.bool_word rt (t = Tags.Single_flonum || t = Tags.Double_flonum || t = Tags.Half_flonum));
  def "RATIONALP" 1 1 (fun rt args ->
      let t = Obj.tag_of (arg1 args) in
      Rt.bool_word rt (t = Tags.Fixnum || t = Tags.Bignum || t = Tags.Ratio));
  def "COMPLEXP" 1 1 (fun rt args -> Rt.bool_word rt (Obj.tag_of (arg1 args) = Tags.Complex));
  def "STRINGP" 1 1 (fun rt args -> Rt.bool_word rt (Obj.tag_of (arg1 args) = Tags.String));
  def "VECTORP" 1 1 (fun rt args -> Rt.bool_word rt (Obj.tag_of (arg1 args) = Tags.Vector));
  def "FUNCTIONP" 1 1 (fun rt args ->
      let t = Obj.tag_of (arg1 args) in
      Rt.bool_word rt (t = Tags.Code || t = Tags.Closure));
  def "EQ" 2 2 (fun rt args -> let a, b = arg2 args in Rt.bool_word rt (a = b));
  def "EQL" 2 2 (fun rt args -> let a, b = arg2 args in Rt.bool_word rt (Rt.eql rt a b));
  def "EQUAL" 2 2 (fun rt args -> let a, b = arg2 args in Rt.bool_word rt (Rt.equal rt a b));

  (* --- generic arithmetic --- *)
  def "+" 0 (-1) (fold_arith "+" Numerics.add (Numerics.of_int 0));
  def "*" 0 (-1) (fold_arith "*" Numerics.mul (Numerics.of_int 1));
  def "-" 1 (-1) (fun rt args ->
      match args with
      | [ x ] -> enc rt (Numerics.neg (num rt x))
      | x :: rest -> enc rt (List.fold_left (fun acc w -> Numerics.sub acc (num rt w)) (num rt x) rest)
      | [] -> assert false);
  def "/" 1 (-1) (fun rt args ->
      try
        match args with
        | [ x ] -> enc rt (Numerics.div (Numerics.of_int 1) (num rt x))
        | x :: rest ->
            enc rt (List.fold_left (fun acc w -> Numerics.div acc (num rt w)) (num rt x) rest)
        | [] -> assert false
      with Division_by_zero -> err "division by zero");
  def "1+" 1 1 (fun rt args -> enc rt (Numerics.add (num rt (arg1 args)) (Numerics.of_int 1)));
  def "1-" 1 1 (fun rt args -> enc rt (Numerics.sub (num rt (arg1 args)) (Numerics.of_int 1)));
  def "<" 1 (-1) (chain_compare ( < ));
  def "<=" 1 (-1) (chain_compare ( <= ));
  def ">" 1 (-1) (chain_compare ( > ));
  def ">=" 1 (-1) (chain_compare ( >= ));
  def "=" 1 (-1) (fun rt args ->
      let rec go = function
        | a :: (b :: _ as rest) ->
            Numerics.equal_value (num rt a) (num rt b) && go rest
        | _ -> true
      in
      Rt.bool_word rt (go args));
  def "/=" 2 2 (fun rt args ->
      let a, b = arg2 args in
      Rt.bool_word rt (not (Numerics.equal_value (num rt a) (num rt b))));
  def "MAX" 1 (-1) (fun rt args ->
      enc rt
        (List.fold_left
           (fun acc w -> if Numerics.compare_ (num rt w) acc > 0 then num rt w else acc)
           (num rt (List.hd args)) (List.tl args)));
  def "MIN" 1 (-1) (fun rt args ->
      enc rt
        (List.fold_left
           (fun acc w -> if Numerics.compare_ (num rt w) acc < 0 then num rt w else acc)
           (num rt (List.hd args)) (List.tl args)));
  def "ABS" 1 1 (fun rt args -> enc rt (Numerics.abs_ (num rt (arg1 args))));
  let rounding2 name f =
    def name 1 2 (fun rt args ->
        match args with
        | [ x ] -> enc rt (fst (f (num rt x)))
        | [ x; y ] -> enc rt (fst (f (Numerics.div (num rt x) (num rt y))))
        | _ -> assert false)
  in
  rounding2 "FLOOR" Numerics.floor_;
  rounding2 "CEILING" Numerics.ceiling_;
  rounding2 "TRUNCATE" Numerics.truncate_;
  rounding2 "ROUND" Numerics.round_;
  def "MOD" 2 2 (fun rt args ->
      let a, b = arg2 args in
      let q, _ = Numerics.floor_ (Numerics.div (num rt a) (num rt b)) in
      enc rt (Numerics.sub (num rt a) (Numerics.mul q (num rt b))));
  def "REM" 2 2 (fun rt args ->
      let a, b = arg2 args in
      let q, _ = Numerics.truncate_ (Numerics.div (num rt a) (num rt b)) in
      enc rt (Numerics.sub (num rt a) (Numerics.mul q (num rt b))));
  def "GCD" 0 (-1) (fun rt args ->
      let big w =
        match num rt w with
        | Numerics.Int b -> b
        | _ -> err "GCD of non-integer"
      in
      enc rt
        (Numerics.Int (List.fold_left (fun acc w -> Bignum.gcd acc (big w)) Bignum.zero args)));
  def "ZEROP" 1 1 (fun rt args -> Rt.bool_word rt (Numerics.zerop (num rt (arg1 args))));
  def "PLUSP" 1 1 (fun rt args -> Rt.bool_word rt (Numerics.plusp (num rt (arg1 args))));
  def "MINUSP" 1 1 (fun rt args -> Rt.bool_word rt (Numerics.minusp (num rt (arg1 args))));
  def "ODDP" 1 1 (fun rt args -> Rt.bool_word rt (Numerics.oddp (num rt (arg1 args))));
  def "EVENP" 1 1 (fun rt args -> Rt.bool_word rt (Numerics.evenp (num rt (arg1 args))));
  def "SQRT" 1 1 (fun rt args -> enc rt (Numerics.sqrt_ (num rt (arg1 args))));
  def "SIN" 1 1 (fun rt args -> enc rt (Numerics.sin_ (num rt (arg1 args))));
  def "COS" 1 1 (fun rt args -> enc rt (Numerics.cos_ (num rt (arg1 args))));
  def "ATAN" 1 2 (fun rt args ->
      match args with
      | [ x ] -> enc rt (Numerics.atan_ (num rt x) (Numerics.of_int 1))
      | [ x; y ] -> enc rt (Numerics.atan_ (num rt x) (num rt y))
      | _ -> assert false);
  def "EXP" 1 1 (fun rt args -> enc rt (Numerics.exp_ (num rt (arg1 args))));
  def "LOG" 1 1 (fun rt args -> enc rt (Numerics.log_ (num rt (arg1 args))));
  def "EXPT" 2 2 (fun rt args ->
      let a, b = arg2 args in
      enc rt (Numerics.expt (num rt a) (num rt b)));
  def "FLOAT" 1 1 (fun rt args ->
      enc rt (Numerics.Single (F36.single_of_float (Numerics.to_float (num rt (arg1 args))))));
  def "COMPLEX" 2 2 (fun rt args ->
      let a, b = arg2 args in
      Obj.complex rt.Rt.obj a b);
  def "REALPART" 1 1 (fun rt args ->
      match Obj.tag_of (arg1 args) with
      | Tags.Complex -> fst (Obj.complex_parts rt.Rt.obj (arg1 args))
      | _ -> arg1 args);
  def "IMAGPART" 1 1 (fun rt args ->
      match Obj.tag_of (arg1 args) with
      | Tags.Complex -> snd (Obj.complex_parts rt.Rt.obj (arg1 args))
      | _ -> Obj.fixnum 0);
  def "NUMERATOR" 1 1 (fun rt args ->
      match Obj.tag_of (arg1 args) with
      | Tags.Ratio -> fst (Obj.ratio_parts rt.Rt.obj (arg1 args))
      | _ -> arg1 args);
  def "DENOMINATOR" 1 1 (fun rt args ->
      match Obj.tag_of (arg1 args) with
      | Tags.Ratio -> snd (Obj.ratio_parts rt.Rt.obj (arg1 args))
      | _ -> Obj.fixnum 1);

  (* --- type-specific operators (paper §6.2) --- *)
  let sf rt f = Obj.single rt.Rt.obj (F36.single_of_float f) in
  let foldf name unit_ op =
    def name 1 (-1) (fun rt args ->
        match List.map (strict_single rt) args with
        | [ x ] -> sf rt (op unit_ x)
        | x :: rest -> sf rt (List.fold_left op x rest)
        | [] -> assert false)
  in
  foldf "+$F" 0.0 ( +. );
  foldf "*$F" 1.0 ( *. );
  def "-$F" 1 (-1) (fun rt args ->
      match List.map (strict_single rt) args with
      | [ a ] -> sf rt (-.a)
      | a :: rest -> sf rt (List.fold_left ( -. ) a rest)
      | [] -> assert false);
  def "/$F" 2 (-1) (fun rt args ->
      match List.map (strict_single rt) args with
      | a :: rest -> sf rt (List.fold_left ( /. ) a rest)
      | [] -> assert false);
  foldf "MAX$F" Float.neg_infinity Float.max;
  foldf "MIN$F" Float.infinity Float.min;
  def "SQRT$F" 1 1 (fun rt args -> sf rt (Float.sqrt (strict_single rt (arg1 args))));
  def "SIN$F" 1 1 (fun rt args -> sf rt (Float.sin (strict_single rt (arg1 args))));
  def "COS$F" 1 1 (fun rt args -> sf rt (Float.cos (strict_single rt (arg1 args))));
  (* sine/cosine with argument in cycles: what the S-1 FSIN computes. *)
  def "SINC$F" 1 1 (fun rt args ->
      sf rt (Float.sin (2.0 *. Float.pi *. strict_single rt (arg1 args))));
  def "COSC$F" 1 1 (fun rt args ->
      sf rt (Float.cos (2.0 *. Float.pi *. strict_single rt (arg1 args))));
  def "EXP$F" 1 1 (fun rt args -> sf rt (Float.exp (strict_single rt (arg1 args))));
  def "LOG$F" 1 1 (fun rt args -> sf rt (Float.log (strict_single rt (arg1 args))));
  def "ATAN$F" 2 2 (fun rt args ->
      let a, b = arg2 args in
      sf rt (Float.atan2 (strict_single rt a) (strict_single rt b)));
  def "<$F" 2 2 (fun rt args ->
      let a, b = arg2 args in
      Rt.bool_word rt (strict_single rt a < strict_single rt b));
  def "=$F" 2 2 (fun rt args ->
      let a, b = arg2 args in
      Rt.bool_word rt (strict_single rt a = strict_single rt b));
  let fixop name f =
    def name 1 (-1) (fun rt args ->
        match List.map (strict_fixnum rt) args with
        | x :: rest ->
            let v = List.fold_left f x rest in
            if v < Word.fixnum_min || v > Word.fixnum_max then
              enc rt (Numerics.Int (Bignum.of_int v))
            else Obj.fixnum v
        | [] -> assert false)
  in
  fixop "+&" ( + );
  fixop "-&" ( - );
  fixop "*&" ( * );
  def "<&" 2 2 (fun rt args ->
      let a, b = arg2 args in
      Rt.bool_word rt (strict_fixnum rt a < strict_fixnum rt b));
  def "=&" 2 2 (fun rt args ->
      let a, b = arg2 args in
      Rt.bool_word rt (strict_fixnum rt a = strict_fixnum rt b));

  (* --- symbols --- *)
  def "SYMBOL-VALUE" 1 1 (fun rt args -> Rt.symbol_value_dynamic rt (arg1 args));
  def "SET" 2 2 (fun rt args ->
      let s, v = arg2 args in
      Rt.set_symbol_value_dynamic rt s v;
      v);
  def "SYMBOL-FUNCTION" 1 1 (fun rt args -> Rt.function_of rt (arg1 args));
  def "SYMBOL-NAME" 1 1 (fun rt args ->
      Obj.string_ rt.Rt.obj (Rt.symbol_name rt (arg1 args)));
  def "GENSYM" 0 1 (fun rt _args -> Rt.gensym rt "G");
  def "GET" 2 2 (fun rt args ->
      let s, key = arg2 args in
      let plist = S1_machine.Mem.read rt.Rt.mem (Obj.symbol_plist_cell rt.Rt.obj s) in
      let rec go xs =
        if xs = nil then nil
        else if car rt xs = key then car rt (cdr rt xs)
        else go (cdr rt (cdr rt xs))
      in
      go plist);
  def "PUTPROP" 3 3 (fun rt args ->
      match args with
      | [ s; v; key ] ->
          let cell = Obj.symbol_plist_cell rt.Rt.obj s in
          let plist = S1_machine.Mem.read rt.Rt.mem cell in
          let entry = cons rt key (cons rt v plist) in
          S1_machine.Mem.write rt.Rt.mem cell entry;
          v
      | _ -> assert false);

  (* --- vectors --- *)
  def "MAKE-VECTOR" 1 2 (fun rt args ->
      let n = strict_fixnum rt (List.hd args) in
      let fill = match args with [ _; f ] -> f | _ -> nil in
      Obj.vector rt.Rt.obj (Array.make n fill));
  def "VECTOR" 0 (-1) (fun rt args -> Obj.vector rt.Rt.obj (Array.of_list args));
  def "VECTOR-LENGTH" 1 1 (fun rt args -> Obj.fixnum (Obj.vector_length rt.Rt.obj (arg1 args)));
  def "AREF" 2 2 (fun rt args ->
      let v, i = arg2 args in
      Obj.vector_ref rt.Rt.obj v (strict_fixnum rt i));
  def "ASET" 3 3 (fun rt args ->
      match args with
      | [ v; i; x ] ->
          Obj.vector_set rt.Rt.obj v (strict_fixnum rt i) x;
          x
      | _ -> assert false);

  (* --- strings --- *)
  def "STRING=" 2 2 (fun rt args ->
      let a, b = arg2 args in
      Rt.bool_word rt
        (String.equal (Obj.string_value rt.Rt.obj a) (Obj.string_value rt.Rt.obj b)));
  def "STRING-APPEND" 0 (-1) (fun rt args ->
      Obj.string_ rt.Rt.obj
        (String.concat "" (List.map (Obj.string_value rt.Rt.obj) args)));
  def "STRING-LENGTH" 1 1 (fun rt args ->
      Obj.fixnum (String.length (Obj.string_value rt.Rt.obj (arg1 args))));

  (* --- control --- *)
  def "FUNCALL" 1 (-1) (fun rt args ->
      match args with f :: rest -> Rt.call rt f rest | [] -> assert false);
  def "APPLY" 2 (-1) (fun rt args ->
      match args with
      | f :: rest ->
          let rec flatten = function
            | [ last ] -> Obj.to_list rt.Rt.obj last
            | x :: more -> x :: flatten more
            | [] -> []
          in
          Rt.call rt f (flatten rest)
      | [] -> assert false);
  def "MAPCAR" 2 2 (fun rt args ->
      let f, xs = arg2 args in
      let items = Obj.to_list rt.Rt.obj xs in
      let results = List.map (fun x -> Rt.call rt f [ x ]) items in
      list_of rt results);
  def "MAPC" 2 2 (fun rt args ->
      let f, xs = arg2 args in
      List.iter (fun x -> ignore (Rt.call rt f [ x ])) (Obj.to_list rt.Rt.obj xs);
      xs);
  def "REDUCE" 2 3 (fun rt args ->
      match args with
      | [ f; xs ] -> (
          match Obj.to_list rt.Rt.obj xs with
          | [] -> Rt.call rt f []
          | x :: rest -> List.fold_left (fun acc y -> Rt.call rt f [ acc; y ]) x rest)
      | [ f; xs; init ] ->
          List.fold_left (fun acc y -> Rt.call rt f [ acc; y ]) init (Obj.to_list rt.Rt.obj xs)
      | _ -> assert false);
  def "IDENTITY" 1 1 (fun _rt args -> arg1 args);
  def "THROW" 2 2 (fun rt args ->
      let tag, v = arg2 args in
      Rt.do_throw rt tag v;
      (* When the target was a compiled frame, do_throw redirected the
         pc; the value is also left in register A by our caller. *)
      v);
  def "ERROR" 1 (-1) (fun rt args -> err "ERROR: %s" (Rt.princ_value rt (List.hd args)));

  (* --- I/O --- *)
  def "PRIN1" 1 1 (fun rt args ->
      Buffer.add_string rt.Rt.out (Rt.print_value rt (arg1 args));
      arg1 args);
  def "PRINC" 1 1 (fun rt args ->
      Buffer.add_string rt.Rt.out (Rt.princ_value rt (arg1 args));
      arg1 args);
  def "PRINT" 1 1 (fun rt args ->
      Buffer.add_char rt.Rt.out '\n';
      Buffer.add_string rt.Rt.out (Rt.print_value rt (arg1 args));
      Buffer.add_char rt.Rt.out ' ';
      arg1 args);
  def "TERPRI" 0 0 (fun rt _args ->
      Buffer.add_char rt.Rt.out '\n';
      nil);

  List.rev !collected

let registered nil =
  match Atomic.get natives with
  | Some l -> l
  | None ->
      Mutex.protect natives_lock (fun () ->
          match Atomic.get natives with
          | Some l -> l
          | None ->
              let l = register nil in
              Atomic.set natives (Some l);
              l)

let boot ?config () =
  let rt = Rt.create ?config () in
  List.iter
    (fun (name, svc, min_args, max_args) -> Rt.install_native rt ~name ~svc ~min_args ~max_args)
    (registered rt.Rt.nil);
  rt

let names () =
  List.sort String.compare
    (List.map (fun (name, _, _, _) -> name) (Option.value ~default:[] (Atomic.get natives)))
