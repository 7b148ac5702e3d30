(* Sign-magnitude bignums, base 2^30 little-endian digit arrays.
   Invariant: mag has no leading (high-order) zero digits; zero is
   { sign = 0; mag = [||] }; otherwise sign is 1 or -1. *)

let base_bits = 30
let base = 1 lsl base_bits
let base_mask = base - 1

type t = { sign : int; mag : int array }

let zero = { sign = 0; mag = [||] }

let normalize sign mag =
  let n = ref (Array.length mag) in
  while !n > 0 && mag.(!n - 1) = 0 do
    decr n
  done;
  if !n = 0 then zero
  else if !n = Array.length mag then { sign; mag }
  else { sign; mag = Array.sub mag 0 !n }

let of_int n =
  if n = 0 then zero
  else
    let sign = if n < 0 then -1 else 1 in
    (* min_int's magnitude overflows; go through two digits safely using
       arithmetic shifts. *)
    let rec digits_of m acc = if m = 0 then List.rev acc else digits_of (m lsr base_bits) ((m land base_mask) :: acc) in
    let m = abs n in
    let m = if m < 0 then max_int else m (* abs min_int; close enough, unreachable from 36-bit words *) in
    { sign; mag = Array.of_list (digits_of m []) }

let one = of_int 1
let sign t = t.sign
let is_zero t = t.sign = 0
let is_even t = t.sign = 0 || t.mag.(0) land 1 = 0

let compare_mag a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else
    let rec go i = if i < 0 then 0 else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i) else go (i - 1) in
    go (la - 1)

let compare a b =
  if a.sign <> b.sign then Stdlib.compare a.sign b.sign
  else if a.sign >= 0 then compare_mag a.mag b.mag
  else compare_mag b.mag a.mag

let equal a b = compare a b = 0
let neg t = if t.sign = 0 then t else { t with sign = -t.sign }
let abs t = if t.sign < 0 then neg t else t

let add_mag a b =
  let la = Array.length a and lb = Array.length b in
  let n = max la lb + 1 in
  let out = Array.make n 0 in
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let s = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
    out.(i) <- s land base_mask;
    carry := s lsr base_bits
  done;
  out

(* requires |a| >= |b| *)
let sub_mag a b =
  let la = Array.length a and lb = Array.length b in
  let out = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let d = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if d < 0 then begin
      out.(i) <- d + base;
      borrow := 1
    end
    else begin
      out.(i) <- d;
      borrow := 0
    end
  done;
  out

let add a b =
  if a.sign = 0 then b
  else if b.sign = 0 then a
  else if a.sign = b.sign then normalize a.sign (add_mag a.mag b.mag)
  else
    let c = compare_mag a.mag b.mag in
    if c = 0 then zero
    else if c > 0 then normalize a.sign (sub_mag a.mag b.mag)
    else normalize b.sign (sub_mag b.mag a.mag)

let sub a b = add a (neg b)

let mul a b =
  if a.sign = 0 || b.sign = 0 then zero
  else begin
    let la = Array.length a.mag and lb = Array.length b.mag in
    let out = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      let ai = a.mag.(i) in
      for j = 0 to lb - 1 do
        (* ai, bj < 2^30 so the product fits in 60 bits, plus carries stays
           within OCaml's 63-bit int. *)
        let t = (ai * b.mag.(j)) + out.(i + j) + !carry in
        out.(i + j) <- t land base_mask;
        carry := t lsr base_bits
      done;
      out.(i + lb) <- out.(i + lb) + !carry
    done;
    normalize (a.sign * b.sign) out
  end

let shift_left t k =
  if t.sign = 0 || k = 0 then t
  else begin
    let word_shift = k / base_bits and bit_shift = k mod base_bits in
    let la = Array.length t.mag in
    let out = Array.make (la + word_shift + 1) 0 in
    for i = 0 to la - 1 do
      let v = t.mag.(i) lsl bit_shift in
      out.(i + word_shift) <- out.(i + word_shift) lor (v land base_mask);
      out.(i + word_shift + 1) <- out.(i + word_shift + 1) lor (v lsr base_bits)
    done;
    normalize t.sign out
  end

let bit_length t =
  if t.sign = 0 then 0
  else
    let top = t.mag.(Array.length t.mag - 1) in
    let rec bits n acc = if n = 0 then acc else bits (n lsr 1) (acc + 1) in
    ((Array.length t.mag - 1) * base_bits) + bits top 0

let test_bit t i =
  let w = i / base_bits and b = i mod base_bits in
  w < Array.length t.mag && (t.mag.(w) lsr b) land 1 = 1

(* Binary shift-subtract division of magnitudes; adequate for a compiler's
   constant folding and the test workloads. *)
let divmod_mag a b =
  if compare_mag a b < 0 then (zero, normalize 1 (Array.copy a))
  else begin
    let bits_a = bit_length { sign = 1; mag = a } in
    let bb = { sign = 1; mag = b } in
    let q = Array.make (Array.length a) 0 in
    let r = ref zero in
    for i = bits_a - 1 downto 0 do
      (* r := (r << 1) | bit i of a *)
      r := shift_left !r 1;
      if test_bit { sign = 1; mag = a } i then r := add !r one;
      if compare_mag !r.mag bb.mag >= 0 then begin
        r := normalize 1 (sub_mag !r.mag bb.mag);
        q.(i / base_bits) <- q.(i / base_bits) lor (1 lsl (i mod base_bits))
      end
    done;
    (normalize 1 q, !r)
  end

let divmod a b =
  if b.sign = 0 then raise Division_by_zero
  else if a.sign = 0 then (zero, zero)
  else begin
    let q, r = divmod_mag a.mag b.mag in
    let q = if q.sign = 0 then zero else { q with sign = a.sign * b.sign } in
    let r = if r.sign = 0 then zero else { r with sign = a.sign } in
    (q, r)
  end

let rec gcd a b =
  let a = abs a and b = abs b in
  if is_zero b then a
  else
    let _, r = divmod a b in
    gcd b r

let to_int_opt t =
  (* max_int has 62 bits; accept up to 62 bits. *)
  if t.sign = 0 then Some 0
  else if bit_length t > 62 then None
  else begin
    let v = ref 0 in
    for i = Array.length t.mag - 1 downto 0 do
      v := (!v lsl base_bits) lor t.mag.(i)
    done;
    Some (t.sign * !v)
  end

let fits_fixnum t =
  match to_int_opt t with
  | Some v -> v >= S1_machine.Word.fixnum_min && v <= S1_machine.Word.fixnum_max
  | None -> false

let ten = of_int 10

let of_string s =
  let n = String.length s in
  if n = 0 then invalid_arg "Bignum.of_string: empty";
  let sgn, start =
    match s.[0] with '-' -> (-1, 1) | '+' -> (1, 1) | _ -> (1, 0)
  in
  if start >= n then invalid_arg "Bignum.of_string: no digits";
  let acc = ref zero in
  for i = start to n - 1 do
    let c = s.[i] in
    if c < '0' || c > '9' then invalid_arg "Bignum.of_string: bad digit";
    acc := add (mul !acc ten) (of_int (Char.code c - Char.code '0'))
  done;
  if sgn < 0 then neg !acc else !acc

let to_string t =
  if t.sign = 0 then "0"
  else begin
    let buf = Buffer.create 32 in
    let rec go v = if is_zero v then () else begin
        let q, r = divmod v ten in
        go q;
        Buffer.add_char buf
          (Char.chr (Char.code '0' + (match to_int_opt r with Some d -> Stdlib.abs d | None -> 0)))
      end
    in
    go (abs t);
    (if t.sign < 0 then "-" else "") ^ Buffer.contents buf
  end

let to_float t =
  let f = ref 0.0 in
  for i = Array.length t.mag - 1 downto 0 do
    f := (!f *. float_of_int base) +. float_of_int t.mag.(i)
  done;
  float_of_int t.sign *. !f

let of_float f =
  if Float.is_nan f || Float.abs f = Float.infinity then
    invalid_arg "Bignum.of_float: not finite";
  let f = Float.trunc f in
  if Float.abs f < 4.6e18 then of_int (int_of_float f)
  else begin
    let sgn = if f < 0.0 then -1 else 1 in
    let rec go f acc =
      if f = 0.0 then acc
      else
        let d = Float.rem f (float_of_int base) in
        go (Float.trunc (f /. float_of_int base)) ((int_of_float d) :: acc)
    in
    let digits_hi_first = go (Float.abs f) [] in
    let mag = Array.of_list (List.rev digits_hi_first) in
    normalize sgn mag
  end

let digits t = Array.copy t.mag
let of_digits ~sign mag = normalize (if sign < 0 then -1 else 1) (Array.copy mag)
let pp fmt t = Format.pp_print_string fmt (to_string t)
