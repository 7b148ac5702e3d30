(* Generic binary float codec parameterized by exponent/fraction widths.
   Encoding: [ sign | biased exponent | fraction ], round-to-nearest-even.
   Exponent all-ones encodes infinity (fraction 0) and NaN (fraction <> 0);
   exponent zero encodes zero and subnormals. *)

type fmt = { ebits : int; fbits : int }

let single = { ebits = 9; fbits = 26 }
let half = { ebits = 5; fbits = 12 }
let bias f = (1 lsl (f.ebits - 1)) - 1
let emax f = (1 lsl f.ebits) - 1

(* [Float.round] would send ties away from zero. *)
let round_half_even x =
  let fl = Float.floor x in
  let rem = x -. fl in
  if rem > 0.5 || (rem = 0.5 && Float.rem fl 2.0 <> 0.0) then fl +. 1.0 else fl

let encode fmt_ f =
  let sign = if Float.sign_bit f then 1 else 0 in
  let put ~e ~frac = (sign lsl (fmt_.ebits + fmt_.fbits)) lor (e lsl fmt_.fbits) lor frac in
  if Float.is_nan f then put ~e:(emax fmt_) ~frac:1
  else if f = 0.0 then 0
    (* single zero: -0.0 and +0.0 share the all-zero pattern.  The
       dialect identifies the two zeros so the §5 associative/commutative
       canonicalization (which reorders float multiplies) cannot change
       an observable sign — found by the differential fuzzer. *)
  else
    let af = Float.abs f in
    if af = Float.infinity then put ~e:(emax fmt_) ~frac:0
    else
      let m, ex = Float.frexp af in
      (* af = m * 2^ex, m in [0.5, 1) ; normalized form 1.xxx * 2^(ex-1) *)
      let e_unbiased = ex - 1 in
      let e_biased = e_unbiased + bias fmt_ in
      if e_biased >= emax fmt_ then put ~e:(emax fmt_) ~frac:0 (* overflow -> inf *)
      else if e_biased <= 0 then begin
        (* subnormal: value = frac * 2^(1 - bias - fbits) *)
        let scale = Float.ldexp 1.0 (1 - bias fmt_ - fmt_.fbits) in
        let frac = round_half_even (af /. scale) in
        let maxfrac = float_of_int ((1 lsl fmt_.fbits) - 1) in
        if frac > maxfrac then put ~e:1 ~frac:0 (* rounded up into normal range *)
        else if frac <= 0.0 then 0 (* underflow to the single zero *)
        else put ~e:0 ~frac:(int_of_float frac)
      end
      else
        let frac_real = ((m *. 2.0) -. 1.0) *. Float.ldexp 1.0 fmt_.fbits in
        (* round to nearest even *)
        let fl = Float.of_int (int_of_float (Float.floor frac_real)) in
        let rem = frac_real -. fl in
        let fi = int_of_float fl in
        let frac =
          if rem > 0.5 then fi + 1
          else if rem < 0.5 then fi
          else if fi land 1 = 0 then fi
          else fi + 1
        in
        if frac = 1 lsl fmt_.fbits then
          if e_biased + 1 >= emax fmt_ then put ~e:(emax fmt_) ~frac:0
          else put ~e:(e_biased + 1) ~frac:0
        else put ~e:e_biased ~frac

let decode fmt_ w =
  let frac = w land ((1 lsl fmt_.fbits) - 1) in
  let e = (w lsr fmt_.fbits) land (emax fmt_) in
  let sign = if (w lsr (fmt_.ebits + fmt_.fbits)) land 1 = 1 then -1.0 else 1.0 in
  if e = emax fmt_ then if frac = 0 then sign *. Float.infinity else Float.nan
  else if e = 0 then sign *. Float.ldexp (float_of_int frac) (1 - bias fmt_ - fmt_.fbits)
  else sign *. Float.ldexp (1.0 +. Float.ldexp (float_of_int frac) (-fmt_.fbits)) (e - bias fmt_)

(* The single format on the host's IEEE bits.  A normal single whose
   biased exponent is at most 509 is the double's exponent rebiased
   (1023 -> 255) with the double's 52-bit fraction rounded to 26 bits,
   nearest-even, a carry moving into the exponent.  Everything else --
   zero, NaN, infinities, singles that are subnormal or at the overflow
   edge -- goes to the generic codec, which stays the reference the tests
   check this one against.  Both directions allocate nothing once
   inlined. *)
let rebias = 1023 - 255
let frac_drop = 52 - 26
let frac_half = 1 lsl (frac_drop - 1)
let[@inline never] encode_single_slow f = encode single f
let[@inline never] decode_single_slow w = decode single w

let[@inline] encode_single f =
  let b = Int64.bits_of_float f in
  let bits = Int64.to_int b in
  (* [bits] lost the sign, bit 63; the double's exponent is bits 52-62 *)
  let e = ((bits lsr 52) land 0x7FF) - rebias in
  if e < 1 || e > 509 then encode_single_slow f
  else
    let dropped = bits land ((1 lsl frac_drop) - 1) in
    (* exponent and fraction as one field, so rounding up carries *)
    let ef = (e lsl 26) lor ((bits lsr frac_drop) land ((1 lsl 26) - 1)) in
    let ef =
      if dropped > frac_half || (dropped = frac_half && ef land 1 = 1) then ef + 1 else ef
    in
    (Int64.to_int (Int64.shift_right_logical b 63) lsl 35) lor ef

(* One [float_of_bits] over both paths, so a caller can keep the result
   in a register whichever path produced it. *)
let[@inline] decode_single w =
  let e = (w lsr 26) land 0x1FF in
  Int64.float_of_bits
    (if e = 0 || e = 0x1FF then Int64.bits_of_float (decode_single_slow w)
     else
       Int64.logor
         (Int64.shift_left (Int64.of_int ((w lsr 35) land 1)) 63)
         (Int64.logor
            (Int64.shift_left (Int64.of_int (e + rebias)) 52)
            (Int64.of_int ((w land ((1 lsl 26) - 1)) lsl frac_drop))))

let single_of_float f = decode_single (encode_single f)
let encode_half = encode half
let decode_half = decode half

let single_is_inf w =
  let e = (w lsr single.fbits) land emax single in
  e = emax single && w land ((1 lsl single.fbits) - 1) = 0

let encode_double f =
  (* the same single-zero rule as the 36-bit formats *)
  let f = if f = 0.0 then 0.0 else f in
  let b = Int64.bits_of_float f in
  let hi = Int64.to_int (Int64.shift_right_logical b 28) land Word.mask in
  let lo = Int64.to_int (Int64.logand b 0xFFFFFFFL) lsl 8 land Word.mask in
  (hi, lo)

let decode_double (hi, lo) =
  let open Int64 in
  let b = logor (shift_left (of_int hi) 28) (of_int ((lo lsr 8) land 0xFFFFFFF)) in
  float_of_bits b
