let bits = 36
let mask = (1 lsl 36) - 1
let addr_mask = (1 lsl 31) - 1
let sign_bit = 1 lsl 35

let of_int n = n land mask
let to_signed w = if w land sign_bit <> 0 then w - (1 lsl 36) else w land mask
let add a b = (a + b) land mask
let sub a b = (a - b) land mask
let mul a b = (to_signed a * to_signed b) land mask
let neg a = (-a) land mask
let logand a b = a land b land mask
let logor a b = (a lor b) land mask
let logxor a b = (a lxor b) land mask
let lognot a = lnot a land mask

let shift w n =
  if n >= 0 then (w lsl n) land mask
  else
    let s = to_signed w in
    (s asr -n) land mask

let make_ptr ~tag ~addr = ((tag land 0x1f) lsl 31) lor (addr land addr_mask)
let tag_of w = (w lsr 31) land 0x1f
let addr_of w = w land addr_mask

let datum_signed w =
  let d = w land addr_mask in
  if d land (1 lsl 30) <> 0 then d - (1 lsl 31) else d

let fixnum_min = -(1 lsl 30)
let fixnum_max = (1 lsl 30) - 1
let pp fmt w = Format.fprintf fmt "%#o" (w land mask)
