module Mem = S1_machine.Mem
module Word = S1_machine.Word
module Tags = S1_machine.Tags

type where = [ `Heap | `Static ]

type t = { mem : S1_machine.Mem.t; heap : Heap.t; nil : int }

(* NIL's payload lives at a fixed spot in the SQ page: two words that both
   contain the NIL word itself, so that compiled (car nil) and (cdr nil)
   read NIL with no special casing. *)
let nil_payload_addr = 2

let create mem heap =
  let nil = Word.make_ptr ~tag:(Tags.to_int Tags.Symbol) ~addr:nil_payload_addr in
  Mem.write mem nil_payload_addr nil;
  Mem.write mem (nil_payload_addr + 1) nil;
  { mem; heap; nil }

let mk tag addr = Word.make_ptr ~tag:(Tags.to_int tag) ~addr
let tag_of w = Tags.of_int (Word.tag_of w)

(* Immediates -------------------------------------------------------------- *)

let fixnum n =
  if n < Word.fixnum_min || n > Word.fixnum_max then
    invalid_arg (Printf.sprintf "fixnum out of range: %d" n)
  else mk Tags.Fixnum (n land Word.addr_mask)

let fixnum_value w = Word.datum_signed w
let is_fixnum w = tag_of w = Tags.Fixnum
let char_ c = mk Tags.Char (Char.code c)
let char_value w = Char.chr (Word.addr_of w land 0x1FF)
let unbound = mk Tags.Unbound 0

(* Allocation -------------------------------------------------------------- *)

let alloc ?(where = `Heap) t kind n =
  match where with
  | `Heap -> Heap.alloc t.heap kind n
  | `Static ->
      let a = Mem.alloc_static t.mem n in
      for i = 0 to n - 1 do
        Mem.write t.mem (a + i) 0
      done;
      a

(* Conses ------------------------------------------------------------------ *)

let cons ?where t kar kdr =
  let a = alloc ?where t Heap.Cons 2 in
  Mem.write t.mem a kar;
  Mem.write t.mem (a + 1) kdr;
  mk Tags.List a

let is_nil t w = w = t.nil

let check_list t w op =
  if tag_of w = Tags.List || is_nil t w then Word.addr_of w
  else failwith (Printf.sprintf "%s: not a list (tag %s)" op (Tags.name (tag_of w)))

let car t w = Mem.read t.mem (check_list t w "car")
let cdr t w = Mem.read t.mem (check_list t w "cdr" + 1)

let set_car t w v =
  if is_nil t w then failwith "set-car: nil" else Mem.write t.mem (check_list t w "set-car") v

let set_cdr t w v =
  if is_nil t w then failwith "set-cdr: nil"
  else Mem.write t.mem (check_list t w "set-cdr" + 1) v

let is_cons t w = tag_of w = Tags.List && not (is_nil t w)

let list_of ?where t items = List.fold_right (fun x acc -> cons ?where t x acc) items t.nil

let to_list t w =
  let rec go w acc n =
    if n > 10_000_000 then failwith "to_list: list too long or circular"
    else if is_nil t w then List.rev acc
    else if tag_of w = Tags.List then go (cdr t w) (car t w :: acc) (n + 1)
    else failwith "to_list: dotted list"
  in
  go w [] 0

(* Numbers ------------------------------------------------------------------ *)

let single_word ?where t w =
  let a = alloc ?where t Heap.Single 1 in
  Mem.write t.mem a w;
  mk Tags.Single_flonum a

let single ?where t f = single_word ?where t (S1_machine.Float36.encode_single f)

let single_value t w = S1_machine.Float36.decode_single (Mem.read t.mem (Word.addr_of w))

let double ?where t f =
  let a = alloc ?where t Heap.Double 2 in
  let hi, lo = S1_machine.Float36.encode_double f in
  Mem.write t.mem a hi;
  Mem.write t.mem (a + 1) lo;
  mk Tags.Double_flonum a

let double_value t w =
  let a = Word.addr_of w in
  S1_machine.Float36.decode_double (Mem.read t.mem a, Mem.read t.mem (a + 1))

(* The sign word also carries the digit count: [count << 1 | signbit], so
   the representation is self-describing in heap and static space alike. *)
let bignum ?where t b =
  let mag = Bignum.digits b in
  let n = Array.length mag in
  let a = alloc ?where t Heap.Bignum_obj (n + 1) in
  Mem.write t.mem a ((n lsl 1) lor (if Bignum.sign b < 0 then 1 else 0));
  Array.iteri (fun i d -> Mem.write t.mem (a + 1 + i) d) mag;
  mk Tags.Bignum a

let bignum_value t w =
  let a = Word.addr_of w in
  let w0 = Mem.read t.mem a in
  let sign = if w0 land 1 = 1 then -1 else 1 in
  let n = w0 lsr 1 in
  let mag = Array.init n (fun i -> Mem.read t.mem (a + 1 + i)) in
  Bignum.of_digits ~sign mag

let integer ?where t b =
  if Bignum.fits_fixnum b then
    fixnum (match Bignum.to_int_opt b with Some v -> v | None -> assert false)
  else bignum ?where t b

let ratio ?where t num den =
  let a = alloc ?where t Heap.Ratio_obj 2 in
  Mem.write t.mem a num;
  Mem.write t.mem (a + 1) den;
  mk Tags.Ratio a

let ratio_parts t w =
  let a = Word.addr_of w in
  (Mem.read t.mem a, Mem.read t.mem (a + 1))

let complex ?where t re im =
  let a = alloc ?where t Heap.Complex_obj 2 in
  Mem.write t.mem a re;
  Mem.write t.mem (a + 1) im;
  mk Tags.Complex a

let complex_parts t w =
  let a = Word.addr_of w in
  (Mem.read t.mem a, Mem.read t.mem (a + 1))

(* Strings: 9-bit bytes, four to a word (the S-1 is quarter-word
   addressable with 9-bit bytes). *)

let string_words len = (len + 3) / 4

let string_ ?where t s =
  let len = String.length s in
  let a = alloc ?where t Heap.String_obj (1 + string_words len) in
  Mem.write t.mem a len;
  String.iteri
    (fun i c ->
      let wi = a + 1 + (i / 4) and sh = 9 * (i mod 4) in
      Mem.write t.mem wi (Mem.read t.mem wi lor (Char.code c lsl sh)))
    s;
  mk Tags.String a

let string_value t w =
  let a = Word.addr_of w in
  let len = Mem.read t.mem a in
  String.init len (fun i ->
      let wi = a + 1 + (i / 4) and sh = 9 * (i mod 4) in
      Char.chr ((Mem.read t.mem wi lsr sh) land 0xFF))

(* Vectors ------------------------------------------------------------------- *)

let vector ?where t elems =
  let n = Array.length elems in
  let a = alloc ?where t Heap.Vector_obj (1 + n) in
  Mem.write t.mem a n;
  Array.iteri (fun i v -> Mem.write t.mem (a + 1 + i) v) elems;
  mk Tags.Vector a

let vector_length t w = Mem.read t.mem (Word.addr_of w)

let vector_ref t w i =
  let a = Word.addr_of w in
  let n = Mem.read t.mem a in
  if i < 0 || i >= n then failwith (Printf.sprintf "vector-ref: index %d out of range %d" i n)
  else Mem.read t.mem (a + 1 + i)

let vector_set t w i v =
  let a = Word.addr_of w in
  let n = Mem.read t.mem a in
  if i < 0 || i >= n then failwith (Printf.sprintf "vector-set: index %d out of range %d" i n)
  else Mem.write t.mem (a + 1 + i) v

(* Symbols -------------------------------------------------------------------- *)

let symbol t name =
  let name_w = string_ ~where:`Static t name in
  let a = alloc ~where:`Static t Heap.Symbol 5 in
  Mem.write t.mem a name_w;
  Mem.write t.mem (a + 1) unbound;
  Mem.write t.mem (a + 2) unbound;
  Mem.write t.mem (a + 3) t.nil;
  Mem.write t.mem (a + 4) 0;
  mk Tags.Symbol a

let symbol_name t w =
  if is_nil t w then "NIL" else string_value t (Mem.read t.mem (Word.addr_of w))

let check_symbol t w op =
  if is_nil t w then failwith (op ^ ": NIL has no mutable cells here")
  else if tag_of w = Tags.Symbol then Word.addr_of w
  else failwith (op ^ ": not a symbol")

let symbol_value_cell t w = check_symbol t w "symbol-value-cell" + 1
let symbol_function_cell t w = check_symbol t w "symbol-function-cell" + 2
let symbol_plist_cell t w = check_symbol t w "symbol-plist-cell" + 3
let symbol_is_special t w = Mem.read t.mem (check_symbol t w "special?" + 4) land 1 = 1

let symbol_set_special t w =
  let a = check_symbol t w "proclaim special" in
  Mem.write t.mem (a + 4) (Mem.read t.mem (a + 4) lor 1)

(* Functions -------------------------------------------------------------------- *)

let code ?where t ~entry ~name ~min_args ~max_args =
  let a = alloc ?where t Heap.Code_obj 4 in
  Mem.write t.mem a entry;
  Mem.write t.mem (a + 1) name;
  Mem.write t.mem (a + 2) min_args;
  Mem.write t.mem (a + 3) (max_args land Word.mask);
  mk Tags.Code a

(* The CALL microcode reads the entry through the code object's payload
   (word 0), so a Code-tagged word always denotes one of these objects. *)

let code_name t w = Mem.read t.mem (Word.addr_of w + 1)

let closure ?where t ~code ~env =
  let a = alloc ?where t Heap.Closure_obj 2 in
  Mem.write t.mem a code;
  Mem.write t.mem (a + 1) env;
  mk Tags.Closure a

let closure_code t w = Mem.read t.mem (Word.addr_of w)
let closure_env t w = Mem.read t.mem (Word.addr_of w + 1)
