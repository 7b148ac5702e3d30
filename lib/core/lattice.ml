(** The optimization lattice, spelled once.

    A point sets every switch that changes the emitted code: the §4
    source rules ([Rules.config]), the machine-dependent annotations and
    ablations ([Gen.options]), and the §4.3 CSE extension.  [axes] has
    one row per field, giving its key in the canonical string, its s1lc
    flag (if any) and a getter/setter.  Generated from it: the s1lc
    toggles ([switches], parsed by [of_flags]), the canonical string in
    every cache key, image and incident repro ([canonical]), and — as
    flag lists — the fuzz oracle's points and the degradation rungs. *)

module Rules = S1_transform.Rules
module Gen = S1_codegen.Gen

type point = { rules : Rules.config; options : Gen.options; cse : bool }

let default = { rules = Rules.default_config; options = Gen.default_options; cse = false }

(* A flag moves its axis to [f_value]; a bool axis holds 0 or 1. *)
type flag = { f_name : string; f_doc : string; f_value : int }
type axis = {
  key : string;  (** the field's name in the canonical string *)
  flag : flag option;
  get : point -> int;
  set : int -> point -> point;
}

let flagged key f_name f_value f_doc get set =
  { key; flag = Some { f_name; f_doc; f_value };
    get = (fun p -> Bool.to_int (get p)); set = (fun v p -> set p (v <> 0)) }

let rule key name doc get set =
  flagged key name 0 doc (fun p -> get p.rules) (fun p b -> { p with rules = set p.rules b })

let size key get set =
  { key; flag = None; get = (fun p -> get p.rules);
    set = (fun v p -> { p with rules = set p.rules v }) }

let option key name value doc get set =
  flagged key name value doc (fun p -> get p.options) (fun p b ->
      { p with options = set p.options b })

(* Table order is canonical-string order: reordering rows, or renaming a
   key, changes every content address. *)
let axes : axis list =
  [
    rule "beta" "no-beta" "Disable the three beta-conversion rules."
      (fun r -> r.Rules.beta) (fun r beta -> { r with beta });
    rule "fold" "no-fold" "Disable compile-time expression evaluation."
      (fun r -> r.Rules.fold) (fun r fold -> { r with fold });
    rule "ifopt" "no-ifopt" "Disable conditional simplification and distribution."
      (fun r -> r.Rules.ifopt) (fun r ifopt -> { r with ifopt });
    rule "assoc" "no-assoc" "Disable associative/commutative canonicalization."
      (fun r -> r.Rules.assoc) (fun r assoc -> { r with assoc });
    rule "identities" "no-identities" "Disable identity-operand elimination."
      (fun r -> r.Rules.identities) (fun r identities -> { r with identities });
    rule "deadcode" "no-deadcode" "Disable dead-code elimination."
      (fun r -> r.Rules.deadcode) (fun r deadcode -> { r with deadcode });
    rule "sinc" "no-sinc" "Disable the sin\\$f -> sinc\\$f strength reduction."
      (fun r -> r.Rules.sinc) (fun r sinc -> { r with sinc });
    rule "integrate" "no-integrate" "Disable procedure integration."
      (fun r -> r.Rules.integrate) (fun r integrate -> { r with integrate });
    rule "typed_specialize" "no-specialize" "Disable declared-type specialization."
      (fun r -> r.Rules.typed_specialize)
      (fun r typed_specialize -> { r with typed_specialize });
    size "max_integrate" (fun r -> r.Rules.max_integrate_size) (fun r max_integrate_size ->
        { r with max_integrate_size });
    size "max_duplicate" (fun r -> r.Rules.max_duplicate_size) (fun r max_duplicate_size ->
        { r with max_duplicate_size });
    option "checked" "unchecked" 0 "Compile without run-time type checks."
      (fun o -> o.Gen.checked) (fun o checked -> { o with checked });
    option "tnbind" "no-tnbind" 0 "Disable TNBIND packing: every TN to a frame slot."
      (fun o -> o.Gen.use_tnbind) (fun o use_tnbind -> { o with use_tnbind });
    option "pdl" "no-pdl" 0 "Disable pdl numbers: heap-allocate all number boxes."
      (fun o -> o.Gen.pdl_numbers) (fun o pdl_numbers -> { o with pdl_numbers });
    option "cache_specials" "no-cache-specials" 0 "Disable the special-variable lookup cache."
      (fun o -> o.Gen.cache_specials) (fun o cache_specials -> { o with cache_specials });
    option "inline_prims" "no-inline-prims" 0
      "Compile every primitive as a call to its native."
      (fun o -> o.Gen.inline_prims) (fun o inline_prims -> { o with inline_prims });
    option "peephole" "peephole" 1 "Enable branch tensioning and dead-code peephole (§4.5)."
      (fun o -> o.Gen.peephole) (fun o peephole -> { o with peephole });
    flagged "cse" "cse" 1 "Enable common-subexpression elimination (§4.3)."
      (fun p -> p.cse) (fun p cse -> { p with cse });
  ]

(* Compile-time guard: warning 9 is fatal in this tree, so a field added
   to Rules.config or Gen.options fails to build here.  Give it a row in
   [axes] first, then list it below. *)
let _every_field_has_a_row
    { rules = { Rules.beta = _; fold = _; ifopt = _; assoc = _; identities = _; deadcode = _;
                sinc = _; integrate = _; typed_specialize = _; max_integrate_size = _;
                max_duplicate_size = _ };
      options = { Gen.checked = _; use_tnbind = _; pdl_numbers = _; cache_specials = _;
                  inline_prims = _; peephole = _ };
      cse = _ } = ()

(** [key=value] for every axis, in table order. *)
let canonical (p : point) : string =
  String.concat " " (List.map (fun a -> a.key ^ "=" ^ string_of_int (a.get p)) axes)

(** An s1lc toggle: its names (the first is canonical) and its effect. *)
type switch = { names : string list; doc : string; apply : point -> point }

(* --no-opt is a preset over the rule axes: every rewrite family off and
   both size bounds at zero. *)
let switches : switch list =
  { names = [ "no-opt"; "O0" ]; doc = "Disable the source-level optimizer.";
    apply = (fun p -> { p with rules = Rules.nothing }) }
  :: List.filter_map
       (fun a ->
         Option.map (fun f -> { names = [ f.f_name ]; doc = f.f_doc; apply = a.set f.f_value })
           a.flag)
       axes

(** Apply s1lc flags (["--no-tnbind"], ["--O0"], …) to [base] (default:
    the default point).  Every switch moves its axes towards a fixed
    value, so flag order does not matter. *)
let of_flags ?(base = default) (flags : string list) : point =
  List.fold_left
    (fun p flag ->
      let named s = List.exists (fun n -> "--" ^ n = flag) s.names in
      match List.find_opt named switches with
      | Some s -> s.apply p
      | None -> invalid_arg ("Lattice.of_flags: unknown flag " ^ flag))
    base flags

(** [of_flags] over a space-separated flag string, as repro lines print it. *)
let of_string ?base s = of_flags ?base (List.filter (( <> ) "") (String.split_on_char ' ' s))
