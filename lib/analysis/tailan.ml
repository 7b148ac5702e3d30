(** Tail-recursion analysis (paper Table 1).

    "For each node, make a list of other nodes that potentially generate
    its value."  We record the dual, which is what later phases consume:
    [n_tail] marks nodes whose value becomes the value of the enclosing
    function with nothing left to do afterwards — exactly the calls that
    compile as "parameter-passing gotos" (paper §2, §5). *)

open S1_ir
open Node

(* [mark n tail] : n is evaluated with [tail] truth within the current
   function body.  The walk passes [tail] down as an argument, allocating
   no closure per node. *)
let rec mark (n : node) (tail : bool) : unit =
  n.n_tail <- tail;
  match n.kind with
  | Term _ | Var _ | Go _ -> ()
  | Setq (_, e) -> mark e false
  | If (p, x, y) ->
      mark p false;
      mark x tail;
      mark y tail
  | Progn xs -> mark_progn xs tail
  | Lambda l ->
      List.iter (fun p -> Option.iter (fun d -> mark d false) p.p_default) l.l_params;
      (* a new function body: its last expression is in tail position of
         that function *)
      mark l.l_body true
  | Call (f, args) ->
      (match f.kind with
      | Lambda l ->
          (* A manifest lambda call (let): the body inherits the call's
             tail position; defaults and arguments are non-tail. *)
          List.iter (fun p -> Option.iter (fun d -> mark d false) p.p_default) l.l_params;
          mark l.l_body tail;
          l.l_body.n_tail <- tail;
          f.n_tail <- false;
          (* Lambda arguments here are local-function candidates
             (Jump/Fast).  A Fast body runs as a subroutine of this
             frame, NOT in function-tail position, so its calls must not
             count as tail — otherwise binding annotation could wire a
             callee as a Jump lambda whose body returns from the whole
             function (a miscompile found by the differential tests).
             Conservatively mark candidate bodies non-tail; the §5
             cascade still gets Jump lambdas because its (f)/(g) calls
             sit in the distribution body itself. *)
          List.iter
            (fun a ->
              match a.kind with
              | Lambda al ->
                  a.n_tail <- false;
                  List.iter
                    (fun p -> Option.iter (fun d -> mark d false) p.p_default)
                    al.l_params;
                  mark al.l_body false
              | _ -> mark a false)
            args
      | _ ->
          mark f false;
          List.iter (fun a -> mark a false) args)
  | Caseq (key, clauses, default) ->
      mark key false;
      mark_clauses clauses tail;
      (match default with Some d -> mark d tail | None -> ())
  | Catcher (tag, body) ->
      mark tag false;
      (* the catch frame must be popped after the body: not a tail context *)
      mark body false
  | Progbody pb ->
      List.iter (function Ptag _ -> () | Pstmt s -> mark s false) pb.pb_items
  | Return e ->
      (* return exits the progbody, whose own tailness was recorded when
         we visited it; conservatively non-tail (the progbody epilogue
         may need to run) *)
      mark e false

and mark_progn xs tail =
  match xs with
  | [] -> ()
  | [ last ] -> mark last tail
  | x :: rest ->
      mark x false;
      mark_progn rest tail

and mark_clauses clauses tail =
  match clauses with
  | [] -> ()
  | (_, body) :: rest ->
      mark body tail;
      mark_clauses rest tail

let run (root : node) : unit = mark root true
