(* Table 4 of the paper interleaves the compiled instructions with the
   source forms they came from.  This renderer reproduces that view and
   adds what the paper could not print: measured cycle counts per
   instruction, joined from the profiler's per-PC tables. *)

let hdr = "   pc      cycles   execs  instruction"

(* Render one loaded program.  [source file] returns the file's lines
   (0-based array) when the driver still has them; unknown files fall
   back to printing just the position. *)
let render (cpu : Cpu.t) ~(source : string -> string array option) ~name ~org
    (prog : Asm.program) : string =
  let b = Buffer.create 1024 in
  Printf.bprintf b ";;; %s — annotated listing (org %d)\n%s\n" name org hdr;
  let last_line = ref ("", 0) in
  let idx = ref 0 in
  List.iter
    (fun (item : Asm.item) ->
      match item with
      | Asm.Mark (node, loc) -> (
          match loc with
          | Some l ->
              let key = (l.S1_loc.Loc.file, l.S1_loc.Loc.line) in
              if key <> !last_line then begin
                last_line := key;
                match source l.S1_loc.Loc.file with
                | Some lines when l.S1_loc.Loc.line >= 1 && l.S1_loc.Loc.line <= Array.length lines
                  ->
                    Printf.bprintf b "\n; %s: %s\n" (S1_loc.Loc.to_string l)
                      (String.trim lines.(l.S1_loc.Loc.line - 1))
                | _ -> Printf.bprintf b "\n; %s: (node %d)\n" (S1_loc.Loc.to_string l) node
              end
          | None -> ())
      | Asm.Label l -> Printf.bprintf b "%s\n" l
      | Asm.Comment c -> Printf.bprintf b "%30s; %s\n" "" c
      | Asm.Data (l, ws) ->
          Printf.bprintf b "%s  (DATA: %d words)\n" l (List.length ws)
      | Asm.Instr i ->
          let pc = org + !idx in
          incr idx;
          let cyc, execs = Cpu.pc_counts cpu pc in
          Printf.bprintf b "%5d %11d %7d  %s\n" pc cyc execs
            (Format.asprintf "%a" Isa.pp_instr i))
    prog;
  Buffer.contents b
