(* Digest s1lc's introspection output: [pin S1LC FILE...] runs
   [S1LC POINT VIEW FILE] for every lattice point and view below and
   prints one line per run: the MD5 of its stdout, the view, the point
   and the file, plus the exit status when it is not 0.

   The profiler views run at two points, and the listing and the TN
   report also run with pdl numbers off and with special caching off.  A view naming the file [F]
   writes an export there (a temporary file); its digest covers stdout
   followed by that file.

   [pin --images S1LC FILE...] pins the compile service's image bytes
   instead: one [--serve-batch --serve-out DIR] run over all the files
   per image point, then one line per image written: its MD5, the point
   and the image's name. *)

let points = [ []; [ "--no-tnbind" ]; [ "--cse"; "--peephole" ] ]
let views =
  [ [ "--tns" ]; [ "--listing" ]; [ "--transcript" ]; [ "--stats" ];
    [ "--remarks=passed,missed,analysis" ] ]
let profiler_points = [ []; [ "--no-tnbind" ] ]

let profiler_views =
  [ [ "--profile"; "--folded"; "F" ]; [ "--annotate" ]; [ "--trace-events"; "F" ] ]

(* Annotation's pdl-slot, special-cache and jump-link order shows in the
   listing and the TN report only where those features are on; these
   points pin the text with each of them off. *)
let feature_off_points = [ [ "--no-pdl" ]; [ "--no-cache-specials" ] ]
let feature_off_views = [ [ "--listing" ]; [ "--tns" ] ]

let run prog args =
  let ic = Unix.open_process_args_in prog (Array.of_list (prog :: args)) in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> (out, "")
  | Unix.WEXITED n -> (out, Printf.sprintf " exit %d" n)
  | Unix.WSIGNALED n | Unix.WSTOPPED n -> (out, Printf.sprintf " signal %d" n)

let run_view s1lc point view file =
  let export = Filename.temp_file "pin" ".out" in
  let args = List.map (fun a -> if a = "F" then export else a) view in
  let out, status = run s1lc (point @ args @ [ file ]) in
  let written = In_channel.with_open_bin export In_channel.input_all in
  Sys.remove export;
  (out ^ written, status)

let pin s1lc files (points, views) =
  List.iter
    (fun view ->
      List.iter
        (fun point ->
          List.iter
            (fun file ->
              let out, status = run_view s1lc point view file in
              let point = if point = [] then "default" else String.concat " " point in
              Printf.printf "%s %s [%s] %s%s\n"
                (Digest.to_hex (Digest.string out))
                (String.concat " " view) point (Filename.basename file) status)
            files)
        points)
    views

let image_points = [ []; [ "--cse" ]; [ "--no-tnbind" ] ]

(* Run [prog args] with stdout and stderr discarded; its exit status. *)
let run_quiet prog args =
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid = Unix.create_process prog (Array.of_list (prog :: args)) Unix.stdin null null in
  Unix.close null;
  match snd (Unix.waitpid [] pid) with
  | Unix.WEXITED 0 -> ""
  | Unix.WEXITED n -> Printf.sprintf " exit %d" n
  | Unix.WSIGNALED n | Unix.WSTOPPED n -> Printf.sprintf " signal %d" n

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let pin_images s1lc files =
  List.iter
    (fun point ->
      let dir = Filename.temp_dir "pin" ".images" in
      let status = run_quiet s1lc (("--serve-batch" :: files) @ point @ [ "--serve-out"; dir ]) in
      let point = if point = [] then "default" else String.concat " " point in
      if status <> "" then Printf.printf "--serve-batch [%s]%s\n" point status;
      Array.iter
        (fun image ->
          Printf.printf "%s [%s] %s\n"
            (Digest.to_hex (Digest.file (Filename.concat dir image)))
            point image)
        (let names = Sys.readdir dir in
         Array.sort compare names;
         names);
      rm_rf dir)
    image_points

let () =
  match Array.to_list Sys.argv with
  | _ :: "--images" :: s1lc :: files -> pin_images s1lc files
  | _ :: s1lc :: files -> List.iter (pin s1lc files)
        [ (points, views); (profiler_points, profiler_views);
          (feature_off_points, feature_off_views) ]
  | _ ->
      prerr_endline "usage: pin [--images] S1LC FILE...";
      exit 2
