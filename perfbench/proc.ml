(* Child processes and their memory. Every child is waited for; a child
   still running when the benchmark exits is killed first. *)

let live : int list ref = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

let forget pid = live := List.filter (( <> ) pid) !live

let wait pid =
  let rec go () =
    try snd (Unix.waitpid [] pid) with Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  let st = go () in
  forget pid;
  st

(* Peak resident set (VmHWM) of process [pid] ("self" for this one), MB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun l ->
         match String.split_on_char ':' l with
         | [ "VmHWM"; v ] ->
             Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb ->
                 float_of_int kb /. 1024.)
         | _ -> None)
  |> Option.value ~default:nan

(* Start [prog args] with its stdout on [stdout]. *)
let spawn ?(stdout = Unix.stdout) prog args =
  let pid =
    Unix.create_process prog (Array.of_list (prog :: args)) Unix.stdin stdout Unix.stderr
  in
  live := pid :: !live;
  pid

(* Run every job [(prog, args, out)], stdout into the file [out], with at
   most [par] running at once; returns the exit statuses in order. *)
let run_all ~par jobs =
  let jobs = Array.of_list jobs in
  let status = Array.make (Array.length jobs) (Unix.WEXITED 255) in
  let running = Hashtbl.create 4 in
  let next = ref 0 in
  let start () =
    let prog, args, out = jobs.(!next) in
    let fd = Unix.openfile out [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
    let pid = Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> spawn ~stdout:fd prog args) in
    Hashtbl.replace running pid !next;
    incr next
  in
  while !next < Array.length jobs || Hashtbl.length running > 0 do
    if !next < Array.length jobs && Hashtbl.length running < par then start ()
    else begin
      let pid, st =
        try Unix.wait () with Unix.Unix_error (Unix.EINTR, _, _) -> (-1, Unix.WEXITED 0)
      in
      match Hashtbl.find_opt running pid with
      | Some i ->
          Hashtbl.remove running pid;
          forget pid;
          status.(i) <- st
      | None -> ()
    end
  done;
  status
