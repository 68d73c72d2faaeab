open Splice_bits
module Recorder = Splice_obs.Recorder

type t = {
  signals : Signal.t array;
  recorder : Recorder.t;
  start : int; (* the recorder's [total] at [create] *)
  init : Bits.t array; (* the traced values at [create] *)
}

let create kernel signals =
  let names = List.map Signal.name signals in
  if List.length (List.sort_uniq String.compare names) < List.length names then
    invalid_arg "Wave.create: two traced signals share a name";
  match Splice_obs.Obs.recorder (Kernel.obs kernel) with
  | None -> invalid_arg "Wave.create: the kernel has no flight recorder"
  | Some recorder ->
      let signals = Array.of_list signals and start = Recorder.total recorder in
      { signals; recorder; start; init = Array.map Signal.get signals }

(* a value as the recorder keeps it, its low 63 bits: a 64-bit signal's
   comes back 63 bits wide, which marks its bit 63 unknown *)
let low63 s x = Bits.create ~width:(min 63 (Signal.width s)) x
let unknown_top s v = Bits.width v < Signal.width s

(* (tick, values) per tick since [create], oldest first: the window's
   changes replayed over the snapshot, a column closed at each settle's
   [Sched_pass] — a recording kernel steps every tick. *)
let columns t =
  let fresh = Recorder.total t.recorder - t.start in
  if fresh > Recorder.capacity t.recorder then
    Printf.ksprintf failwith
      "Wave: the ring dropped events since Wave.create; this window needs \
       Obs.create ~ring:%d" fresh;
  let events = Recorder.events t.recorder in
  let skip = List.length events - fresh in
  let cur = Array.copy t.init in
  let cols = ref [] in
  List.iteri
    (fun i (e : Recorder.event) ->
      if i >= skip then
        match e.e_kind with
        | Signal_change ->
            Array.iteri
              (fun j s ->
                if String.equal (Signal.name s) e.e_subject then
                  cur.(j) <- low63 s (Int64.of_int e.e_arg))
              t.signals
        | Sched_pass -> cols := (e.e_cycle, Array.copy cur) :: !cols
        | _ -> ())
    events;
  Array.iteri
    (fun j s ->
      let v = cur.(j) and live = Signal.get s in
      let live = if unknown_top s v then low63 s (Bits.to_int64 live) else live in
      if not (Bits.equal v live) then
        failwith ("Wave: " ^ Signal.name s ^ " was written outside a recorded tick"))
    t.signals;
  Array.of_list (List.rev !cols)

let render t =
  let cols = columns t in
  let buf = Buffer.create 256 in
  let name_width =
    Array.fold_left (fun m s -> max m (String.length (Signal.name s))) 0 t.signals
  in
  Array.iteri
    (fun i s ->
      Printf.bprintf buf "%-*s " name_width (Signal.name s);
      Array.iteri
        (fun c (_, col) ->
          let v = col.(i) in
          if Signal.width s = 1 then
            Buffer.add_char buf (if Bits.to_bool v then '#' else '_')
          else if c > 0 && Bits.equal v (snd cols.(c - 1)).(i) then
            Buffer.add_string buf ". "
          else
            Printf.bprintf buf "%s%s " (Bits.to_hex_string v)
              (if unknown_top s v then "?" else ""))
        cols;
      Buffer.add_char buf '\n')
    t.signals;
  Buffer.contents buf

let history t s =
  let i = Array.find_index (( == ) s) t.signals in
  let i = match i with Some i -> i | None -> raise Not_found in
  Array.fold_right
    (fun (_, col) acc ->
      if unknown_top s col.(i) then
        invalid_arg ("Wave.history: the recorder keeps 63 bits of " ^ Signal.name s);
      col.(i) :: acc)
    (columns t) []

(* VCD identifier codes: printable ASCII 33..126 *)
let rec id_of_index i =
  let c = String.make 1 (Char.chr (33 + (i mod 94))) in
  if i < 94 then c else id_of_index ((i / 94) - 1) ^ c

let vcd t ~module_name =
  let cols = columns t in
  let b = Buffer.create 1024 in
  Printf.bprintf b
    "$date today $end\n$version splice-sim $end\n$timescale 10ns $end\n\
     $scope module %s $end\n" module_name;
  Array.iteri
    (fun i s ->
      Printf.bprintf b "$var wire %d %s %s $end\n" (Signal.width s)
        (id_of_index i) (Signal.name s))
    t.signals;
  Buffer.add_string b "$upscope $end\n$enddefinitions $end\n#0\n";
  let emit i v =
    let s = t.signals.(i) and id = id_of_index i in
    if Signal.width s = 1 then Printf.bprintf b "%d%s\n" (Bits.to_int v) id
    else
      let x = if unknown_top s v then "x" else "" in
      Printf.bprintf b "b%s%s %s\n" x (Bits.to_binary_string v) id
  in
  Array.iteri emit t.init;
  let prev = ref t.init in
  Array.iter
    (fun (tick, col) ->
      Printf.bprintf b "#%d\n" (tick + 1);
      Array.iteri (fun i v -> if not (Bits.equal !prev.(i) v) then emit i v) col;
      prev := col)
    cols;
  Buffer.contents b
