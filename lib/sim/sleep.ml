type clock = { mutable edge : int }

type t = {
  wake_on : Signal.t list;
  mutable until : int;
  mutable clock : clock;
  mutable honoured : bool;
  mutable gen : int;
}

(* the counter of a process registered nowhere; no kernel advances it *)
let unclocked = { edge = 0 }

let create ?(wake_on = []) () =
  { wake_on; until = 0; clock = unclocked; honoured = false; gen = 0 }

let[@inline] now s = s.clock.edge
let[@inline] sleep_until s e = s.until <- e
let[@inline] sleep s = s.until <- max_int
let[@inline] wake s = s.until <- 0
let[@inline] awake s = s.until <= s.clock.edge
let[@inline] honoured s = s.honoured
let attach s c = s.clock <- c

let seal s ~gen ~honoured =
  s.honoured <- honoured;
  if honoured && s.gen <> gen then begin
    s.gen <- gen;
    List.iter
      (fun sg -> Signal.on_change sg (fun () -> if s.gen = gen then s.until <- 0))
      s.wake_on
  end
