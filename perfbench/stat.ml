(* Clock and summary statistics shared by every workload and probe. One
   clock: bechamel's monotonic clock (CLOCK_MONOTONIC, ns). *)

let now_ns () = Monotonic_clock.now ()
let ns_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0)

(* [time f] = (f (), elapsed ns) *)
let time f =
  let t0 = now_ns () in
  let r = f () in
  (r, ns_since t0)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* 1-based nearest rank of the [p]th percentile of [n] samples (the
   epsilon keeps 99.9% of 10,000 at rank 9,990, not 9,991). *)
let rank ~n p = int_of_float (Float.ceil ((p *. float_of_int n /. 100.) -. 1e-9))

(* Nearest-rank percentile: the smallest sample with at least [p]% of the
   samples at or below it. *)
let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stat.percentile: no samples";
  a.(max 0 (min (n - 1) (rank ~n p - 1)))

let median xs = percentile xs 50.

(* Samples strictly above the nearest-rank [p]th percentile of [n]. *)
let beyond ~n p = n - rank ~n p

(* The highest percentile of the ladder with at least ten samples beyond
   it — the tail a run of [n] samples can report honestly. *)
let ladder = [ 99.9; 99.; 95.; 90.; 50. ]
let tail_percentile n = List.find_opt (fun p -> beyond ~n p >= 10) ladder

(* Paired minima: time every side in interleaved batches, rotating which
   side goes first each round, and keep each side's minimum. A load spike
   hits every side alike and the minimum filters it out. [sides.(i) ()]
   runs one batch and returns its cost per unit. *)
let paired_minima ~reps (sides : (unit -> float) array) =
  let n = Array.length sides in
  let best = Array.make n infinity in
  for r = 0 to reps - 1 do
    for k = 0 to n - 1 do
      let i = (r + k) mod n in
      let t = sides.(i) () in
      if t < best.(i) then best.(i) <- t
    done
  done;
  best

(* How much slower [x] is than [base], in percent. *)
let pct_over x base = (x -. base) /. base *. 100.
