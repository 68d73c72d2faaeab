type t = {
  enabled : bool;
  metrics : Metrics.t;
  recorder : Recorder.t option;
}

let create ?(recording = true) ?ring () =
  {
    enabled = true;
    metrics = Metrics.create ();
    recorder =
      (if recording then Some (Recorder.create ?capacity:ring ()) else None);
  }

let none = { enabled = false; metrics = Metrics.create (); recorder = None }

(* Symmetric no-op on disabled contexts: a disabled [src] carries nothing
   worth folding (its metrics are never written), and folding anything
   into a disabled [into] — in particular the shared [none] — would leak
   state into every kernel that opted out. *)
let merge ~into src =
  if into == src then invalid_arg "Obs.merge: cannot merge a context into itself";
  if into.enabled && src.enabled then
    Metrics.merge_into ~into:into.metrics src.metrics

let active t = t.enabled

(* A disabled context keeps no state: it hands out a fresh throwaway
   registry on every request, so a handle registered on it is attached to
   nothing shared. Every pool domain builds hosts on the one [none], and
   a shared registry would collect their metrics (and their kernels'
   sync hooks) for the life of the process. *)
let metrics t = if t.enabled then t.metrics else Metrics.create ()
let recorder t = if t.enabled then t.recorder else None

external now_ns : unit -> int = "splice_obs_now_ns" [@@noalloc]
