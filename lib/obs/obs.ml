type t = {
  enabled : bool;
  metrics : Metrics.t;
  recorder : Recorder.t option;
  mutable now : int;
}

let create ?(recording = true) ?ring () =
  {
    enabled = true;
    metrics = Metrics.create ();
    recorder =
      (if recording then Some (Recorder.create ?capacity:ring ()) else None);
    now = 0;
  }

let none =
  {
    enabled = false;
    metrics = Metrics.create ();
    recorder = None;
    now = 0;
  }

(* Symmetric no-op on disabled contexts: a disabled [src] carries nothing
   worth folding (its metrics are never written), and folding anything
   into a disabled [into] — in particular the shared [none] — would leak
   state into every kernel that opted out. *)
let merge ~into src =
  if into == src then invalid_arg "Obs.merge: cannot merge a context into itself";
  if into.enabled && src.enabled then begin
    Metrics.merge_into ~into:into.metrics src.metrics;
    into.now <- max into.now src.now
  end

let active t = t.enabled
let metrics t = t.metrics
let recorder t = if t.enabled then t.recorder else None
(* a view like the kernel's metrics: the owning kernel's sync hook
   fills it in *)
let now t =
  Metrics.sync t.metrics;
  t.now

let set_now t cycle = t.now <- cycle

external now_ns : unit -> int = "splice_obs_now_ns" [@@noalloc]

(* Design-cache replay: snapshot the registry/intern-table positions at the
   end of design elaboration, and rewind to them on a cache hit so the
   replayed run's metrics and dumps are byte-identical to a fresh build's. *)
type mark = { mk_metrics : Metrics.mark; mk_recorder : int }

let mark t =
  {
    mk_metrics = Metrics.mark t.metrics;
    mk_recorder = (match t.recorder with Some r -> Recorder.mark r | None -> 0);
  }

let reset_to_mark t m =
  Metrics.reset_to_mark t.metrics m.mk_metrics;
  (match t.recorder with
  | Some r -> Recorder.reset_to_mark r m.mk_recorder
  | None -> ());
  t.now <- 0
