type t = {
  name : string;
  comb : unit -> unit;
  reads : Signal.t list;
  seq : unit -> unit;
  has_comb : bool;
  has_seq : bool;
  mutable dirty : bool;
  mutable reg_gen : int;
      (* generation id of the kernel whose fan-out listeners this component
         last registered with (0 = never). A plain [registered] bool here
         was a lifecycle bug: a component reused in a second kernel (or a
         re-created kernel in the same domain) silently skipped registration
         and kept marking the dead kernel's dirty counter. *)
  mutable rec_stamp : int;
  mutable rec_id : int;
      (* cached flight-recorder intern id (see Signal); lets the kernel
         record Comp_eval events without hashing the component name *)
  mutable arm : unit -> unit;
      (* what [rearm] does: queue this component with the scheduler of the
         kernel that sealed it last (a nop before any seal and under the
         sweep, which evaluates everything anyway) *)
  reset : unit -> unit;
      (* restore closure-held state (refs, mutable records) to its
         construction-time value; run by [Kernel.reset] so a cached design
         replays from the exact state a fresh build would start in *)
  sleep : Sleep.t;
      (* the [seq]'s sleep state: one of its own when [make] is given none,
         so the kernel can point every component at its domain's clock *)
}

let nop () = ()

let make ?comb ?seq ?reset ?sleep name =
  let has_comb, reads, comb =
    match comb with
    | Some (reads, f) -> (true, reads, f)
    | None -> (false, [], nop)
  in
  {
    name;
    comb;
    reads;
    seq = (match seq with Some f -> f | None -> nop);
    has_comb;
    has_seq = Option.is_some seq;
    dirty = false;
    reg_gen = 0;
    rec_stamp = 0;
    rec_id = -1;
    arm = nop;
    reset = (match reset with Some f -> f | None -> nop);
    sleep = (match sleep with Some s -> s | None -> Sleep.create ());
  }

let rearm t = t.arm ()
let name t = t.name
