open Splice_bits

(* Compiled op-tape scheduler (see DESIGN.md "Scheduling model").

   [compile] runs once at seal time: it levelizes the sealed component graph
   from the declared sensitivity lists, flattens the signal state
   those lists mention into contiguous structure-of-arrays buffers (the
   immediates of narrow signals — [Signal.narrow] — packed as ints,
   wide signals in a small side table), and emits a linear evaluation
   order. [settle] then walks that
   tape with zero allocation in the steady state: dirtiness is an int
   bitset over tape positions, writes are observed through the domain-local
   [Signal.set_touch] hook (installed only while settling), and reader
   fan-out is a precomputed bitmask OR — no per-signal listener closures,
   no list traversal, no boxing. A component's own announcement
   ([Component.rearm], from its seq) sets its position's bit directly. *)

type t = {
  stamp : int;
      (* process-unique tape id: keys the slot cache stored on each signal
         ([Signal.cache_tape_slot]), so the write hook resolves
         signal -> slot with two field reads once warm *)
  order : Component.t array;
      (* levelized components with a comb callback, writers before
         readers wherever the discovered write sets allow *)
  nwords : int; (* words in the position bitsets: (|order| + 31) / 32 *)
  dirty : int array; (* positions queued for evaluation *)
  slots : Signal.t array; (* slot -> signal, for the snapshot scan *)
  packed : int array;
      (* slot -> last observed immediate of a narrow signal
         ([Signal.narrow]) *)
  wide_idx : int array; (* slot -> index into [wide_vals], or -1 if narrow *)
  wide_vals : Bits.t array; (* side table for wide signals *)
  readers : int array array; (* slot -> bitmask of reader positions *)
  slot_of_uid : (int, int) Hashtbl.t;
      (* Signal.uid -> slot; cold path only — after the first touch the
         slot (or -1 for signals no tape component reads) lives on the
         signal itself, keyed by [stamp] *)
  touch : (Signal.t -> unit) option;
      (* preallocated [Signal.set_touch] hook, [Some] included *)
  mutable last_changes : int;
      (* [Signal.change_count] at the last settle exit: if it has not moved
         since, no signal in the domain changed between settles and the
         snapshot scan is skipped — a quiescent cycle costs O(nwords), like
         the event scheduler's empty-dirty-set shortcut *)
  mutable evals : int; (* component evaluations of the last settle *)
}

exception Divergence of int
(** Passes executed without reaching the fixpoint (= [max_iters]). *)

let stamps = Atomic.make 1
(* signals initialize tape_stamp to 0, so starting at 1 keeps a fresh
   signal's cache stale for every tape *)

let or_readers t slot =
  let m = t.readers.(slot) in
  let d = t.dirty in
  for w = 0 to t.nwords - 1 do
    Array.unsafe_set d w (Array.unsafe_get d w lor Array.unsafe_get m w)
  done

(* The write hook: keep the snapshot current and mark reader positions.
   Installed only between settle entry and exit (all exit paths). *)
let on_touch t s =
  let slot =
    if Signal.tape_stamp s = t.stamp then Signal.tape_slot s
    else begin
      (* cold only on the first touch per (signal, tape) pair *)
      let slot =
        match Hashtbl.find_opt t.slot_of_uid (Signal.uid s) with
        | Some i -> i
        | None -> -1 (* a signal no tape component reads *)
      in
      Signal.cache_tape_slot s ~stamp:t.stamp ~slot;
      slot
    end
  in
  if slot >= 0 then begin
    let wi = t.wide_idx.(slot) in
    if wi < 0 then t.packed.(slot) <- Signal.get_int s
    else t.wide_vals.(wi) <- Signal.get s;
    or_readers t slot
  end

let compile (comps : Component.t array) =
  (* the combinational components, in registration order *)
  let cands =
    Array.of_list
      (List.filter
         (fun (c : Component.t) -> c.Component.has_comb)
         (Array.to_list comps))
  in
  let n = Array.length cands in
  (* intern every signal appearing in a sensitivity list into a slot *)
  let slot_of_uid = Hashtbl.create 64 in
  let slots_rev = ref [] in
  let nslots = ref 0 in
  let intern s =
    let uid = Signal.uid s in
    match Hashtbl.find_opt slot_of_uid uid with
    | Some i -> i
    | None ->
        let i = !nslots in
        incr nslots;
        slots_rev := s :: !slots_rev;
        Hashtbl.add slot_of_uid uid i;
        i
  in
  let reads =
    Array.map
      (fun (c : Component.t) ->
        List.sort_uniq compare (List.map intern c.Component.reads))
      cands
  in
  let nslots = !nslots in
  let slots = Array.of_list (List.rev !slots_rev) in
  let readers_of_slot = Array.make nslots [] in
  Array.iteri
    (fun k rs ->
      List.iter (fun s -> readers_of_slot.(s) <- k :: readers_of_slot.(s)) rs)
    reads;
  (* Write discovery by calibration: evaluate every comb once, in
     registration order (exactly the all-dirty first pass both interpreted
     schedulers start from), with a recording hook installed. Only writes
     that actually change a value are seen — a missed edge costs at most an
     extra delta pass at run time, never correctness, because the settle
     loop below is still a fixpoint iteration. *)
  let writes = Array.make n [] in
  let current = ref (-1) in
  let seen = Hashtbl.create 64 in
  let st = Signal.store () in
  Signal.set_touch st
    (Some
       (fun s ->
         let k = !current in
         if k >= 0 then
           match Hashtbl.find_opt slot_of_uid (Signal.uid s) with
           | Some slot when slot >= 0 ->
               if not (Hashtbl.mem seen (k, slot)) then begin
                 Hashtbl.add seen (k, slot) ();
                 writes.(k) <- slot :: writes.(k)
               end
           | _ -> ()));
  (try
     Array.iteri
       (fun k (c : Component.t) ->
         current := k;
         c.Component.comb ())
       cands
   with e ->
     Signal.set_touch st None;
     raise e);
  Signal.set_touch st None;
  (* Levelize: Kahn's algorithm over the discovered writer -> reader edges,
     ties (and cycles, e.g. combinational feedback through handshakes)
     broken toward the lowest registration index so in-pass propagation
     order stays a subsequence of the interpreted schedulers'. O(n^2) in
     tape length, run once per seal. *)
  let succs = Array.make n [] in
  let indeg = Array.make n 0 in
  let edge_seen = Hashtbl.create 256 in
  Array.iteri
    (fun u ws ->
      List.iter
        (fun slot ->
          List.iter
            (fun v ->
              if v <> u && not (Hashtbl.mem edge_seen (u, v)) then begin
                Hashtbl.add edge_seen (u, v) ();
                succs.(u) <- v :: succs.(u);
                indeg.(v) <- indeg.(v) + 1
              end)
            readers_of_slot.(slot))
        ws)
    writes;
  let emitted = Array.make n false in
  let order_idx = Array.make n 0 in
  let pos = ref 0 in
  while !pos < n do
    let pick = ref (-1) in
    for u = n - 1 downto 0 do
      if (not emitted.(u)) && indeg.(u) = 0 then pick := u
    done;
    if !pick < 0 then
      (* every remaining node sits on a cycle: force the earliest-registered
         one and let the fixpoint loop absorb the feedback *)
      for u = n - 1 downto 0 do
        if not emitted.(u) then pick := u
      done;
    let u = !pick in
    emitted.(u) <- true;
    order_idx.(!pos) <- u;
    incr pos;
    List.iter (fun v -> indeg.(v) <- indeg.(v) - 1) succs.(u)
  done;
  let order = Array.map (fun k -> cands.(k)) order_idx in
  let pos_of_cand = Array.make n 0 in
  Array.iteri (fun p k -> pos_of_cand.(k) <- p) order_idx;
  (* bitmasks over tape positions *)
  let nwords = (n + 31) / 32 in
  let nwords = if nwords = 0 then 1 else nwords in
  let mask_of_positions ps =
    let m = Array.make nwords 0 in
    List.iter (fun p -> m.(p lsr 5) <- m.(p lsr 5) lor (1 lsl (p land 31))) ps;
    m
  in
  let readers =
    Array.map
      (fun ks -> mask_of_positions (List.map (fun k -> pos_of_cand.(k)) ks))
      readers_of_slot
  in
  (* SoA snapshot of the calibrated values *)
  let packed = Array.make (max nslots 1) 0 in
  let wide_idx = Array.make (max nslots 1) (-1) in
  let wides = ref [] in
  let nwide = ref 0 in
  Array.iteri
    (fun slot s ->
      if Signal.narrow s then packed.(slot) <- Signal.get_int s
      else begin
        wide_idx.(slot) <- !nwide;
        incr nwide;
        wides := Signal.get s :: !wides
      end)
    slots;
  let wide_vals = Array.of_list (List.rev !wides) in
  (* first settle evaluates everything once, like the interpreted first pass *)
  let all_dirty = Array.make nwords 0 in
  for p = 0 to n - 1 do
    all_dirty.(p lsr 5) <- all_dirty.(p lsr 5) lor (1 lsl (p land 31))
  done;
  let rec t =
    {
      stamp = Atomic.fetch_and_add stamps 1;
      order;
      nwords;
      dirty = all_dirty;
      slots;
      packed;
      wide_idx;
      wide_vals;
      readers;
      slot_of_uid;
      touch = Some (fun s -> on_touch t s);
      (* force a scan at the first settle: calibration already changed
         signals, and the testbench may poke more before cycle 0 *)
      last_changes = Signal.changes st - 1;
      evals = 0;
    }
  in
  (* the tape's one re-arm path: an announcement queues the position for
     the next settle *)
  Array.iteri
    (fun p (c : Component.t) ->
      let w = p lsr 5 and b = 1 lsl (p land 31) in
      c.Component.arm <- (fun () -> t.dirty.(w) <- t.dirty.(w) lor b))
    order;
  t

let rec any_dirty_from t w =
  w < t.nwords && (Array.unsafe_get t.dirty w <> 0 || any_dirty_from t (w + 1))

let any_dirty t = any_dirty_from t 0

(* Catch state changed outside a settle — testbench pokes between cycles,
   seq-phase [commit_pending] writes — by diffing every slot against the
   snapshot. One linear pass over int arrays, allocation-free. *)
let scan t =
  for slot = 0 to Array.length t.slots - 1 do
    let s = Array.unsafe_get t.slots slot in
    let wi = Array.unsafe_get t.wide_idx slot in
    if wi < 0 then begin
      let v = Signal.get_int s in
      if v <> Array.unsafe_get t.packed slot then begin
        Array.unsafe_set t.packed slot v;
        or_readers t slot
      end
    end
    else begin
      let v = Signal.get s in
      if not (Bits.equal v t.wide_vals.(wi)) then begin
        t.wide_vals.(wi) <- v;
        or_readers t slot
      end
    end
  done

(* One delta pass: every dirty tape position in order. Top-level (no
   closure) so a settle never allocates. *)
let pass t record =
  let order = t.order in
  let n = Array.length order in
  for w = 0 to t.nwords - 1 do
    (* a whole-word skip is safe: a zero word at entry holds no dirty
       position, and marks can only originate from evaluations — which
       the zero word by construction is not running *)
    if Array.unsafe_get t.dirty w <> 0 then begin
      let base = w lsl 5 in
      (* not [min]: the polymorphic compare would run per dirty word *)
      let hi = if n - 1 - base < 31 then n - 1 - base else 31 in
      for j = 0 to hi do
        let b = 1 lsl j in
        if Array.unsafe_get t.dirty w land b <> 0 then begin
          Array.unsafe_set t.dirty w (Array.unsafe_get t.dirty w land lnot b);
          let c = Array.unsafe_get order (base + j) in
          c.Component.comb ();
          (match record with None -> () | Some f -> f c);
          t.evals <- t.evals + 1
        end
      done
    end
  done

let rec passes t st ~max_iters ~record executed productive =
  if not (any_dirty t) then productive
  else if executed >= max_iters then raise (Divergence executed)
  else begin
    let before = Signal.changes st in
    pass t record;
    let changed = Signal.changes st <> before in
    let productive = if changed then productive + 1 else productive in
    (* a change with no tape reader marks nothing dirty *)
    if any_dirty t then passes t st ~max_iters ~record (executed + 1) productive
    else productive
  end

let settle t st ~max_iters ~(record : (Component.t -> unit) option) =
  if Signal.changes st <> t.last_changes then scan t;
  t.evals <- 0;
  Signal.set_touch st t.touch;
  (* manual unwind instead of [Fun.protect]: the hot path must not allocate
     a closure per settle *)
  match passes t st ~max_iters ~record 0 0 with
  | productive ->
      Signal.set_touch st None;
      t.last_changes <- Signal.changes st;
      productive
  | exception e ->
      Signal.set_touch st None;
      raise e

let evals t = t.evals
