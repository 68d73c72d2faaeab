(** Compiled op-tape scheduler: the sealed design, levelized and flattened.

    {!compile} turns a sealed component array into a linear evaluation tape:

    + {e levelize} — build the writer→reader graph from the declared
      sensitivity lists (writes discovered by a one-shot calibration
      pass with a recording {!Signal.set_touch} hook) and order it with
      Kahn's algorithm, registration index breaking ties and combinational
      cycles;
    + {e SoA flatten} — intern every read signal into a slot of contiguous
      structure-of-arrays buffers: narrow signals' immediates
      ({!Signal.narrow}) packed as ints, wide signals in a [Bits.t]
      side table;
    + {e tape emit} — precompute, per slot, the bitmask of reader
      positions, and point each component's {!Component.rearm} at its own
      position's bit.

    {!settle} then walks the tape with zero allocation in the steady state:
    dirtiness is an int bitset over tape positions; writes flow through the
    domain-local touch hook (installed only while settling) straight into a
    bitmask OR, and a component's announcement from its seq sets its bit
    for the next settle. Settled values are bit-identical to the
    [`Event`]/[`Sweep`] schedulers — the tape still iterates to the same
    fixpoint, it only schedules fewer, better-ordered evaluations.

    A tape snapshots value state at compile time and re-syncs by diffing
    slots at every settle entry, so testbench writes between cycles and
    seq-phase commits are picked up without any listener registration. *)

type t

exception Divergence of int
(** Raised by {!settle} with the number of passes executed when the fixpoint
    is not reached within [max_iters]. The touch hook is detached first. *)

val compile : Component.t array -> t
(** [compile comps] builds the tape for a sealed kernel's forward-order
    component array. Runs every comb callback once (the calibration pass —
    exactly the all-dirty first pass the interpreted schedulers start from),
    so signals settle toward the same first-cycle fixpoint. *)

val settle :
  t -> Signal.store -> max_iters:int -> record:(Component.t -> unit) option -> int
(** [settle t st ~max_iters ~record] runs delta passes until quiescent and
    returns the number of productive passes — a pass is productive when
    it changed at least one signal (the iteration accounting of
    {!Kernel.stats}; a change made by {!compile}'s calibration pass
    belongs to no settle and is not counted); {!evals} then holds the
    settle's evaluation count.
    [record] is the kernel's preallocated flight-recorder hook ([None] when
    recording is off). [st] is the domain's signal store, looked up once
    per tick by the kernel; the change counter and the touch hook are
    read and set through it. Allocates nothing. *)

val evals : t -> int
(** Component evaluations performed by the last {!settle}. *)
