(** The Splice Interface Standard signal bundle (Fig 4.2) and its protocol
    decoder (§4.2).

    This is the shared interface between a native bus adapter (bus side) and
    the generated arbiter + user-logic stubs (peripheral side). Broadcast
    signals are driven by the adapter; the output signals are the arbiter's
    mux of the per-function ports. *)

open Splice_sim
open Splice_bits

type transfer = Idle | Write | Read

type t = {
  rst : Signal.t;  (** broadcast reset *)
  data_in : Signal.t;  (** bus_width bits, processor → logic *)
  data_in_valid : Signal.t;
  io_enable : Signal.t;
      (** strobed for one cycle at each new read/write request (§4.2.1
          explains why FUNC_ID alone is not enough) *)
  func_id : Signal.t;  (** func_id_width bits; id 0 = status register *)
  data_out : Signal.t;  (** bus_width bits, logic → processor (muxed) *)
  data_out_valid : Signal.t;
  io_done : Signal.t;  (** per-function completion strobe (muxed) *)
  calc_done : Signal.t;
      (** concatenated per-instance calculation-complete vector; bit [i-1]
          belongs to function id [i] (§5.2) *)
  decoder : decoder;  (** the interface's one protocol decoder *)
}

(** The interface's one protocol decoder: the lines read once per tick of
    the SIS-side domain, and the one outstanding-transfer state. Every
    protocol watcher (checkers, metrics, recorder, coverage) reads these
    fields and keeps no transfer state of its own.

    Every [IO_ENABLE] cycle outside reset presents a new request (§4.2.1),
    a write when [DATA_IN_VALID] is high and a read otherwise. [IO_DONE]
    answers a write, [DATA_OUT_VALID] a read (Fig 4.3). A request not
    answered in its own cycle stays outstanding, holding its [FUNC_ID]
    and a write's [DATA_IN], until it is answered, superseded by a new
    request, or cleared by [RST]. *)
and decoder = private {
  mutable bound : bool;  (** {!watch} has registered the reset action *)
  mutable tick : int;  (** last decoded tick; -1 after a reset *)
  mutable first : bool;
      (** the first tick decoded since creation or kernel reset *)
  mutable reset : bool;  (** [RST] *)
  mutable strobe : bool;  (** [IO_ENABLE] *)
  mutable valid : bool;  (** [DATA_IN_VALID] *)
  mutable done_ : bool;  (** [IO_DONE] *)
  mutable read_data : bool;  (** [DATA_OUT_VALID]: read data returned *)
  mutable fid : int;  (** [FUNC_ID] *)
  mutable write : bool;
  mutable read : bool;  (** a write / read presented (never in reset) *)
  mutable word_done : bool;
      (** [IO_DONE] without [DATA_OUT_VALID]: a write word acknowledged *)
  mutable opens : bool;  (** this tick's request is left outstanding *)
  mutable closes : bool;
      (** the outstanding transfer ends this tick: answered, superseded or
          reset *)
  mutable wait : bool;  (** the outstanding transfer stays outstanding *)
  mutable pending : transfer;  (** outstanding entering this tick *)
  mutable held_fid : int;  (** its [FUNC_ID] *)
  mutable held_data : Bits.t;  (** an outstanding write's word *)
  mutable data_moved : bool;
      (** [DATA_IN] differs from the outstanding write's word *)
  mutable presented : int;  (** the tick it was presented on *)
  mutable waited : int;
      (** kernel ticks since it was presented: derived from the tick, not
          counted per decoded tick, so a watcher that slept through the
          wait reads it right. A watcher on a domain of period [p] divides
          by [p] for its own edges. *)
  mutable prev_done : bool;
  mutable prev_strobe : bool;
      (** [IO_DONE] / [IO_ENABLE] on the previous tick (false after reset) *)
  mutable last_grant : int;
      (** [FUNC_ID] of the last request to a function (id ≠ 0) since reset,
          0 for none *)
}

val create :
  ?prefix:string -> bus_width:int -> func_id_width:int -> instances:int ->
  unit -> t

val of_spec : ?prefix:string -> Splice_syntax.Spec.t -> t
val signals : t -> Signal.t list
(** All signals, for tracing. *)

val write_presented : t -> bool
(** [io_enable && data_in_valid] — a write word is being presented. *)

val read_requested : t -> bool
(** [io_enable && not data_in_valid] — a read is being requested. *)

val watch : Kernel.t -> t -> unit
(** Bind the interface's decoder to the kernel that simulates it: the first
    call registers its one {!Kernel.at_reset} action. Every consumer
    watches when it attaches. *)

val domain : Kernel.t -> bus:string -> Kernel.domain
(** The domain driving [bus]'s SIS side — ["<bus>.pclk"] when the bus has
    one (the AXI bridge), the base domain otherwise; consumers register
    their checks, protocol monitors and observers alike, there. *)

val decode : t -> int -> decoder
(** [decode t tick], called by a consumer's check with the tick it was
    handed, before reading any field: the first call in a tick
    decodes it, later ones return the same facts. Ticks no consumer
    decoded are skipped correctly only while the decoder is {!quiet}:
    a tick after a quiet one, with the same lines, has the same facts. *)

val quiet : decoder -> bool
(** Whether the decoded tick's facts repeat on the next tick if no line
    changes: no transfer opens or closes, the previous-tick [IO_DONE] and
    [IO_ENABLE] are this tick's, and the last grant stays. Only [waited]
    differs, and it is read off the tick. *)

val nap : Splice_sim.Sleep.t -> decoder -> unit
(** Called by a protocol watcher's check, registered with the sleep handle
    [s] ({!Splice_sim.Kernel.add_check}), after reading the tick's facts:
    sleep while they would repeat. The kernel wakes a sleeping check on
    any signal change since it last ran, which covers every line the
    decoder reads. *)
