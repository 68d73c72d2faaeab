(** The master-side port of a simulated bus: what the CPU/driver model drives.

    One request is outstanding at a time; the CPU submits, waits until the
    port goes idle, then collects read data. Request granularity matches the
    driver macros of Fig 7.2: a [Write]/[Read] with 2 or 4 words is a
    double/quad burst transaction (one setup, back-to-back words); non-burst
    drivers issue one-word requests and pay the setup each time. *)

open Splice_bits

type req =
  | Write of { func_id : int; data : Bits.t list }
  | Read of { func_id : int; words : int }
      (** [func_id = 0] reads the CALC_DONE status vector (§4.2.2) *)
  | Dma_write of { func_id : int; data : Bits.t list }
  | Dma_read of { func_id : int; words : int }

type t = {
  bus_name : string;
  submit : req -> unit;  (** raises [Failure] if not idle *)
  busy : unit -> bool;
  result : unit -> Bits.t list;  (** data collected by the last read *)
  pulse_reset : unit -> unit;  (** assert SIS RST for the next cycle *)
  irq_pending : unit -> bool;
      (** completion-interrupt line state (§10.2); cleared by a status read *)
  watch : Splice_sim.Sleep.t -> unit;
      (** [watch s]: from now on, wake [s] ({!Splice_sim.Sleep.wake})
          whenever [busy] falls or [irq_pending] rises — what lets the
          master sleep while it waits on the port *)
  wait_mode : [ `Null | `Poll ];
      (** how WAIT_FOR_RESULTS is implemented on this bus (§6.1.1): [`Null]
          on pseudo-asynchronous buses (reads stall until ready), [`Poll] on
          strictly synchronous ones (poll the status register) *)
  max_burst_words : int;
  supports_dma : bool;
}

val words_of_req : req -> int
val is_read : req -> bool
val pp_req : Format.formatter -> req -> unit
