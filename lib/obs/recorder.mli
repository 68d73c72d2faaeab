(** Flight recorder: a fixed-size ring buffer of packed simulation events
    — signal transitions, transaction begin/end (bus transfers, SIS word
    transfers, driver calls), check failures, scheduler decisions —
    recorded on every cycle of a kernel whose context carries
    a recorder, dumped post mortem when a protocol check fires, and
    exported as a Chrome trace. Runs whose output nobody reads are built
    on [Obs.none] and record nothing.

    Hot-path discipline: {!record} (and its typed wrappers) is two
    unchecked stores into two adjacent words of a ring chunk — cycle,
    subject id and kind pack into the first word, the argument is the
    second — and the power-of-two ring makes the slot index a mask, so
    there is no hashing and no wrap branch. The ring is split into
    fixed-size chunks of 512 events (one chunk for smaller rings), each
    allocated on its first write, so a recorder costs memory only for the
    events it has recorded; the one branch per event tests for that first
    write. The packing truncates cycles to 40 bits and subject ids to 20,
    both far beyond any real run.
    Subjects are interned once ({!intern}, cold path) and hot call sites
    cache the returned id next to the subject, keyed by {!stamp}, so the
    intern table is never touched while recording. When the ring wraps,
    the oldest events are silently overwritten: the recorder always holds
    the {e last} [capacity] events — the black-box window. *)

type t

type kind =
  | Signal_change  (** subject = signal name, arg = new value (low 63 bits) *)
  | Txn_begin
      (** subject = a transaction track, arg = what the track's opener
          knows: ["bus/<name>"] words requested, ["sis/write"] /
          ["sis/read"] the FUNC_ID, ["driver/<func>"] the program's op
          count *)
  | Txn_end  (** subject = the same track *)
  | Check_fail  (** subject = check name, arg = interned message id *)
  | Sched_pass  (** subject = ["kernel"], arg = delta passes this cycle *)
  | Comp_eval  (** subject = component name, arg = 1 *)

val create : ?capacity:int -> unit -> t
(** A fresh recorder holding the last [capacity] (default
    {!default_capacity}) events; [capacity] is rounded up to the next
    power of two so the ring index is a mask. No ring chunk is allocated
    before the first event. Raises [Invalid_argument] when
    [capacity < 1]. *)

val default_capacity : int
(** 8192 events — with typical per-cycle event counts, a window of a few
    hundred cycles. *)

val stamp : t -> int
(** Process-unique identity of this recorder (atomic across domains);
    call sites cache interned subject ids keyed by it. *)

val capacity : t -> int

val total : t -> int
(** Events ever recorded; [total - min total capacity] were dropped. *)

val set_now : t -> int -> unit
(** The simulation cycle stamped onto recorded events, set by the owning
    kernel at the start of every cycle. *)

(** {1 Interning (cold path)} *)

val intern : t -> string -> int
(** Find-or-create the id of a subject name. Expected at
    registration/seal time only; cache the result. *)

val subject_name : t -> int -> string
(** Inverse of {!intern}; ["?id"] for unknown ids. *)

(** {1 Recording (hot path — allocates only a chunk's first write)} *)

val record : t -> kind -> subject:int -> arg:int -> unit
val signal_change : t -> subject:int -> value:int -> unit
val txn_begin : t -> subject:int -> words:int -> unit
val txn_end : t -> subject:int -> unit

val check_fail : t -> subject:int -> message:string -> unit
(** Interns [message] (cold: failures are terminal) and records it as the
    event's argument; the dump resolves it back to text. *)

val sched_pass : t -> subject:int -> iters:int -> unit
val comp_eval : t -> subject:int -> unit

(** {1 Reading} *)

type event = {
  e_cycle : int;
  e_kind : kind;
  e_subject : string;
  e_arg : int;  (** for [Check_fail], the interned message id *)
}

val events : t -> event list
(** The retained window, oldest first. *)

(** {1 Dump (the post-mortem artifact)} *)

val metrics_json : Metrics.t -> Json.t
(** The registry snapshot a dump embeds under ["metrics"]: counters and
    gauges by name, histograms with limits, buckets, count, sum, min and
    max. *)

val dump : ?context:string -> ?metrics:Metrics.t -> t -> Json.t
(** Versioned JSON dump (["splice_dump": 2]; {!Query.of_string} refuses
    any other version): ring geometry, drop count, the event window
    (oldest first, subjects and failure messages resolved to strings),
    an optional free-form [context] line (the failure message), and an
    optional snapshot of a metrics registry — [Query.of_string] parses
    it back. *)

val dump_string : ?context:string -> ?metrics:Metrics.t -> t -> string

val kind_tag : kind -> string
(** Stable short tag used in dumps: ["sig"], ["tb"], ["te"], ["fail"],
    ["pass"], ["eval"]. *)

val kind_of_tag : string -> kind option
