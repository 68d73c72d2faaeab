(** Waveforms — ASCII timing diagrams in the style of the thesis's Figs
    4.3–4.8 and GTKWave value-change dumps — read from the kernel's flight
    recorder ({!Splice_obs.Recorder}), the one capture path for signal
    values.

    A window snapshots the traced values and the recorder's event count;
    a read replays the [Signal_change] events recorded since over the
    snapshot and closes a column, a tick's settled pre-edge view, at each
    [Sched_pass]. Signals are matched by name, as the recorder keys them:
    the kernel must be the only one cycling on its context's recorder.

    A read raises [Failure] when the ring (the last [Obs.create ~ring]
    events, 8192 by default) dropped events since {!create}, or when the
    replay does not end at the live values: a change was made outside a
    recorded tick of this kernel, e.g. by test code after another kernel
    cycled. [Host.reset] restores values unrecorded, so a window must not
    span a cache replay's reset: create it after. The recorder keeps 63
    bits of a value, so a 64-bit signal's bit 63 is unknown once it
    changed after {!create}. *)

type t

val create : Kernel.t -> Signal.t list -> t
(** Raises [Invalid_argument] when the kernel records nothing ([Obs.none],
    [~recording:false]) or two traced signals share a name. *)

val render : t -> string
(** One line per signal: 1-bit signals as [_] / [#] (low / high); wider
    signals as the hex value when it changes and [.] while it holds; a
    hex value with an unknown bit 63 ends in [?]. *)

val history : t -> Signal.t -> Splice_bits.Bits.t list
(** Values per column, oldest first. Raises [Not_found] for an untraced
    signal, [Invalid_argument] when a value's bit 63 is unknown. *)

val vcd : t -> module_name:string -> string
(** The header declaring each signal under [module_name], the values at
    {!create} under [#0], then per tick [c] a [#(c+1)] section with the
    values that changed; an unknown bit 63 prints as [x]. *)
