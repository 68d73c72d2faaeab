(** Domain-local slots: per-domain singletons (per-domain caches) over
    [Domain.DLS].

    Each pool worker — and the caller domain — sees its own copy,
    initialized on first access. Slot state is never shared or locked;
    determinism across [-j] levels holds when slot contents are
    semantically transparent (e.g. a design cache whose hits replay
    byte-identically to misses). *)

type 'a t

val make : (unit -> 'a) -> 'a t
(** [make init] declares a slot; [init] runs once per domain on first
    {!get}. *)

val get : 'a t -> 'a
val set : 'a t -> 'a -> unit
