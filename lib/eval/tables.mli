(** One-stop rendering of every paper artifact: Figs 9.1, 9.2, 9.3 and the
    ablation tables, as printable text. Used by [splice eval] and the
    examples. *)

val fig_9_1 : unit -> string

val fig_9_3 : unit -> string

val cross_bus : unit -> string
(** Breadth table: the same workload (8-word array call) on every registered
    bus, with cycles and estimated adapter area — the portability claim of
    §10.1 in one table. *)

val ascii_bars : title:string -> (string * int) list -> string
(** Simple horizontal bar rendering for the two bar-chart figures. *)

val everything : ?pool:Splice_par.Pool.t -> unit -> string
(** All tables, ablations included — the full evaluation section.
    [pool] parallelises the grid-shaped experiments (Fig 9.2, E8, E14,
    E18); output is byte-identical at any pool size. *)
