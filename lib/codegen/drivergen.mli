(** Software driver generation (Ch 6): ANSI C drivers whose calling
    conventions match the original interface declarations, built on the
    per-bus transaction macros of Fig 7.2. One driver per function
    (Fig 6.1); multi-instance functions gain an [inst_index] parameter
    (Fig 6.2); blocking calls insert WAIT_FOR_RESULTS; multi-value outputs
    are heap-allocated and must be freed by the caller (§6.1.1). *)

open Splice_syntax

val prototype : Spec.func -> string
(** e.g. ["float sample_function(int *x, int y, int inst_index)"]. *)

val driver_function : Spec.t -> Spec.func -> string
(** The complete C definition for one function's driver. *)

val header_file : Spec.t -> string
(** [<device>_driver.h] (Fig 8.7). *)

val source_file : Spec.t -> string
(** [<device>_driver.c]. *)

val test_suite : Spec.t -> string
(** A skeleton [main()] exercising every driver once — the pattern of the
    Fig 8.8 test suite. *)
