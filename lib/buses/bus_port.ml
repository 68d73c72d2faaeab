open Splice_bits

type req =
  | Write of { func_id : int; data : Bits.t list }
  | Read of { func_id : int; words : int }
  | Dma_write of { func_id : int; data : Bits.t list }
  | Dma_read of { func_id : int; words : int }

type t = {
  bus_name : string;
  submit : req -> unit;
  busy : unit -> bool;
  result : unit -> Bits.t list;
  pulse_reset : unit -> unit;
  irq_pending : unit -> bool;
  watch : Splice_sim.Sleep.t -> unit;
  wait_mode : [ `Null | `Poll ];
  max_burst_words : int;
  supports_dma : bool;
}

let words_of_req = function
  | Write { data; _ } | Dma_write { data; _ } -> List.length data
  | Read { words; _ } | Dma_read { words; _ } -> words

let is_read = function
  | Read _ | Dma_read _ -> true
  | Write _ | Dma_write _ -> false

let pp_req fmt = function
  | Write { func_id; data } ->
      Format.fprintf fmt "write(id=%d, %d word(s))" func_id (List.length data)
  | Read { func_id; words } -> Format.fprintf fmt "read(id=%d, %d word(s))" func_id words
  | Dma_write { func_id; data } ->
      Format.fprintf fmt "dma_write(id=%d, %d word(s))" func_id (List.length data)
  | Dma_read { func_id; words } ->
      Format.fprintf fmt "dma_read(id=%d, %d word(s))" func_id words
