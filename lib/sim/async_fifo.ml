open Splice_bits

let gray_encode x = x lxor (x lsr 1)

(* binary bit i is the xor of all gray bits at or above i *)
let gray_decode g =
  let x = ref 0 in
  let g = ref g in
  while !g <> 0 do
    x := !x lxor !g;
    g := !g lsr 1
  done;
  !x

type t = {
  depth : int;
  mem : Bits.t array;
  ptr_bits : int; (* log2 depth + 1: one wrap bit on top of the index *)
  wr_en : Signal.t;
  wr_data : Signal.t;
  full : Signal.t;
  rd_en : Signal.t;
  rd_data : Signal.t;
  empty : Signal.t;
  (* registered pointers: binary + Gray shadow per side *)
  wr_ptr : Signal.t;
  wr_gray : Signal.t;
  rd_ptr : Signal.t;
  rd_gray : Signal.t;
  (* 2FF synchronizers, clocked by the destination domain *)
  rd_gray_s1 : Signal.t; (* rd_gray crossing into the write domain *)
  rd_gray_s2 : Signal.t;
  wr_gray_s1 : Signal.t; (* wr_gray crossing into the read domain *)
  wr_gray_s2 : Signal.t;
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let log2 n =
  let rec go k n = if n <= 1 then k else go (k + 1) (n lsr 1) in
  go 0 n

let create ?(name = "afifo") k ~wr_dom ~rd_dom ~depth ~width =
  if (not (is_pow2 depth)) || depth < 2 || depth > 1 lsl 16 then
    invalid_arg "Async_fifo.create: depth must be a power of two in [2, 65536]";
  if width < 1 || width > Bits.max_width then
    invalid_arg "Async_fifo.create: bad width";
  let ptr_bits = log2 depth + 1 in
  let s n w = Signal.create ~name:(name ^ "." ^ n) w in
  let t =
    {
      depth;
      mem = Array.make depth (Bits.zero width);
      ptr_bits;
      wr_en = s "wr_en" 1;
      wr_data = s "wr_data" width;
      full = s "full" 1;
      rd_en = s "rd_en" 1;
      rd_data = s "rd_data" width;
      empty = s "empty" 1;
      wr_ptr = s "wr_ptr" ptr_bits;
      wr_gray = s "wr_gray" ptr_bits;
      rd_ptr = s "rd_ptr" ptr_bits;
      rd_gray = s "rd_gray" ptr_bits;
      rd_gray_s1 = s "rd_gray_s1" ptr_bits;
      rd_gray_s2 = s "rd_gray_s2" ptr_bits;
      wr_gray_s1 = s "wr_gray_s1" ptr_bits;
      wr_gray_s2 = s "wr_gray_s2" ptr_bits;
    }
  in
  let ptr_mask = (2 * depth) - 1 in
  let idx_mask = depth - 1 in
  (* exact occupancy from both binary pointers — the model's omniscient
     probe backing the no-overflow/no-underflow assertions *)
  let level () =
    (Signal.get_int t.wr_ptr - Signal.get_int t.rd_ptr) land ptr_mask
  in
  (* full: write Gray equals the synchronized read Gray with the top two
     bits inverted (the reflected-code wrap signature); conservative
     because the synchronized pointer lags the true one *)
  let top2 = 3 lsl (ptr_bits - 2) in
  (* each synchronizer flop has a single writer — the seq below that
     clocks it — so skipping the write when the value would not change
     leaves the committed state exactly as it was; it only keeps the
     deferred-write queue short *)
  let sync dst src =
    let v = Signal.get_int src in
    if v <> Signal.get_int dst then Signal.set_next_int dst v
  in
  let wr_comb () =
    Signal.set_bool t.full
      (Signal.get_int t.wr_gray = Signal.get_int t.rd_gray_s2 lxor top2)
  in
  let wr_seq () =
    if Signal.get_bool t.wr_en && not (Signal.get_bool t.full) then begin
      if level () >= depth then
        failwith (name ^ ": push accepted while truly full (overflow)");
      let wp = Signal.get_int t.wr_ptr in
      t.mem.(wp land idx_mask) <- Signal.get t.wr_data;
      let wp' = (wp + 1) land ptr_mask in
      Signal.set_next_int t.wr_ptr wp';
      Signal.set_next_int t.wr_gray (gray_encode wp')
    end;
    sync t.rd_gray_s1 t.rd_gray;
    sync t.rd_gray_s2 t.rd_gray_s1
  in
  let rd_comb () =
    let empty = Signal.get_int t.rd_gray = Signal.get_int t.wr_gray_s2 in
    Signal.set_bool t.empty empty;
    Signal.set t.rd_data
      (if empty then Bits.zero width
       else t.mem.(Signal.get_int t.rd_ptr land idx_mask))
  in
  let rd_seq () =
    if Signal.get_bool t.rd_en && not (Signal.get_bool t.empty) then begin
      if level () = 0 then
        failwith (name ^ ": pop accepted while truly empty (underflow)");
      let rp' = (Signal.get_int t.rd_ptr + 1) land ptr_mask in
      Signal.set_next_int t.rd_ptr rp';
      Signal.set_next_int t.rd_gray (gray_encode rp')
    end;
    sync t.wr_gray_s1 t.wr_gray;
    sync t.wr_gray_s2 t.wr_gray_s1
  in
  (* Neither comb announces a state change ([Component.rearm]): [wr_comb]
     reads only declared signals, and [rd_comb] reads declared signals
     plus [mem.(rd_ptr)]. A push is accepted only below full, so it lands
     on the read slot only while the FIFO is truly empty; a truly empty
     FIFO also reads as empty through the lagging synchronized write
     pointer, and then [rd_comb] ignores [mem]. So the slot cannot change
     while the FIFO reads as non-empty, and [rd_ptr], a declared read,
     moves before the next slot is read. *)
  Kernel.add_in k wr_dom
    (Component.make
       ~comb:([ t.wr_gray; t.rd_gray_s2 ], wr_comb)
       ~seq:wr_seq
       ~reset:(fun () -> Array.fill t.mem 0 depth (Bits.zero width))
       (name ^ ".wr"));
  Kernel.add_in k rd_dom
    (Component.make
       ~comb:([ t.rd_gray; t.wr_gray_s2; t.rd_ptr ], rd_comb)
       ~seq:rd_seq (name ^ ".rd"));
  t

let depth t = t.depth
let wr_en t = t.wr_en
let wr_data t = t.wr_data
let full t = t.full
let rd_en t = t.rd_en
let rd_data t = t.rd_data
let empty t = t.empty

let level t =
  (Signal.get_int t.wr_ptr - Signal.get_int t.rd_ptr) land ((2 * t.depth) - 1)
