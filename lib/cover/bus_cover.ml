open Splice_sim
open Splice_sis
open Splice_syntax

let group_name bus = "bus/" ^ bus

(* Phase encoding shared by the [phase] aspect bins and the [phase_seq]
   transition bins, read off the interface's Sis_if decoder: a presentation
   (write or read), IO_DONE without DATA_OUT_VALID acknowledging a write,
   DATA_OUT_VALID acknowledging a read, and a wait state while a transfer
   stays outstanding. *)
let ph_idle = 0
let ph_reset = 1
let ph_write = 2
let ph_read = 3
let ph_wait_w = 4
let ph_wait_r = 5
let ph_ack_w = 6
let ph_ack_r = 7

let phase_bins ~pseudo_async =
  [ ("reset", ph_reset); ("idle", ph_idle); ("write", ph_write);
    ("read", ph_read) ]
  @ (if pseudo_async then [ ("wait_w", ph_wait_w) ] else [])
  @ [ ("wait_r", ph_wait_r); ("ack_w", ph_ack_w); ("ack_r", ph_ack_r) ]

(* The canonical legal-next-phase pairs. Strictly synchronous buses may
   not stall writes (Bus_monitor's no_write_stall axiom), so their
   write-wait transitions are not coverable and are dropped rather than
   left as permanent holes. *)
let seq_pairs ~pseudo_async =
  let all =
    [ ("idle->write", ph_idle, ph_write); ("idle->read", ph_idle, ph_read);
      ("write->write", ph_write, ph_write);
      ("write->wait_w", ph_write, ph_wait_w);
      ("write->ack_w", ph_write, ph_ack_w);
      ("write->idle", ph_write, ph_idle);
      ("wait_w->wait_w", ph_wait_w, ph_wait_w);
      ("wait_w->ack_w", ph_wait_w, ph_ack_w);
      ("read->read", ph_read, ph_read);
      ("read->wait_r", ph_read, ph_wait_r);
      ("read->ack_r", ph_read, ph_ack_r); ("read->idle", ph_read, ph_idle);
      ("wait_r->wait_r", ph_wait_r, ph_wait_r);
      ("wait_r->ack_r", ph_wait_r, ph_ack_r);
      ("ack_w->write", ph_ack_w, ph_write);
      ("ack_w->read", ph_ack_w, ph_read); ("ack_w->idle", ph_ack_w, ph_idle);
      ("ack_r->read", ph_ack_r, ph_read);
      ("ack_r->write", ph_ack_r, ph_write);
      ("ack_r->idle", ph_ack_r, ph_idle) ]
  in
  if pseudo_async then all
  else
    List.filter (fun (_, f, t) -> f <> ph_wait_w && t <> ph_wait_w) all

let grant_bins =
  [ ("status", 0); ("first", 1); ("repeat", 2); ("switch", 3) ]

let wait_ranges =
  [ ("0", 0, 0); ("1", 1, 1); ("2-3", 2, 3); ("4-7", 4, 7);
    ("8+", 8, max_int) ]

(* Burst-length bins follow the bus's real transfer ceiling: native burst
   words or the DMA window, whichever is larger, in log-spaced ranges with
   one open overflow bin. APB (1 word, no DMA) gets three bins; PLB
   (4-word bursts, 256-byte DMA) gets eight. *)
let burst_ranges (caps : Bus_caps.t option) =
  let cap =
    match caps with
    | Some c -> max c.max_burst_words (c.dma_max_bytes / 4)
    | None -> 8
  in
  let cap = max cap 2 in
  let base =
    [ ("1", 1, 1); ("2", 2, 2); ("3-4", 3, 4); ("5-8", 5, 8);
      ("9-16", 9, 16); ("17-32", 17, 32); ("33-64", 33, 64) ]
  in
  let kept = List.filter (fun (_, lo, _) -> lo <= cap) base in
  let top =
    match List.rev kept with (_, _, hi) :: _ -> hi + 1 | [] -> 2
  in
  kept @ [ (Printf.sprintf "%d+" top, top, max_int) ]

let dir_write = 0
let dir_read = 1
let dir_dma_write = 2
let dir_dma_read = 3

let dir_bins (caps : Bus_caps.t option) =
  let dma = match caps with Some c -> c.supports_dma | None -> false in
  [ ("w", dir_write); ("r", dir_read) ]
  @ if dma then [ ("dma_w", dir_dma_write); ("dma_r", dir_dma_read) ] else []

let pseudo_async_of = function
  | Some (c : Bus_caps.t) -> c.pseudo_async
  | None -> true

(* ---- AXI channel handshake / CDC configuration points -------------
   The AXI4-Lite bus is the one registered bus with native channels on a
   second clock domain; its cycle-level sampler lives in the bus model
   itself (it gets the map as a [connect] argument, as the adapter engine
   does), but the bins are declared here so the group exists in
   pre-declared aggregate maps. *)

let axi_handshake_bins =
  [ ("aw", 0); ("w", 1); ("ar", 2); ("r", 3); ("b", 4);
    (* a VALID seen without READY: the slave is withholding acceptance,
       on AW/AR that is the command FIFO's full backpressure surfacing *)
    ("aw_stall", 5); ("ar_stall", 6);
    (* command FIFOs observed full from the write side *)
    ("bp_w", 7); ("bp_r", 8) ]

let fire_code = function
  | `Aw -> 0 | `W -> 1 | `Ar -> 2 | `R -> 3 | `B -> 4
  | `Aw_stall -> 5 | `Ar_stall -> 6 | `Bp_w -> 7 | `Bp_r -> 8

(* the fuzzer's clock-ratio universe, encoded [100*fast + slow] *)
let ratio_code (a, b) = (100 * a) + b

let axi_ratio_bins =
  List.map
    (fun ((a, b) as r) -> (Printf.sprintf "%d:%d" a b, ratio_code r))
    [ (1, 1); (2, 1); (3, 1); (3, 2); (5, 2) ]

let axi_depth_bins =
  [ ("2", 2, 2); ("4", 4, 4); ("8", 8, 8); ("16", 16, 16); ("32-64", 32, 64) ]

let declare_axi g =
  ignore (Cover.point g "handshake" (Cover.Values axi_handshake_bins));
  let ratio = Cover.point g "cdc_ratio" (Cover.Values axi_ratio_bins) in
  let depth = Cover.point g "cdc_depth" (Cover.Ranges axi_depth_bins) in
  ignore (Cover.cross g "ratio_x_depth" ratio depth)

let declare c ~bus ~caps =
  let g = Cover.group c (group_name bus) in
  let pa = pseudo_async_of caps in
  ignore (Cover.point g "phase" (Cover.Values (phase_bins ~pseudo_async:pa)));
  ignore
    (Cover.point g "phase_seq"
       (Cover.Transitions (seq_pairs ~pseudo_async:pa)));
  ignore (Cover.point g "grant" (Cover.Values grant_bins));
  ignore (Cover.point g "wait_r" (Cover.Ranges wait_ranges));
  if pa then ignore (Cover.point g "wait_w" (Cover.Ranges wait_ranges));
  let burst = Cover.point g "burst" (Cover.Ranges (burst_ranges caps)) in
  let dir = Cover.point g "dir" (Cover.Values (dir_bins caps)) in
  ignore (Cover.cross g "dir_x_burst" dir burst);
  if bus = "axi" then declare_axi g

(* ---- cycle-level sampling ---------------------------------------- *)

let attach c ~bus ~caps kernel sis =
  declare c ~bus ~caps;
  let g = Cover.group c (group_name bus) in
  let pa = pseudo_async_of caps in
  let find n = Option.get (Cover.find_point g n) in
  let phase = find "phase" in
  let seq = find "phase_seq" in
  let grant = find "grant" in
  let wait_r = find "wait_r" in
  let wait_w = if pa then Some (find "wait_w") else None in
  Sis_if.watch kernel sis;
  (* the previous decoded tick's primary phase *)
  let prev = ref ph_idle in
  (* sampled once per SIS-side clock edge: sampling the fast ticks of a
     CDC bus would count each phase once per tick instead of once per bus
     cycle and flood phase_seq with self-transitions; wait states are
     counted in the same edges *)
  let dom = Sis_if.domain kernel ~bus in
  let period = Kernel.domain_period dom in
  Kernel.add_check_in kernel dom (bus ^ "-coverage") (fun cycle ->
      let d = Sis_if.decode sis cycle in
      let primary =
        if d.reset then begin
          Cover.sample phase ph_reset;
          ph_reset
        end
        else begin
          let wr_ack = d.word_done and rd_ack = d.read_data in
          let waiting_w = d.wait && d.pending = Write in
          let waiting_r = d.wait && d.pending = Read in
          (* multi-hot aspects: a strictly synchronous write cycle is both
             a presentation and its own acknowledge *)
          if d.write then Cover.sample phase ph_write;
          if d.read then Cover.sample phase ph_read;
          if wr_ack then Cover.sample phase ph_ack_w;
          if rd_ack then Cover.sample phase ph_ack_r;
          if waiting_w then Cover.sample phase ph_wait_w;
          if waiting_r then Cover.sample phase ph_wait_r;
          (* grant patterns: who wins the strobe at each presentation *)
          if d.write || d.read then begin
            if d.fid = 0 then Cover.sample grant 0
            else if d.last_grant = 0 then Cover.sample grant 1
            else if d.fid = d.last_grant then Cover.sample grant 2
            else Cover.sample grant 3
          end;
          (* per-word wait-state counts — cycles the acknowledge was
             withheld, 0 = acknowledged in the presentation cycle —
             sampled at the acknowledge *)
          if wr_ack && (d.write || d.pending = Write) then
            (match wait_w with
            | Some p -> Cover.sample p (if d.write then 0 else d.waited / period)
            | None -> ());
          if rd_ack && (d.read || d.pending = Read) then
            Cover.sample wait_r (if d.read then 0 else d.waited / period);
          if d.write then ph_write
          else if d.read then ph_read
          else if wr_ack then ph_ack_w
          else if rd_ack then ph_ack_r
          else if waiting_w then ph_wait_w
          else if waiting_r then ph_wait_r
          else begin
            Cover.sample phase ph_idle;
            ph_idle
          end
        end
      in
      if not d.first then Cover.sample_pair seq ~from_:!prev ~to_:primary;
      prev := primary)

(* ---- transaction-level sampling (adapter engine) ----------------- *)

type txn = {
  tx_burst : Cover.point;
  tx_dir : Cover.point;
  tx_cross : Cover.point;
  tx_grant : Cover.point;
}

let find_txn c ~bus =
  match Cover.find_group c (group_name bus) with
  | None -> None
  | Some g -> (
      match
        ( Cover.find_point g "burst", Cover.find_point g "dir",
          Cover.find_point g "dir_x_burst", Cover.find_point g "grant" )
      with
      | Some b, Some d, Some x, Some gr ->
          Some { tx_burst = b; tx_dir = d; tx_cross = x; tx_grant = gr }
      | _ -> None)

let dir_code = function
  | `Write -> dir_write
  | `Read -> dir_read
  | `Dma_write -> dir_dma_write
  | `Dma_read -> dir_dma_read

(* Status polls (func_id 0) are served by the adapter's internal register
   and never assert IO_ENABLE, so the grant point's "status" bin is only
   reachable here at the transaction level — the cycle-level sampler in
   [attach] covers the first/repeat/switch bins. *)
let sample_txn t ~func_id ~dir ~words =
  let d = dir_code dir in
  Cover.sample t.tx_dir d;
  Cover.sample t.tx_burst words;
  Cover.sample2 t.tx_cross d words;
  if func_id = 0 then Cover.sample t.tx_grant 0

(* ---- AXI native-side sampling (resolved like [txn], sampled by the
   bus model's aclk-domain check) ------------------------------------ *)

type axi = {
  ax_handshake : Cover.point;
  ax_ratio : Cover.point;
  ax_depth : Cover.point;
  ax_cross : Cover.point;
}

let find_axi c =
  match Cover.find_group c (group_name "axi") with
  | None -> None
  | Some g -> (
      match
        ( Cover.find_point g "handshake", Cover.find_point g "cdc_ratio",
          Cover.find_point g "cdc_depth", Cover.find_point g "ratio_x_depth" )
      with
      | Some h, Some r, Some d, Some x ->
          Some { ax_handshake = h; ax_ratio = r; ax_depth = d; ax_cross = x }
      | _ -> None)

let sample_axi_fire t ev = Cover.sample t.ax_handshake (fire_code ev)

(* sampled once per connected bridge: which cell of the ratio x depth
   design grid this simulation exercised *)
let sample_axi_cdc t ~ratio ~depth =
  let rc = ratio_code ratio in
  Cover.sample t.ax_ratio rc;
  Cover.sample t.ax_depth depth;
  Cover.sample2 t.ax_cross rc depth
