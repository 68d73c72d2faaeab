open Splice_sim
open Splice_bits

type st = {
  mutable write_pending : (Bits.t * int) option;  (* data, func_id *)
  mutable read_pending : int option;  (* func_id *)
}

let attach kernel (sis : Sis_if.t) =
  let st = { write_pending = None; read_pending = None } in
  Kernel.at_reset kernel (fun () ->
      st.write_pending <- None;
      st.read_pending <- None);
  let fail cycle fmt =
    Format.kasprintf
      (fun message ->
        Kernel.check_fail ~cycle ~check:"sis-protocol" message)
      fmt
  in
  Kernel.add_check kernel "sis-protocol" (fun cycle ->
      let rst = Signal.get_bool sis.rst in
      let io_en = Signal.get_bool sis.io_enable in
      let div = Signal.get_bool sis.data_in_valid in
      let dov = Signal.get_bool sis.data_out_valid in
      let done_ = Signal.get_bool sis.io_done in
      let fid = Signal.get_int sis.func_id in
      if rst then begin
        if io_en then fail cycle "IO_ENABLE asserted during reset";
        st.write_pending <- None;
        st.read_pending <- None
      end
      else begin
        (* outstanding-write stability *)
        (match st.write_pending with
        | Some (data, id) ->
            if io_en then
              fail cycle "new IO_ENABLE while a write word is outstanding";
            if not div then
              fail cycle "DATA_IN_VALID dropped before IO_DONE on a write";
            if not (Bits.equal data (Signal.get sis.data_in)) then
              fail cycle "DATA_IN changed before IO_DONE on a write (§4.2.1)";
            if fid <> id then
              fail cycle "FUNC_ID changed before IO_DONE on a write (§4.2.1)"
        | None -> ());
        (* outstanding-read stability *)
        (match st.read_pending with
        | Some id ->
            if io_en then
              fail cycle "new IO_ENABLE while a read is outstanding";
            if fid <> id then
              fail cycle "FUNC_ID changed while a read is outstanding (§4.2.1)"
        | None -> ());
        if dov && not done_ then
          fail cycle "DATA_OUT_VALID asserted without IO_DONE (Fig 4.3)";
        (* new request bookkeeping *)
        if io_en && div && fid = 0 then
          fail cycle "write presented to FUNC_ID 0 (status register is read-only)";
        let completes = done_ in
        (match (io_en, div) with
        | true, true ->
            if not completes then
              st.write_pending <- Some (Signal.get sis.data_in, fid)
        | true, false -> if not completes then st.read_pending <- Some fid
        | false, _ -> ());
        if completes then begin
          st.write_pending <- None;
          (* a read completes only when data comes back *)
          if dov then st.read_pending <- None
        end
      end)

let instrument kernel (sis : Sis_if.t) =
  let open Splice_obs in
  let obs = Kernel.obs kernel in
  if Obs.active obs then begin
    let m = Obs.metrics obs in
    let words = Metrics.counter m "sis/transactions" in
    let writes = Metrics.counter m "sis/writes" in
    let reads = Metrics.counter m "sis/reads" in
    (* track ids interned once, at wiring time — before a design cache
       marks the recorder, so a replay keeps them *)
    let rec_ = Obs.recorder obs in
    let intern name =
      match rec_ with Some r -> Recorder.intern r name | None -> -1
    in
    let tr_write = intern "sis/write" in
    let tr_read = intern "sis/read" in
    (* at most one SIS request is outstanding (§4.2.1), so a single slot:
       the open transfer's track, -1 when none *)
    let pending = ref (-1) in
    let finish r =
      Recorder.txn_end r ~subject:!pending;
      pending := -1
    in
    Kernel.at_reset kernel (fun () -> pending := -1);
    Kernel.on_settle kernel (fun _cycle ->
        if Signal.get_bool sis.rst then begin
          match rec_ with Some r when !pending >= 0 -> finish r | _ -> ()
        end
        else begin
          let io_en = Signal.get_bool sis.io_enable in
          let div = Signal.get_bool sis.data_in_valid in
          let dov = Signal.get_bool sis.data_out_valid in
          let done_ = Signal.get_bool sis.io_done in
          if done_ then Metrics.incr words;
          if io_en then
            if div then Metrics.incr writes else Metrics.incr reads;
          match rec_ with
          | None -> ()
          | Some r ->
              (* a write ends at IO_DONE, a read when its data comes back *)
              if (!pending = tr_write && done_) || (!pending = tr_read && dov)
              then finish r;
              if io_en && !pending < 0 then begin
                pending := if div then tr_write else tr_read;
                Recorder.record r Recorder.Txn_begin ~subject:!pending
                  ~arg:(Signal.get_int sis.func_id);
                if (div && done_) || ((not div) && dov) then finish r
              end
        end)
  end
