open Splice_sim

let check = "sis-protocol"
let fail cycle message = Kernel.check_fail ~cycle ~check message

(* The §4.2.1 axioms as predicates over the decoded tick. *)
let axioms (d : Sis_if.decoder) cycle =
  if d.reset then begin
    if d.strobe then fail cycle "IO_ENABLE asserted during reset"
  end
  else begin
    (* the outstanding transfer's qualifiers hold until it is answered *)
    (match d.pending with
    | Write ->
        if d.strobe then
          fail cycle "new IO_ENABLE while a write word is outstanding";
        if not d.valid then
          fail cycle "DATA_IN_VALID dropped before IO_DONE on a write";
        if d.data_moved then
          fail cycle "DATA_IN changed before IO_DONE on a write (§4.2.1)";
        if d.fid <> d.held_fid then
          fail cycle "FUNC_ID changed before IO_DONE on a write (§4.2.1)"
    | Read ->
        if d.strobe then fail cycle "new IO_ENABLE while a read is outstanding";
        if d.fid <> d.held_fid then
          fail cycle "FUNC_ID changed while a read is outstanding (§4.2.1)"
    | Idle -> ());
    if d.read_data && not d.done_ then
      fail cycle "DATA_OUT_VALID asserted without IO_DONE (Fig 4.3)";
    if d.write && d.fid = 0 then
      fail cycle "write presented to FUNC_ID 0 (status register is read-only)"
  end

let attach kernel sis =
  Sis_if.watch kernel sis;
  Kernel.add_check kernel check (fun cycle ->
      axioms (Sis_if.decode sis cycle) cycle)

let instrument kernel sis ~func_ids =
  let open Splice_obs in
  let obs = Kernel.obs kernel in
  if Obs.active obs then begin
    let m = Obs.metrics obs in
    let words = Metrics.counter m "sis/transactions" in
    let writes = Metrics.counter m "sis/writes" in
    let reads = Metrics.counter m "sis/reads" in
    (* the arbiter grants a function one word per IO_DONE-high tick: the
       same ticks [sis/transactions] counts *)
    let grants = Metrics.counter m "arbiter/grants" in
    let per_id = Array.make (List.fold_left max 0 func_ids + 1) None in
    List.iter
      (fun id ->
        per_id.(id) <-
          Some (Metrics.counter m (Printf.sprintf "arbiter/grants/%d" id)))
      (List.sort_uniq compare func_ids);
    let h_wait =
      Metrics.histogram ~limits:[| 0; 1; 2; 4; 8; 16; 32; 64; 128 |] m
        "arbiter/wait_cycles"
    in
    (* request strobe -> first grant: the FUNC_ID and tick of the strobe
       still waiting for one (-1 = none) *)
    let wait_id = ref (-1) and wait_start = ref 0 in
    Kernel.at_reset kernel (fun () -> wait_id := -1);
    (* track ids interned once, at wiring time — before a design cache
       marks the recorder, so a replay keeps them *)
    let rec_ = Obs.recorder obs in
    let intern name =
      match rec_ with Some r -> Recorder.intern r name | None -> -1
    in
    let tr_write = intern "sis/write" in
    let tr_read = intern "sis/read" in
    Sis_if.watch kernel sis;
    Kernel.on_settle kernel (fun cycle ->
        let d = Sis_if.decode sis cycle in
        if d.reset then wait_id := -1
        else begin
          if d.done_ then begin
            Metrics.incr words;
            Metrics.incr grants;
            (if d.fid < Array.length per_id then
               match per_id.(d.fid) with Some c -> Metrics.incr c | None -> ());
            if !wait_id = d.fid then begin
              Metrics.observe h_wait (cycle - !wait_start);
              wait_id := -1
            end
            else if d.strobe then Metrics.observe h_wait 0
          end
          else if d.strobe && !wait_id < 0 then begin
            wait_id := d.fid;
            wait_start := cycle
          end;
          if d.write then Metrics.incr writes;
          if d.read then Metrics.incr reads
        end;
        match rec_ with
        | None -> ()
        | Some r ->
            if d.closes then
              Recorder.txn_end r
                ~subject:(match d.pending with Write -> tr_write | _ -> tr_read);
            if d.write || d.read then begin
              let track = if d.write then tr_write else tr_read in
              Recorder.record r Recorder.Txn_begin ~subject:track ~arg:d.fid;
              if not d.opens then Recorder.txn_end r ~subject:track
            end)
  end
