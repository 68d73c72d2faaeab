open Splice_obs

type sched = [ `Event | `Sweep | `Compiled ]

type domain = {
  d_name : string;
  d_period : int; (* ticks between edges, >= 1 *)
  d_phase : int; (* tick offset of the first edge, < period *)
  mutable d_cycles : int; (* edges fired so far *)
  mutable d_next : int; (* the tick of the next edge *)
  mutable d_fires : bool; (* an edge on the tick in flight *)
}

(* a domain's edge falls on tick [n] iff [n mod period = phase]; the base
   domain (period 1, phase 0) fires on every tick, so single-clock designs
   behave exactly as before. The cycle loop never divides: it compares the
   tick with [d_next] once per domain ([decide_edges]) and steps [d_next]
   by the period when the edge has fired ([count_domain_edges]). A domain
   added mid-run starts at its first edge at or after the current tick. *)
let make_domain ~name ~phase ~period ~tick =
  {
    d_name = name;
    d_period = period;
    d_phase = phase;
    d_cycles = 0;
    d_next = tick + ((phase - (tick mod period) + period) mod period);
    d_fires = false;
  }

type t = {
  max_comb_iters : int;
  mutable sched : sched;
      (* mutable so a cached design can be re-targeted: the cache resets the
         kernel and flips the scheduler, and the next seal rebuilds whatever
         the new scheduler needs (listeners for [`Event], a tape for
         [`Compiled]) from the restored build-time state *)
  gen : int;
      (* process-unique kernel generation id (from a global atomic counter,
         never 0): components stamp it into [reg_gen] when they register
         their fan-out listeners, so a component reused by a later kernel
         re-registers there and this kernel's listeners turn into no-ops
         instead of corrupting a dead kernel's dirty count *)
  obs : Obs.t;
  base : domain;
  mutable domains : domain list; (* reversed; always contains [base] *)
  mutable components : (Component.t * domain) list; (* reversed *)
  mutable checks : (string * (int -> unit) * domain) list; (* reversed *)
  mutable hooks : (int -> unit) list; (* reversed *)
  mutable settle_hooks : ((int -> unit) * domain) list; (* reversed *)
  mutable cycle_count : int;
  iter_counts : int array;
      (* settles by productive delta-pass count (index), the source of
         [stats.comb_iters] and of the [sim/comb_iters] view *)
  mutable comb_evals_total : int;
  mutable checks_run_total : int;
  mutable settle_evals : int; (* evaluations of the settle in flight *)
  (* forward-order caches, rebuilt lazily whenever a registration list
     changes (sealing); cycle/settle never traverse the reversed lists *)
  mutable sealed : bool;
  mutable comps_fwd : Component.t array;
  mutable comp_doms : domain array; (* parallel to [comps_fwd] *)
  mutable checks_fwd : (string * (int -> unit)) array;
  mutable check_doms : domain array; (* parallel to [checks_fwd] *)
  mutable hooks_fwd : (int -> unit) array;
  mutable settle_hooks_fwd : (int -> unit) array;
  mutable settle_doms : domain array; (* parallel to [settle_hooks_fwd] *)
  mutable has_always : bool;
  mutable n_dirty : int;
  mutable tape : Tape.t option;
      (* the [`Compiled] scheduler's op-tape, (re)built at seal time *)
  mutable reset_hooks : (unit -> unit) list; (* reversed *)
      (* design-level reset actions beyond per-component [reset] callbacks:
         cover watchers, FIFO memories, connect-time side effects a replay
         must reproduce *)
  mutable k_elaborate_ns : int64;
      (* build-phase accounting, distinct from settle time: elaborate is
         stamped by the host ([note_elaborate_ns]), seal/compile are
         accumulated here across (re-)seals *)
  mutable k_seal_ns : int64;
  mutable k_compile_ns : int64;
  (* flight recorder (Obs.recorder obs, cached to skip the option chase on
     the hot path) plus interned subject ids for the kernel itself and the
     registered checks *)
  rec_ : Recorder.t option;
  rec_fn : (Component.t -> unit) option;
      (* preallocated per-evaluation recording hook for the compiled tape
         (allocating it per settle would break the zero-allocation loop) *)
  rec_kernel_id : int;
  mutable check_ids : int array;
  (* the [sim/*] metrics are views of the totals above: [sync_metrics]
     folds what changed since it last ran ([synced_*]) into them whenever
     the registry is read, so the cycle loop never touches a metric *)
  comb_hist : Metrics.histogram;
  cycles_counter : Metrics.counter;
  checks_counter : Metrics.counter;
  evals_counter : Metrics.counter;
  mutable synced_cycles : int;
  mutable synced_checks : int;
  mutable synced_evals : int;
  synced_iters : int array;
}

type stats = {
  cycles : int;
  comb_iters : int;
  comb_evals : int;
  checks_run : int;
  elaborate_ns : int64;
  seal_ns : int64;
  compile_ns : int64;
}

exception Comb_divergence of { cycle : int; iterations : int }
exception Timeout of { cycle : int; elapsed : int; waiting_for : string }
exception Check_failed of { cycle : int; check : string; message : string }

(* cold only on the first evaluation per (component, recorder) pair *)
let record_eval r (c : Component.t) =
  let id =
    if c.Component.rec_stamp = Recorder.stamp r then c.Component.rec_id
    else begin
      let id = Recorder.intern r c.Component.name in
      c.Component.rec_stamp <- Recorder.stamp r;
      c.Component.rec_id <- id;
      id
    end
  in
  Recorder.comp_eval r ~subject:id

let gen_counter = Atomic.make 0

let sync_metrics t =
  Metrics.add t.cycles_counter (t.cycle_count - t.synced_cycles);
  t.synced_cycles <- t.cycle_count;
  Metrics.add t.checks_counter (t.checks_run_total - t.synced_checks);
  t.synced_checks <- t.checks_run_total;
  Metrics.add t.evals_counter (t.comb_evals_total - t.synced_evals);
  t.synced_evals <- t.comb_evals_total;
  Array.iteri
    (fun iters n ->
      Metrics.observe_n t.comb_hist iters (n - t.synced_iters.(iters));
      t.synced_iters.(iters) <- n)
    t.iter_counts

let create ?(max_comb_iters = 64) ?(sched = `Event) ?obs () =
  let obs = match obs with Some o -> o | None -> Obs.create () in
  let m = Obs.metrics obs in
  let rec_ = Obs.recorder obs in
  let base = make_domain ~name:"base" ~phase:0 ~period:1 ~tick:0 in
  (* a settle reports at most as many productive delta passes as it
     executed, and it executes at most [max_comb_iters] *)
  let iter_slots = max 1 (max_comb_iters + 1) in
  let t =
    {
      base;
      domains = [ base ];
      rec_;
      rec_fn = (match rec_ with Some r -> Some (fun c -> record_eval r c) | None -> None);
      gen = 1 + Atomic.fetch_and_add gen_counter 1;
      rec_kernel_id =
        (match rec_ with Some r -> Recorder.intern r "kernel" | None -> -1);
      check_ids = [||];
      max_comb_iters;
      sched;
      obs;
      components = [];
      checks = [];
      hooks = [];
      settle_hooks = [];
      cycle_count = 0;
      iter_counts = Array.make iter_slots 0;
      comb_evals_total = 0;
      checks_run_total = 0;
      settle_evals = 0;
      sealed = false;
      comps_fwd = [||];
      comp_doms = [||];
      checks_fwd = [||];
      check_doms = [||];
      hooks_fwd = [||];
      settle_hooks_fwd = [||];
      settle_doms = [||];
      has_always = false;
      n_dirty = 0;
      tape = None;
      reset_hooks = [];
      k_elaborate_ns = 0L;
      k_seal_ns = 0L;
      k_compile_ns = 0L;
      comb_hist =
        Metrics.histogram ~limits:[| 1; 2; 3; 4; 6; 8; 16; 32; 64 |] m
          "sim/comb_iters";
      cycles_counter = Metrics.counter m "sim/cycles";
      checks_counter = Metrics.counter m "sim/checks_run";
      evals_counter = Metrics.counter m "sim/comb_evals";
      synced_cycles = 0;
      synced_checks = 0;
      synced_evals = 0;
      synced_iters = Array.make iter_slots 0;
    }
  in
  (* never on [Obs.none]: nothing reads its throwaway registry *)
  if Obs.active obs then Metrics.on_read m (fun () -> sync_metrics t);
  t

let base_domain t = t.base
let domain_name d = d.d_name
let domain_period d = d.d_period
let domain_phase d = d.d_phase
let domain_cycles d = d.d_cycles

let find_domain t name =
  List.find_opt (fun d -> String.equal d.d_name name) t.domains

let add_domain t ~name ?(phase = 0) ~period () =
  if period < 1 then invalid_arg "Kernel.add_domain: period must be >= 1";
  if phase < 0 || phase >= period then
    invalid_arg "Kernel.add_domain: phase must be in [0, period)";
  if find_domain t name <> None then
    invalid_arg ("Kernel.add_domain: duplicate domain name " ^ name);
  let d = make_domain ~name ~phase ~period ~tick:t.cycle_count in
  t.domains <- d :: t.domains;
  t.sealed <- false;
  d

(* valid while the current tick is in flight (settle, checks, settle hooks,
   seq) — [cycle_count] has not been incremented yet *)
let fires t d = t.cycle_count mod d.d_period = d.d_phase

let add_in t d c =
  t.components <- (c, d) :: t.components;
  t.sealed <- false

let add t c = add_in t t.base c

let add_check_in t d name f =
  t.checks <- (name, f, d) :: t.checks;
  t.sealed <- false

let add_check t name f = add_check_in t t.base name f

let check_fail ~cycle ~check message = raise (Check_failed { cycle; check; message })

let on_cycle_end t f =
  t.hooks <- f :: t.hooks;
  t.sealed <- false

let on_settle_in t d f =
  t.settle_hooks <- (f, d) :: t.settle_hooks;
  t.sealed <- false

let on_settle t f = on_settle_in t t.base f

let rehome_all t d =
  t.components <- List.map (fun (c, _) -> (c, d)) t.components;
  t.checks <- List.map (fun (name, f, _) -> (name, f, d)) t.checks;
  t.settle_hooks <- List.map (fun (f, _) -> (f, d)) t.settle_hooks;
  t.sealed <- false

let mark_dirty t (c : Component.t) =
  if not c.Component.dirty then begin
    c.Component.dirty <- true;
    t.n_dirty <- t.n_dirty + 1
  end

let seal t =
  let t0 = Obs.now_ns () in
  let comps = Array.of_list (List.rev t.components) in
  t.comps_fwd <- Array.map fst comps;
  t.comp_doms <- Array.map snd comps;
  let checks = Array.of_list (List.rev t.checks) in
  t.checks_fwd <- Array.map (fun (name, f, _) -> (name, f)) checks;
  t.check_doms <- Array.map (fun (_, _, d) -> d) checks;
  (match t.rec_ with
  | Some r ->
      t.check_ids <- Array.map (fun (name, _) -> Recorder.intern r name) t.checks_fwd
  | None -> t.check_ids <- [||]);
  t.hooks_fwd <- Array.of_list (List.rev t.hooks);
  let settles = Array.of_list (List.rev t.settle_hooks) in
  t.settle_hooks_fwd <- Array.map fst settles;
  t.settle_doms <- Array.map snd settles;
  t.has_always <- false;
  Array.iter
    (fun (c : Component.t) ->
      match c.Component.sensitivity with
      | Component.Always -> t.has_always <- true
      | Component.Reads signals ->
          (* the one re-arm path: a component's announcement ([Component.rearm]
             from its seq) queues it for the next settle, nothing re-arms it
             per edge. The tape installs its own action when it compiles;
             the sweep evaluates everything and ignores announcements *)
          if c.Component.has_comb then
            c.Component.arm <-
              (match t.sched with
              | `Event -> fun () -> mark_dirty t c
              | `Sweep | `Compiled -> ignore);
          if t.sched = `Event && c.Component.reg_gen <> t.gen then begin
            (* a component migrating from an earlier kernel may carry that
               kernel's dirty bit; clear it before this kernel counts it *)
            if c.Component.reg_gen <> 0 then c.Component.dirty <- false;
            c.Component.reg_gen <- t.gen;
            (* the generation guard inside the listener turns a stale
               kernel's fan-out into no-ops once a later kernel takes over
               the component *)
            List.iter
              (fun s ->
                Signal.on_change s (fun () ->
                    if c.Component.reg_gen = t.gen then mark_dirty t c))
              signals;
            (* newly registered components evaluate once to establish their
               outputs, exactly like the sweep's first pass would *)
            if c.Component.has_comb then mark_dirty t c
          end)
    t.comps_fwd;
  let compile_delta =
    if t.sched = `Compiled then begin
      let c0 = Obs.now_ns () in
      t.tape <- Some (Tape.compile t.comps_fwd);
      let d = Obs.now_ns () - c0 in
      t.k_compile_ns <- Int64.add t.k_compile_ns (Int64.of_int d);
      d
    end
    else 0
  in
  t.sealed <- true;
  (* seal time excludes the tape compilation, which is accounted separately *)
  t.k_seal_ns <-
    Int64.add t.k_seal_ns (Int64.of_int (Obs.now_ns () - t0 - compile_delta))

(* The settle and cycle loops below are top-level functions over the
   kernel's sealed arrays — no per-cycle closures, refs that escape into
   them, or tuple returns — so a steady-state cycle allocates nothing. *)

let eval t (c : Component.t) =
  c.Component.comb ();
  (match t.rec_ with Some r -> record_eval r c | None -> ());
  t.settle_evals <- t.settle_evals + 1

(* legacy scheduler: re-evaluate every component on every delta pass until
   a pass leaves the global change counter untouched *)
let rec sweep_passes t executed productive =
  if executed >= t.max_comb_iters then
    raise (Comb_divergence { cycle = t.cycle_count; iterations = executed });
  let before = Signal.change_count () in
  let comps = t.comps_fwd in
  for i = 0 to Array.length comps - 1 do
    eval t (Array.unsafe_get comps i)
  done;
  if Signal.change_count () <> before then
    sweep_passes t (executed + 1) (productive + 1)
  else productive

(* event-driven scheduler: a delta pass only evaluates dirty components (in
   registration order, so in-pass propagation matches the sweep);
   evaluations mark their fan-out dirty for this pass (later components) or
   the next one (earlier components) *)
let event_pass t =
  let comps = t.comps_fwd in
  for i = 0 to Array.length comps - 1 do
    let c = Array.unsafe_get comps i in
    match c.Component.sensitivity with
    | Component.Always -> eval t c
    | Component.Reads _ ->
        if c.Component.dirty then begin
          c.Component.dirty <- false;
          t.n_dirty <- t.n_dirty - 1;
          eval t c
        end
  done

let rec event_passes t executed productive =
  if t.n_dirty = 0 && not t.has_always then productive
  else if executed >= t.max_comb_iters then
    raise (Comb_divergence { cycle = t.cycle_count; iterations = executed })
  else begin
    let before = Signal.change_count () in
    event_pass t;
    let changed = Signal.change_count () <> before in
    let productive = if changed then productive + 1 else productive in
    if changed || t.n_dirty > 0 then event_passes t (executed + 1) productive
    else productive
  end

let settle t =
  if not t.sealed then seal t;
  t.settle_evals <- 0;
  (* [iters] counts {e productive} delta passes — passes that changed at
     least one signal — identically for all three schedulers (a quiescent
     settle reports 0). Divergence guards still count {e executed} passes,
     so a design oscillating under [max_comb_iters] unproductive-free
     passes is caught no later than before. *)
  let iters =
    match t.sched with
    | `Sweep -> sweep_passes t 0 0
    | `Compiled -> (
        let tape =
          match t.tape with
          | Some tape -> tape
          | None -> assert false (* seal always compiles under [`Compiled] *)
        in
        match Tape.settle tape ~max_iters:t.max_comb_iters ~record:t.rec_fn with
        | productive ->
            t.settle_evals <- Tape.evals tape;
            productive
        | exception Tape.Divergence executed ->
            raise
              (Comb_divergence { cycle = t.cycle_count; iterations = executed }))
    | `Event -> event_passes t 0 0
  in
  t.comb_evals_total <- t.comb_evals_total + t.settle_evals;
  t.iter_counts.(iters) <- t.iter_counts.(iters) + 1;
  match t.rec_ with
  | Some r -> Recorder.sched_pass r ~subject:t.rec_kernel_id ~iters
  | None -> ()

(* Every gated loop below reads its item's domain flag, set once per tick
   by [decide_edges]; a single-clock kernel's items all sit in the base
   domain, whose flag is always set. Domain gating is scheduler-independent
   (only the settle strategy differs between schedulers), so multi-clock
   interleaving is deterministic and identical under Event/Sweep/Compiled.
   Returns the number of checks run. *)
let run_checks t tick =
  let checks = t.checks_fwd in
  let ran = ref 0 in
  for i = 0 to Array.length checks - 1 do
    if (Array.unsafe_get t.check_doms i).d_fires then begin
      (match t.rec_ with
      | Some r -> Recorder.check_eval r ~subject:(Array.unsafe_get t.check_ids i)
      | None -> ());
      let _, f = Array.unsafe_get checks i in
      f tick;
      incr ran
    end
  done;
  !ran

(* before the settle: which domains have an edge on [tick]. Idempotent
   until [count_domain_edges] steps [d_next], so a tick that raised before
   its edges committed decides the same edges when it is run again *)
let rec decide_edges tick = function
  | [] -> ()
  | d :: rest ->
      d.d_fires <- tick = d.d_next;
      decide_edges tick rest

let rec count_domain_edges = function
  | [] -> ()
  | d :: rest ->
      if d.d_fires then begin
        d.d_cycles <- d.d_cycles + 1;
        d.d_next <- d.d_next + d.d_period
      end;
      count_domain_edges rest

let cycle t =
  (match t.rec_ with Some r -> Recorder.set_now r t.cycle_count | None -> ());
  (* (re-)point the domain-local signal store at this kernel's recorder —
     [None] detaches, so an opted-out kernel never records into the ring
     of whichever instrumented kernel ran before it in this domain *)
  Signal.attach_recorder t.rec_;
  let tick = t.cycle_count in
  decide_edges tick t.domains;
  settle t;
  let ran =
    match t.rec_ with
    | None -> run_checks t tick
    | Some r -> (
        (* the last events a failing run records are its own check
           evaluation and the failure itself — the dump ends at the bug.
           One handler outside the loop (the failing check's name rides on
           the exception), so the per-check cost is one recorded event. *)
        try run_checks t tick
        with Check_failed { check; message; _ } as e ->
          Recorder.check_fail r ~subject:(Recorder.intern r check) ~message;
          raise e)
  in
  t.checks_run_total <- t.checks_run_total + ran;
  let settles = t.settle_hooks_fwd in
  for i = 0 to Array.length settles - 1 do
    if (Array.unsafe_get t.settle_doms i).d_fires then
      (Array.unsafe_get settles i) tick
  done;
  (* only components whose domain has an edge on this tick clock their
     state; everyone reads settled pre-edge values, so evaluation order
     between coincident domains cannot matter *)
  let comps = t.comps_fwd in
  for i = 0 to Array.length comps - 1 do
    if (Array.unsafe_get t.comp_doms i).d_fires then
      (Array.unsafe_get comps i).Component.seq ()
  done;
  Signal.commit_pending ();
  count_domain_edges t.domains;
  t.cycle_count <- t.cycle_count + 1;
  let hooks = t.hooks_fwd in
  for i = 0 to Array.length hooks - 1 do
    (Array.unsafe_get hooks i) t.cycle_count
  done

let run t n =
  for _ = 1 to n do
    cycle t
  done

let run_until ?(max = 100_000) ?(what = "condition") t p =
  let start = t.cycle_count in
  let rec go () =
    if p () then t.cycle_count - start
    else if t.cycle_count - start >= max then
      raise
        (Timeout
           {
             cycle = t.cycle_count;
             elapsed = t.cycle_count - start;
             waiting_for = what;
           })
    else begin
      cycle t;
      go ()
    end
  in
  go ()

let cycles t = t.cycle_count
let id t = t.gen
let obs t = t.obs
let sched t = t.sched
let check_names t = List.rev_map (fun (name, _, _) -> name) t.checks

let stats t =
  let comb_iters = ref 0 in
  Array.iteri (fun iters n -> comb_iters := !comb_iters + (iters * n)) t.iter_counts;
  {
    cycles = t.cycle_count;
    comb_iters = !comb_iters;
    comb_evals = t.comb_evals_total;
    checks_run = t.checks_run_total;
    elaborate_ns = t.k_elaborate_ns;
    seal_ns = t.k_seal_ns;
    compile_ns = t.k_compile_ns;
  }

let note_elaborate_ns t ns = t.k_elaborate_ns <- Int64.add t.k_elaborate_ns ns

let at_reset t f = t.reset_hooks <- f :: t.reset_hooks

(* Instance reset: bring a finished kernel back to the state it had at the
   end of design elaboration, so the next run replays byte-identically to a
   fresh build. The caller (the host) restores signal values around this;
   [reset] handles everything the kernel itself owns, which excludes the
   observability context: it is not rewound. The kernel is left
   {e unsealed}: the first cycle of the replay re-seals — re-interning
   check ids and, under [`Compiled], recompiling the tape from the
   restored values — exactly the sequence a fresh host executes, which is
   what makes replay outputs bit-equal. *)
let reset ?sched t =
  (match sched with Some s -> t.sched <- s | None -> ());
  (* fold the finished run into the views before the totals restart, so
     they keep it, as eagerly written metrics would *)
  if Obs.active t.obs then sync_metrics t;
  t.cycle_count <- 0;
  (* events recorded before the replay's first cycle (a driver call's
     opening transaction) are stamped cycle 0, as on a fresh build *)
  (match t.rec_ with Some r -> Recorder.set_now r 0 | None -> ());
  List.iter
    (fun d ->
      d.d_cycles <- 0;
      d.d_next <- d.d_phase)
    t.domains;
  Array.fill t.iter_counts 0 (Array.length t.iter_counts) 0;
  t.comb_evals_total <- 0;
  t.checks_run_total <- 0;
  t.synced_cycles <- 0;
  t.synced_checks <- 0;
  t.synced_evals <- 0;
  Array.fill t.synced_iters 0 (Array.length t.synced_iters) 0;
  t.k_elaborate_ns <- 0L;
  t.k_seal_ns <- 0L;
  t.k_compile_ns <- 0L;
  (* drop the tape and unseal; clear dirty bookkeeping (announcements a
     run's last seq raised included), then queue every
     combinational [Reads] component for the first pass — the state a fresh
     kernel reaches right before its first seal marks them. Components whose
     listeners are already registered with this kernel (reg_gen = gen) are
     skipped by the next seal's registration loop, so the marks below stand
     in for the ones seal would have made. *)
  t.tape <- None;
  t.sealed <- false;
  List.iter (fun ((c : Component.t), _) -> c.Component.dirty <- false) t.components;
  t.n_dirty <- 0;
  List.iter
    (fun ((c : Component.t), _) ->
      match c.Component.sensitivity with
      | Component.Reads _ when c.Component.has_comb -> mark_dirty t c
      | _ -> ())
    t.components;
  (* component-local state first, then design-level hooks, both in
     registration order (the order the build created that state in) *)
  List.iter (fun ((c : Component.t), _) -> c.Component.reset ()) (List.rev t.components);
  List.iter (fun f -> f ()) (List.rev t.reset_hooks)
