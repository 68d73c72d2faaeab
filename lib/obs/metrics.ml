type counter = { c_name : string; mutable count : int }
type gauge = { g_name : string; mutable level : int }

type histogram = {
  h_name : string;
  limits : int array;  (* inclusive upper bounds, strictly increasing *)
  buckets : int array;  (* length limits + 1; last bucket is overflow *)
  mutable n : int;
  mutable sum : int;
  mutable vmin : int;
  mutable vmax : int;
}

type t = {
  mutable counters : counter list;  (* newest first *)
  mutable gauges : gauge list;
  mutable histograms : histogram list;
  mutable views : (unit -> unit) list;
      (* on-read sync hooks: owners of view metrics (the kernel's [sim/*])
         fold the totals they keep into their records before every read *)
}

let create () = { counters = []; gauges = []; histograms = []; views = [] }
let on_read t f = t.views <- f :: t.views
let sync t = List.iter (fun f -> f ()) t.views

let counter t name =
  match List.find_opt (fun c -> c.c_name = name) t.counters with
  | Some c -> c
  | None ->
      let c = { c_name = name; count = 0 } in
      t.counters <- c :: t.counters;
      c

let incr c = c.count <- c.count + 1
let add c n = c.count <- c.count + n
let count c = c.count

let gauge t name =
  match List.find_opt (fun g -> g.g_name = name) t.gauges with
  | Some g -> g
  | None ->
      let g = { g_name = name; level = 0 } in
      t.gauges <- g :: t.gauges;
      g

let set g v = g.level <- v
let level g = g.level

(* powers of two cover every cycle-count distribution we histogram *)
let default_limits = [| 1; 2; 4; 8; 16; 32; 64; 128; 256; 512; 1024 |]

let histogram ?(limits = default_limits) t name =
  match List.find_opt (fun h -> h.h_name = name) t.histograms with
  | Some h -> h
  | None ->
      Array.iteri
        (fun i l ->
          if i > 0 && l <= limits.(i - 1) then
            invalid_arg "Metrics.histogram: limits must be strictly increasing")
        limits;
      let h =
        {
          h_name = name;
          limits = Array.copy limits;
          buckets = Array.make (Array.length limits + 1) 0;
          n = 0;
          sum = 0;
          vmin = max_int;
          vmax = min_int;
        }
      in
      t.histograms <- h :: t.histograms;
      h

(* top-level, not a local closure: [observe] runs every simulated cycle *)
let rec bucket (limits : int array) (v : int) i =
  if i >= Array.length limits || v <= Array.unsafe_get limits i then i
  else bucket limits v (i + 1)

let observe_n h v k =
  if k > 0 then begin
    h.n <- h.n + k;
    h.sum <- h.sum + (v * k);
    if v < h.vmin then h.vmin <- v;
    if v > h.vmax then h.vmax <- v;
    let i = bucket h.limits v 0 in
    h.buckets.(i) <- h.buckets.(i) + k
  end

let observe h v = observe_n h v 1

let observations h = h.n
let total h = h.sum
let mean h = if h.n = 0 then 0. else float_of_int h.sum /. float_of_int h.n
let min_value h = if h.n = 0 then 0 else h.vmin
let max_value h = if h.n = 0 then 0 else h.vmax

let bucket_counts h =
  Array.to_list
    (Array.mapi
       (fun i c ->
         let limit =
           if i < Array.length h.limits then Some h.limits.(i) else None
         in
         (limit, c))
       h.buckets)

(* Percentiles from bucketed counts: the smallest bucket upper bound whose
   cumulative count reaches the rank, clamped to the observed maximum (so a
   distribution living entirely below a bucket boundary never reports a
   value it did not contain). Shared with the trace query engine, whose
   histograms are parsed from dumps rather than held in a registry. *)
let percentile_of ~limits ~buckets ~n ~vmax q =
  if n <= 0 then 0
  else begin
    let rank =
      let r = int_of_float (ceil (q *. float_of_int n)) in
      if r < 1 then 1 else if r > n then n else r
    in
    let nl = Array.length limits in
    let rec go i cum =
      if i >= nl then vmax
      else
        let cum = cum + buckets.(i) in
        if cum >= rank then min limits.(i) vmax else go (i + 1) cum
    in
    go 0 0
  end

let percentile h q =
  percentile_of ~limits:h.limits ~buckets:h.buckets ~n:h.n ~vmax:(max_value h)
    q

let by_name name_of l = List.sort (fun a b -> compare (name_of a) (name_of b)) l

let counters t =
  sync t;
  by_name (fun c -> c.c_name) t.counters

let gauges t =
  sync t;
  by_name (fun g -> g.g_name) t.gauges

let histograms t =
  sync t;
  by_name (fun h -> h.h_name) t.histograms

let counter_name c = c.c_name
let gauge_name g = g.g_name
let histogram_name h = h.h_name

let counter_value t name =
  sync t;
  match List.find_opt (fun c -> c.c_name = name) t.counters with
  | Some c -> c.count
  | None -> 0

let find_histogram t name =
  sync t;
  List.find_opt (fun h -> h.h_name = name) t.histograms

(* Deterministic cross-registry aggregation: the parallel grids run one
   registry per task and fold them into one — the result must not depend
   on fold order or worker count, so every rule below is commutative and
   associative: counters and histograms sum, gauges (instantaneous
   levels) take the max. *)
let merge_into ~into src =
  sync src;
  List.iter
    (fun c -> add (counter into c.c_name) c.count)
    src.counters;
  List.iter
    (fun g ->
      let dst = gauge into g.g_name in
      dst.level <- max dst.level g.level)
    src.gauges;
  List.iter
    (fun h ->
      let dst = histogram ~limits:h.limits into h.h_name in
      if dst.limits <> h.limits then
        invalid_arg
          (Printf.sprintf "Metrics.merge_into: %s bucket limits differ"
             h.h_name);
      Array.iteri (fun i c -> dst.buckets.(i) <- dst.buckets.(i) + c) h.buckets;
      dst.n <- dst.n + h.n;
      dst.sum <- dst.sum + h.sum;
      if h.n > 0 then begin
        dst.vmin <- min dst.vmin h.vmin;
        dst.vmax <- max dst.vmax h.vmax
      end)
    src.histograms

(* syncs first, so a view's pending delta is dropped along with
   everything else, as an eagerly recorded value would be *)
let reset t =
  sync t;
  List.iter (fun c -> c.count <- 0) t.counters;
  List.iter (fun g -> g.level <- 0) t.gauges;
  List.iter
    (fun h ->
      Array.fill h.buckets 0 (Array.length h.buckets) 0;
      h.n <- 0;
      h.sum <- 0;
      h.vmin <- max_int;
      h.vmax <- min_int)
    t.histograms

(* Design-cache replay support: serialization walks the whole registry, so
   a replayed run whose registry kept metrics lazily registered by the
   previous run (e.g. [driver/op/<kind>] counters) would dump a superset of
   a fresh build's. The mark records the registry sizes at the end of
   elaboration; resetting to it drops everything registered later (the
   lists are newest-first, so that is a prefix) and zeroes the rest.
   Handles obtained during elaboration stay valid — their records survive. *)
type mark = { m_counters : int; m_gauges : int; m_histograms : int }

let mark t =
  {
    m_counters = List.length t.counters;
    m_gauges = List.length t.gauges;
    m_histograms = List.length t.histograms;
  }

let reset_to_mark t m =
  let keep n l =
    let rec drop k l = if k <= 0 then l else drop (k - 1) (List.tl l) in
    drop (List.length l - n) l
  in
  t.counters <- keep m.m_counters t.counters;
  t.gauges <- keep m.m_gauges t.gauges;
  t.histograms <- keep m.m_histograms t.histograms;
  reset t

(* Live-scrape composition: a service holds several registries (its own
   request series, per-request sim aggregates) and a scrape wants one
   exposition — fold them into a fresh registry without touching any
   source. Same commutative rules as [merge_into], so the snapshot is a
   pure function of the inputs. *)
let merged rs =
  let t = create () in
  List.iter (fun r -> merge_into ~into:t r) rs;
  t
