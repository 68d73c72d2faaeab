open Splice_sim
open Splice_driver
open Splice_par

(* Content-hashed design cache with instance-reset replay (see DESIGN.md
   "Design cache & instance reset").

   A cache entry is a fully elaborated host — kernel, peripheral, bus
   adapter, monitors — plus the end-of-elaboration snapshot that
   [Host.reset] rewinds to. The key is the canonical content of everything
   elaboration depends on: the spec source, the bus, the CDC configuration
   (clock ratio + FIFO depth) and a caller tag naming the behaviors. The
   {e scheduler is deliberately not part of the key}: the same elaborated
   design serves all three schedulers — a hit resets the kernel and
   re-targets it, and the next seal rebuilds whatever the new scheduler
   needs. The eval grids are the callers: [Cycles.measure] and the E14
   ablation replay one implementation's host across calls, and the E8 and
   CDC cells replay theirs across schedulers. (The fuzz sweep does its
   replays inside each cell, with no cache; see [Check.Diff].)

   Determinism: a hit replays byte-identically to a fresh build (the
   [Host.reset] contract), so results never depend on the hit/miss pattern
   — which is what allows a {e per-domain} cache (no shared mutation, no
   locks) to leave every grid bit-equal at any [-j]. Only the hit/miss
   counters are scheduling-dependent (cross-call hits require the repeat
   to land in the same domain); nothing downstream of them is. *)

type key = {
  k_tag : string;  (* caller namespace + behavior discriminators *)
  k_src : string;  (* canonical spec source text *)
  k_bus : string;
  k_ratio : int * int;  (* CDC clock ratio (bus : peripheral) *)
  k_depth : int;  (* CDC FIFO depth *)
}

(* Canonical content hash: fold the key's rendering through the splitmix64
   finaliser, 8 bytes at a time. Collisions are survivable — the full key
   is compared on lookup — but the 64-bit space makes them a non-event. *)
let hash_key k =
  let buf = Buffer.create 256 in
  let ratio_a, ratio_b = k.k_ratio in
  Buffer.add_string buf k.k_tag;
  Buffer.add_char buf '\x00';
  Buffer.add_string buf k.k_bus;
  Buffer.add_char buf '\x00';
  Buffer.add_string buf (string_of_int ratio_a);
  Buffer.add_char buf ':';
  Buffer.add_string buf (string_of_int ratio_b);
  Buffer.add_char buf '\x00';
  Buffer.add_string buf (string_of_int k.k_depth);
  Buffer.add_char buf '\x00';
  Buffer.add_string buf k.k_src;
  let s = Buffer.contents buf in
  let n = String.length s in
  let h = ref (Int64.of_int n) in
  let i = ref 0 in
  while !i < n do
    let word = ref 0L in
    for j = 0 to 7 do
      let c = if !i + j < n then Char.code s.[!i + j] else 0 in
      word := Int64.logor !word (Int64.shift_left (Int64.of_int c) (8 * j))
    done;
    h := Splitmix.mix64 (Int64.logxor !h !word);
    i := !i + 8
  done;
  !h

type entry = {
  e_hash : int64;
  e_key : key;
  e_host : Host.t;
  e_reuse : Host.reuse;
}

type t = {
  capacity : int;
  mutable lru : entry list;  (* MRU first; bounded by [capacity] *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

type stats = { hits : int; misses : int; evictions : int; entries : int }

let create ~capacity =
  if capacity < 1 then invalid_arg "Design_cache.create: capacity must be >= 1";
  { capacity; lru = []; hits = 0; misses = 0; evictions = 0 }

let stats (t : t) =
  {
    hits = t.hits;
    misses = t.misses;
    evictions = t.evictions;
    entries = List.length t.lru;
  }

let capacity t = t.capacity

let key_equal a b =
  String.equal a.k_tag b.k_tag && String.equal a.k_src b.k_src && String.equal a.k_bus b.k_bus
  && fst a.k_ratio = fst b.k_ratio
  && snd a.k_ratio = snd b.k_ratio
  && a.k_depth = b.k_depth

let find_and_promote (t : t) hash key =
  let rec go acc = function
    | [] -> None
    | e :: rest when e.e_hash = hash && key_equal e.e_key key ->
        t.lru <- e :: List.rev_append acc rest;
        Some e
    | e :: rest -> go (e :: acc) rest
  in
  go [] t.lru

let insert (t : t) e =
  let rec take n = function
    | [] -> []
    | _ when n = 0 ->
        t.evictions <- t.evictions + 1;
        []
    | x :: rest -> x :: take (n - 1) rest
  in
  t.lru <- e :: take (t.capacity - 1) t.lru

let acquire (t : t) ~key ~(sched : Kernel.sched) ~build =
  let hash = hash_key key in
  match find_and_promote t hash key with
  | Some e ->
      t.hits <- t.hits + 1;
      Host.reset ~sched e.e_host e.e_reuse;
      (e.e_host, true)
  | None ->
      t.misses <- t.misses + 1;
      let host = build () in
      let e_reuse = Host.prepare_reuse host in
      insert t { e_hash = hash; e_key = key; e_host = host; e_reuse };
      (host, false)

(* ------------------------------------------------------------------ *)
(* Per-domain ambient cache                                            *)
(* ------------------------------------------------------------------ *)

let slot : t option ref Dls.t = Dls.make (fun () -> ref None)

let with_cache ~key ~sched ~build =
  let r = Dls.get slot in
  let c =
    match !r with
    | Some c -> c
    | None ->
        let c = create ~capacity:32 in
        r := Some c;
        c
  in
  acquire c ~key ~sched ~build

let domain_stats () =
  match !(Dls.get slot) with None -> None | Some c -> Some (stats c)
