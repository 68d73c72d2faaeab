type t = {
  mutable workers : unit Domain.t array;
  queue : (unit -> unit) Queue.t;
  mutex : Mutex.t;
  nonempty : Condition.t;
  mutable stop : bool;
  mutable shut : bool;
}

let worker_loop t () =
  let rec loop () =
    Mutex.lock t.mutex;
    let rec take () =
      match Queue.take_opt t.queue with
      | Some task -> Some task
      | None ->
          if t.stop then None
          else begin
            Condition.wait t.nonempty t.mutex;
            take ()
          end
    in
    let task = take () in
    Mutex.unlock t.mutex;
    match task with
    | None -> ()
    | Some task ->
        (* a task never lets an exception escape: map_ordered wraps its
           closures, and submit documents the requirement — but a stray
           raise must not kill the domain and deadlock a later map *)
        (try task () with _ -> ());
        loop ()
  in
  loop ()

let create ?domains () =
  let domains =
    match domains with
    | Some d ->
        if d < 0 then invalid_arg "Pool.create: domains must be >= 0";
        d
    | None -> max 0 (Domain.recommended_domain_count () - 1)
  in
  let t =
    {
      workers = [||];
      queue = Queue.create ();
      mutex = Mutex.create ();
      nonempty = Condition.create ();
      stop = false;
      shut = false;
    }
  in
  t.workers <- Array.init domains (fun _ -> Domain.spawn (worker_loop t));
  t

let domains t = Array.length t.workers
let size t = Array.length t.workers + 1

let submit t task =
  if t.shut then invalid_arg "Pool.submit: pool is shut down";
  if Array.length t.workers = 0 then
    invalid_arg "Pool.submit: sequential pool has no workers";
  Mutex.lock t.mutex;
  Queue.add task t.queue;
  Condition.signal t.nonempty;
  Mutex.unlock t.mutex

(* One map = one claim counter + one result slot per element. Workers (and
   the caller) claim indices atomically and run until the array is drained;
   a per-map countdown of finished drainers tells the caller everything is
   stored. Results travel through the mutex (release on the last decrement,
   acquire in the caller's wait), so the plain writes to [results] are
   properly synchronised. *)
let map_ordered t f arr =
  if t.shut then invalid_arg "Pool.map_ordered: pool is shut down";
  let n = Array.length arr in
  let nw = Array.length t.workers in
  if nw = 0 || n <= 1 then Array.map f arr
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let drainers = min nw (n - 1) in
    let live = ref (drainers + 1) in
    let done_ = Condition.create () in
    let drain () =
      let rec go () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          let r =
            match f arr.(i) with
            | v -> Ok v
            | exception e -> Error (e, Printexc.get_raw_backtrace ())
          in
          results.(i) <- Some r;
          go ()
        end
      in
      go ();
      Mutex.lock t.mutex;
      decr live;
      if !live = 0 then Condition.broadcast done_;
      Mutex.unlock t.mutex
    in
    for _ = 1 to drainers do
      submit t drain
    done;
    drain ();
    Mutex.lock t.mutex;
    while !live > 0 do
      Condition.wait done_ t.mutex
    done;
    Mutex.unlock t.mutex;
    Array.map
      (function
        | Some (Ok v) -> v
        | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
        | None -> assert false)
      results
  end

let shutdown t =
  if not t.shut then begin
    t.shut <- true;
    Mutex.lock t.mutex;
    t.stop <- true;
    Condition.broadcast t.nonempty;
    Mutex.unlock t.mutex;
    Array.iter Domain.join t.workers;
    t.workers <- [||]
  end

let with_pool ?domains f =
  let t = create ?domains () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let of_jobs n =
  if n < 0 then invalid_arg "Pool.of_jobs: negative -j"
  else if n = 1 then None
  else if n = 0 then
    let auto = Domain.recommended_domain_count () in
    if auto <= 1 then None else Some (create ~domains:(auto - 1) ())
  else Some (create ~domains:(n - 1) ())

let jobs = function None -> 1 | Some t -> size t
