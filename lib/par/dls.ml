(* Domain-local slots: a thin, uniform wrapper over [Domain.DLS] for
   per-domain singletons (per-domain caches).

   The parallel grids run one task per pool domain; state that must not be
   shared across domains — but should persist across tasks within a domain
   — lives in a slot. Workers die with the pool, taking their slots with
   them; the caller domain's slot persists across pool runs, which is safe
   exactly when slot contents are semantically transparent (a cache whose
   hits are byte-identical to misses). *)

type 'a t = 'a Domain.DLS.key

let make init = Domain.DLS.new_key init
let get t = Domain.DLS.get t
let set t v = Domain.DLS.set t v
