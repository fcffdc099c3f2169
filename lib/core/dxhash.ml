open Plookup_store
open Plookup_util

(* Consistent hashing on a pseudo-random probe sequence, after DxHash
   (Dong & Wang): the slot space is the smallest power of two holding
   one slot per server, slots [0, n) active and the rest inactive — no
   ring.  An entry walks its own deterministic probe sequence over the
   slot space and lives on the first y *distinct* active slots it hits.
   Each probe lands on an active slot with probability >= 1/2 (the slot
   space is at most 2n), so finding an entry's owners is O(1) expected —
   no sorted ring, no binary search — and shrinking or growing the
   active prefix only remaps the entries whose probe walk actually
   crosses the flipped slots (an expected y/n fraction per removed
   server, matching consistent hashing's churn bound). *)

let slot_count n =
  let rec go s = if s >= n then s else go (2 * s) in
  go 1

(* Probe [j] of entry [id]'s sequence: an independent hash per step, so
   the sequence restarts identically on every node that computes it. *)
let probe ~seed ~slots ~id j = Rng.hash_in_range ~seed ~salt:(0xD8A5 + j) ~value:id slots

(* First [y] distinct slots below [active] along the probe sequence.
   Active slot s is server s, so no slot->server table is needed.  The
   walk is capped (distinctness makes the tail a coupon-collector when y
   approaches the active count); past the cap the remaining copies come
   from the ascending active slots not yet chosen — deterministic, so
   every node still agrees on the owner set. *)
let owners ~seed ~slots ~y ~active id =
  let y = min y active in
  if y = 0 then []
  else begin
    let chosen = Array.make y (-1) in
    let count = ref 0 in
    let picked s =
      let rec go j = j < !count && (chosen.(j) = s || go (j + 1)) in
      go 0
    in
    let take s =
      chosen.(!count) <- s;
      incr count
    in
    let cap = 64 + (16 * y * (slots / active)) in
    let j = ref 0 in
    while !count < y && !j < cap do
      let s = probe ~seed ~slots ~id !j in
      if s < active && not (picked s) then take s;
      incr j
    done;
    let s = ref 0 in
    while !count < y do
      if !s < active && not (picked !s) then take !s;
      incr s
    done;
    Array.to_list chosen
  end

let owners_for cluster ~y ~active e =
  let n = Cluster.n cluster in
  if active < 0 || active > n then invalid_arg "Dxhash.owners_for: active out of range";
  owners ~seed:(Cluster.seed cluster) ~slots:(slot_count n) ~y ~active (Entry.id e)

let create cluster ~y =
  if y < 1 then invalid_arg "Dxhash.create: y must be at least 1";
  let seed = Cluster.seed cluster and n = Cluster.n cluster in
  let slots = slot_count n in
  Owner_placement.create cluster ~targets:(fun e ->
      owners ~seed ~slots ~y ~active:n (Entry.id e))

module Strategy = Owner_placement.Strategy (struct
  let meta =
    { Strategy_intf.name = "DxHash";
      keys = [ "dxhash"; "dx" ];
      arity = 1;
      param_doc = "Y = copies per entry along the pseudo-random probe sequence";
      storage_doc = "h*min(y,n)";
      ablation = false;
      rank = 70 }

  let analytic_storage ~n ~h ~params =
    float_of_int (h * min (Strategy_common.one_param ~who:"DxHash" ~what:"y" params) n)

  let params_for_budget ~n:_ ~h ~total ~params:_ = [ max 1 (total / h) ]

  let create cluster ~params =
    create cluster ~y:(Strategy_common.one_param ~who:"Dxhash.create" ~what:"y" params)
end)

let () = Strategy_registry.register (module Strategy)
