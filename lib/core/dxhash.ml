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

(* Whether slot [s] is among the first [count] chosen. *)
let rec picked chosen count s = count > 0 && (chosen.(count - 1) = s || picked chosen (count - 1) s)

(* Walk the probe sequence from step [j], below [cap] steps, filling
   [chosen] from index [count] with distinct active slots; returns how
   many are chosen. *)
let rec walk ~seed ~slots ~active ~id ~cap chosen count j =
  if count = Array.length chosen || j >= cap then count
  else begin
    let s = probe ~seed ~slots ~id j in
    if s < active && not (picked chosen count s) then begin
      chosen.(count) <- s;
      walk ~seed ~slots ~active ~id ~cap chosen (count + 1) (j + 1)
    end
    else walk ~seed ~slots ~active ~id ~cap chosen count (j + 1)
  end

(* Fill the rest of [chosen] with the ascending active slots from [s]
   not yet chosen. *)
let rec fill_ascending ~active chosen count s =
  if count < Array.length chosen then
    if s < active && not (picked chosen count s) then begin
      chosen.(count) <- s;
      fill_ascending ~active chosen (count + 1) (s + 1)
    end
    else fill_ascending ~active chosen count (s + 1)

(* [chosen.(0..i)] consed onto [acc]; [Array.to_list] allocates a
   closure per call. *)
let rec to_list chosen i acc = if i < 0 then acc else to_list chosen (i - 1) (chosen.(i) :: acc)

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
    let cap = 64 + (16 * y * (slots / active)) in
    let count = walk ~seed ~slots ~active ~id ~cap chosen 0 0 in
    fill_ascending ~active chosen count 0;
    to_list chosen (y - 1) []
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
