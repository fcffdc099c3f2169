open Plookup_store
open Plookup_util
module Net = Plookup_net.Net

(* Consistent hashing on a pseudo-random probe sequence, after DxHash
   (Dong & Wang): the slot space is the smallest power of two holding
   one slot per server, slots [0, n) active and the rest inactive (a
   bitmap, not a ring).  An entry walks its own deterministic probe
   sequence over the slot space and lives on the first y *distinct*
   active slots it hits.  Each probe lands on an active slot with
   probability >= 1/2 (the slot space is at most 2n), so lookup of an
   entry's owners is O(1) expected — no sorted ring, no binary search —
   and shrinking or growing the active prefix only remaps the entries
   whose probe walk actually crosses the flipped slots (an expected
   y/n fraction per removed server, matching consistent hashing's
   churn bound). *)

type t = {
  cluster : Cluster.t;
  y : int;
  slots : int; (* power of two, >= n *)
  active : Bitset.t; (* active slots; here the [0, n) prefix *)
}

let slot_count n =
  let rec go s = if s >= n then s else go (2 * s) in
  go 1

(* Probe [j] of entry [id]'s sequence: an independent hash per step, so
   the sequence restarts identically on every node that computes it. *)
let probe ~seed ~slots ~id j = Rng.hash_in_range ~seed ~salt:(0xD8A5 + j) ~value:id slots

(* First [y] distinct active slots along the probe sequence.  The walk
   is capped (distinctness makes the tail a coupon-collector when y
   approaches the active count); past the cap the remaining copies come
   from the ascending active slots not yet chosen — deterministic, so
   every node still agrees on the owner set. *)
let owners_generic ~seed ~slots ~y ~mem_active ~active_count id =
  let y = min y active_count in
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
    let cap = 64 + (16 * y * (slots / max 1 active_count)) in
    let j = ref 0 in
    while !count < y && !j < cap do
      let s = probe ~seed ~slots ~id !j in
      if mem_active s && not (picked s) then take s;
      incr j
    done;
    let s = ref 0 in
    while !count < y do
      if !s < slots && mem_active !s && not (picked !s) then take !s;
      incr s
    done;
    Array.to_list chosen
  end

(* Active slot s is server s: the active prefix is exactly the server
   set, so no slot->server table is needed. *)
let servers_of t e =
  owners_generic ~seed:(Cluster.seed t.cluster) ~slots:t.slots ~y:t.y
    ~mem_active:(Bitset.mem t.active) ~active_count:(Cluster.n t.cluster) (Entry.id e)

let owners_for t ~active e =
  if active < 0 || active > Cluster.n t.cluster then
    invalid_arg "Dxhash.owners_for: active out of range";
  owners_generic ~seed:(Cluster.seed t.cluster) ~slots:t.slots ~y:t.y
    ~mem_active:(fun s -> s < active) ~active_count:active (Entry.id e)

let send_store t ~src ~dst e =
  ignore (Net.send (Cluster.net t.cluster) ~src:(Net.Server src) ~dst (Msg.store e))

let send_remove t ~src ~dst e =
  ignore (Net.send (Cluster.net t.cluster) ~src:(Net.Server src) ~dst (Msg.remove e))

let handle_data t dst _src (msg : Msg.data) : Msg.reply =
  match msg with
  | Msg.Place _ ->
    (* Distribution is driven from [place] below (budget support); the
       request itself reaches one server. *)
    Msg.Ack
  | Msg.Add e ->
    List.iter (fun s -> send_store t ~src:dst ~dst:s e) (servers_of t e);
    Msg.Ack
  | Msg.Delete e ->
    List.iter (fun s -> send_remove t ~src:dst ~dst:s e) (servers_of t e);
    Msg.Ack
  | Msg.Lookup target -> Strategy_common.lookup_reply t.cluster dst target

let create cluster ~y =
  if y < 1 then invalid_arg "Dxhash.create: y must be at least 1";
  let n = Cluster.n cluster in
  let slots = slot_count n in
  let active = Bitset.create slots in
  for s = 0 to n - 1 do
    Bitset.add active s
  done;
  let t = { cluster; y = min y n; slots; active } in
  Strategy_common.install cluster ~data:(handle_data t);
  t

let y t = t.y
let slots t = t.slots

let place ?budget t entries =
  let entries = Entry.dedup entries in
  match Cluster.random_up_server t.cluster with
  | None -> ()
  | Some s ->
    ignore (Net.send (Cluster.net t.cluster) ~src:Net.Client ~dst:s (Msg.place entries));
    let arr = Array.of_list entries in
    let budget = match budget with None -> max_int | Some b -> b in
    let spent = ref 0 in
    (* Round-major: all first copies before any second copy, so a budget
       cut keeps coverage maximal. *)
    for r = 0 to t.y - 1 do
      Array.iter
        (fun e ->
          if !spent < budget then begin
            let owners = servers_of t e in
            match List.nth_opt owners r with
            | Some dst ->
              send_store t ~src:s ~dst e;
              incr spent
            | None -> ()
          end)
        arr
    done

let add t e = Strategy_common.to_random_server t.cluster (Msg.add e)
let delete t e = Strategy_common.to_random_server t.cluster (Msg.delete e)
let partial_lookup ?reachable t target = Probe.random_order ?reachable t.cluster ~t:target

let check_invariants t ~placed =
  let n = Cluster.n t.cluster in
  let expected = Array.init n (fun _ -> Hashtbl.create 16) in
  List.iter
    (fun e ->
      List.iter (fun s -> Hashtbl.replace expected.(s) (Entry.id e) ()) (servers_of t e))
    placed;
  let ok = ref (Ok ()) in
  let fail fmt = Format.kasprintf (fun s -> if !ok = Ok () then ok := Error s) fmt in
  for s = 0 to n - 1 do
    let store = Cluster.store t.cluster s in
    Server_store.iter
      (fun e ->
        if not (Hashtbl.mem expected.(s) (Entry.id e)) then
          fail "server %d stores %s not assigned to it" s (Entry.to_string e))
      store;
    Hashtbl.iter
      (fun id () ->
        if not (Server_store.mem store (Entry.v id)) then
          fail "server %d is missing entry v%d" s id)
      expected.(s)
  done;
  !ok

module Strategy = struct
  type nonrec t = t

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

  let create ?resync_stores:_ cluster ~params =
    create cluster ~y:(Strategy_common.one_param ~who:"Dxhash.create" ~what:"y" params)

  let place t ?budget entries = place ?budget t entries
  let add = add
  let delete = delete
  let partial_lookup = partial_lookup
  let can_update t = Strategy_common.any_up t.cluster
  let repair_plan t = Strategy_intf.Assigned (fun e -> Some (servers_of t e))
end

let () = Strategy_registry.register (module Strategy)
