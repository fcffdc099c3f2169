open Plookup_store
open Plookup_util
module Net = Plookup_net.Net
module Obs = Plookup_obs.Obs

type t = {
  n : int;
  seed : int;
  rng : Rng.t;
  answers : Answer_set.t Lazy.t; (* made by the first lookup that merges *)
  net : (Msg.t, Msg.reply) Net.t;
  stores : Server_store.t array;
  scratch : Server_store.scratch; (* lent to every store's [random_pick] *)
  obs : Obs.t;
}

let create ?(seed = 0) ?obs ~n () =
  if n <= 0 then invalid_arg "Cluster.create: n must be positive";
  let obs = match obs with Some o -> o | None -> Obs.create () in
  let net = Net.create ~metrics:obs.Obs.metrics ~n () in
  Net.set_planes net ~names:Msg.plane_names ~classify:Msg.plane_index;
  Net.set_trace net obs.Obs.trace ~coder:(Msg.trace_coder obs.Obs.trace);
  { n;
    seed;
    rng = Rng.create seed;
    answers = lazy (Answer_set.create ());
    net;
    stores = Array.init n (fun _ -> Server_store.create ());
    scratch = Server_store.scratch ();
    obs }

let n t = t.n
let seed t = t.seed
let rng t = t.rng
let answers t = Lazy.force t.answers
let net t = t.net
let obs t = t.obs

let store t i =
  if i < 0 || i >= t.n then invalid_arg "Cluster.store: server index out of range";
  t.stores.(i)

let pick t i k = Server_store.random_pick (store t i) ~scratch:t.scratch t.rng k

let fail t i = Net.fail t.net i
let recover t i = Net.recover t.net i
let is_up t i = Net.is_up t.net i
let up_servers t = Net.up_servers t.net

let set_faults t ?seed ?loss ?duplication ?jitter () =
  let seed = Option.value seed ~default:t.seed in
  Net.set_faults t.net ~seed ?loss ?duplication ?jitter ()

let set_capacity t ~service_rate ~queue_limit ?(nack = false) () =
  Net.set_capacity t.net ~service_rate ~queue_limit
    ?nack:(if nack then Some Msg.Busy else None)
    ()

let set_degraded t i ~factor = Net.set_degraded t.net i ~factor
let messages_shed t = Net.messages_shed t.net

let up_count t = Net.up_count t.net

(* One [Rng.int] draw over the up-count, resolved by rank with
   [Net.kth_up] — the same draw (and the same server: the k-th smallest
   up id) as the old [List.nth up_servers] scan. *)
let random_up_server t =
  match up_count t with
  | 0 -> None
  | up -> Some (Net.kth_up t.net (Rng.int t.rng up))

let next_up_from t i =
  if i < 0 || i >= t.n then invalid_arg "Cluster.next_up_from: server index out of range";
  let rec go k =
    if k >= t.n then None
    else begin
      let s = (i + k) mod t.n in
      if is_up t s then Some s else go (k + 1)
    end
  in
  go 1

let total_stored t = Array.fold_left (fun acc s -> acc + Server_store.cardinal s) 0 t.stores

let coverage t =
  List.fold_left
    (fun acc i ->
      Server_store.fold (fun e acc -> Entry.Set.add e acc) t.stores.(i) acc)
    Entry.Set.empty (up_servers t)

let snapshot_bitsets t ~capacity =
  Array.map (fun s -> Server_store.snapshot_bitset s ~capacity) t.stores

let pp ppf t =
  Format.fprintf ppf "cluster n=%d seed=%d@." t.n t.seed;
  Array.iteri
    (fun i s ->
      Format.fprintf ppf "  server %d%s: %a@." i
        (if is_up t i then "" else " (down)")
        Server_store.pp s)
    t.stores
