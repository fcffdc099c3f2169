open Plookup_store
open Plookup_util
module Net = Plookup_net.Net

type msg = string * Msg.t (* key-qualified protocol messages *)

type t = {
  n : int;
  seed : int;
  rng : Rng.t;
  net : (msg, Msg.reply) Net.t;
  stores : (string, Server_store.t) Hashtbl.t array; (* per server, per key *)
  scratch : Server_store.scratch; (* lent to every store's [random_pick] *)
}

let key_store t ~server ~key =
  match Hashtbl.find_opt t.stores.(server) key with
  | Some store -> store
  | None ->
    let store = Server_store.create () in
    Hashtbl.replace t.stores.(server) key store;
    store

let handler t dst _src ((key, msg) : msg) : Msg.reply =
  let store = key_store t ~server:dst ~key in
  match msg with
  | Msg.Strategy (Msg.Store e) ->
    ignore (Server_store.add store e);
    Msg.Ack
  | Msg.Strategy (Msg.Store_batch entries) ->
    Server_store.clear store;
    List.iter (fun e -> ignore (Server_store.add store e)) entries;
    Msg.Ack
  | Msg.Strategy (Msg.Remove e) ->
    ignore (Server_store.remove store e);
    Msg.Ack
  | Msg.Data (Msg.Lookup target) ->
    Msg.Entries (Server_store.random_pick store ~scratch:t.scratch t.rng target)
  | Msg.Data _ | Msg.Strategy _ | Msg.Repair _ ->
    (* Not part of the partitioned store's protocol; acknowledge and
       ignore, like any server receiving a message for a feature it is
       not running. *)
    Msg.Ack

let create ?(seed = 0) ~n () =
  if n <= 0 then invalid_arg "Partitioned.create: n must be positive";
  let t =
    { n;
      seed;
      rng = Rng.create seed;
      net = Net.create ~n ();
      stores = Array.init n (fun _ -> Hashtbl.create 16);
      scratch = Server_store.scratch () }
  in
  Net.set_handler t.net (handler t);
  t

let home t key = Rng.hash_in_range ~seed:t.seed ~salt:0 ~value:(Hashtbl.hash key) t.n

let place t ~key entries =
  ignore
    (Net.send t.net ~src:Net.Client ~dst:(home t key)
       (key, Msg.store_batch (Entry.dedup entries)))

let add t ~key entry =
  ignore (Net.send t.net ~src:Net.Client ~dst:(home t key) (key, Msg.store entry))

let delete t ~key entry =
  ignore (Net.send t.net ~src:Net.Client ~dst:(home t key) (key, Msg.remove entry))

let lookup t ~key target =
  match Net.send t.net ~src:Net.Client ~dst:(home t key) (key, Msg.lookup target) with
  | Some (Msg.Entries entries) ->
    { Lookup_result.entries; servers_contacted = 1; target }
  | Some (Msg.Ack | Msg.Candidate _ | Msg.Digest _ | Msg.Busy) | None ->
    Lookup_result.empty ~target

let entries_of t ~key =
  match Hashtbl.find_opt t.stores.(home t key) key with
  | Some store -> Server_store.to_list store
  | None -> []

let fail t i = Net.fail t.net i
let recover t i = Net.recover t.net i

let load t = Array.init t.n (fun i -> Net.messages_received_by t.net i)
let reset_load t = Net.reset_counters t.net

let total_stored t =
  Array.fold_left
    (fun acc per_key ->
      Hashtbl.fold (fun _ store acc -> acc + Server_store.cardinal store) per_key acc)
    0 t.stores
