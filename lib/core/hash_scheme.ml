open Plookup_store
open Plookup_util
module Net = Plookup_net.Net

type t = { cluster : Cluster.t; y : int }

let hash_server t ~salt e =
  Rng.hash_in_range ~seed:(Cluster.seed t.cluster) ~salt ~value:(Entry.id e)
    (Cluster.n t.cluster)

let servers_of t e =
  let rec go salt acc =
    if salt > t.y then List.rev acc
    else begin
      let s = hash_server t ~salt e in
      go (salt + 1) (if List.mem s acc then acc else s :: acc)
    end
  in
  go 1 []

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
  if y < 1 then invalid_arg "Hash_scheme.create: y must be at least 1";
  let t = { cluster; y } in
  Strategy_common.install cluster ~data:(handle_data t);
  t

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
       cut keeps coverage maximal (Fig. 6's "keep a subset"). *)
    for salt = 1 to t.y do
      Array.iter
        (fun e ->
          if !spent < budget then begin
            let dst = hash_server t ~salt e in
            (* Count the message even when it collides with an earlier
               hash function — the receiver stores at most one copy. *)
            send_store t ~src:s ~dst e;
            incr spent
          end)
        arr
    done

let to_random_server t msg =
  match Cluster.random_up_server t.cluster with
  | None -> ()
  | Some s -> ignore (Net.send (Cluster.net t.cluster) ~src:Net.Client ~dst:s msg)

let add t e = to_random_server t (Msg.add e)
let delete t e = to_random_server t (Msg.delete e)
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
          fail "server %d stores %s not hashed to it" s (Entry.to_string e))
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
    { Strategy_intf.name = "Hash";
      keys = [ "hash" ];
      arity = 1;
      param_doc = "Y = hash functions placing each entry";
      storage_doc = "h*n*(1-(1-1/n)^y)";
      ablation = false;
      rank = 50 }

  let analytic_storage ~n ~h ~params =
    let y = Strategy_common.one_param ~who:"Hash" ~what:"y" params in
    let fn = float_of_int n in
    float_of_int h *. fn *. (1. -. ((1. -. (1. /. fn)) ** float_of_int y))

  let params_for_budget ~n:_ ~h ~total ~params:_ = [ max 1 (total / h) ]

  let create ?resync_stores:_ cluster ~params =
    create cluster ~y:(Strategy_common.one_param ~who:"Hash_scheme.create" ~what:"y" params)

  let place t ?budget entries = place ?budget t entries
  let add = add
  let delete = delete
  let partial_lookup = partial_lookup
  let can_update t = Strategy_common.any_up t.cluster
  let repair_plan t = Strategy_intf.Assigned (fun e -> Some (servers_of t e))
end

let () = Strategy_registry.register (module Strategy)
