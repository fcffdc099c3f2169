open Plookup_store
open Plookup_util
module Net = Plookup_net.Net

type t = { cluster : Cluster.t; x : int }

let handle t dst _src (msg : Msg.t) : Msg.reply =
  let net = Cluster.net t.cluster in
  match msg with
  | Msg.Data (Msg.Place entries) ->
    (* Broadcast only the first x of the h entries. *)
    Net.broadcast net ~src:(Net.Server dst) (Msg.store_batch (List_util.take t.x entries));
    Msg.Ack
  | Msg.Data (Msg.Add e) ->
    (* Selective broadcast: only while below x, and only for new ids. *)
    let local = Cluster.store t.cluster dst in
    if Server_store.cardinal local < t.x && not (Server_store.mem local e) then
      Net.broadcast net ~src:(Net.Server dst) (Msg.store e);
    Msg.Ack
  | Msg.Data (Msg.Delete e) ->
    if Server_store.mem (Cluster.store t.cluster dst) e then
      Net.broadcast net ~src:(Net.Server dst) (Msg.remove e);
    Msg.Ack
  | Msg.Data (Msg.Lookup target) -> Strategy_common.lookup_reply t.cluster dst target
  | Msg.Strategy s -> Strategy_common.default_strategy t.cluster dst s
  | Msg.Repair _ -> Msg.Ack

let create cluster ~x =
  if x <= 0 then invalid_arg "Fixed.create: x must be positive";
  let t = { cluster; x } in
  Net.set_handler (Cluster.net cluster) (fun dst src msg -> handle t dst src msg);
  t

let place t entries = Strategy_common.to_random_server t.cluster (Msg.place (Entry.dedup entries))
let add t e = Strategy_common.to_random_server t.cluster (Msg.add e)
let delete t e = Strategy_common.to_random_server t.cluster (Msg.delete e)

module Strategy = struct
  type nonrec t = t

  let meta =
    { Strategy_intf.name = "Fixed";
      keys = [ "fixed" ];
      arity = 1;
      param_doc = "X = entries replicated on every server";
      storage_doc = "x*n";
      ablation = false;
      rank = 20 }

  let analytic_storage ~n ~h ~params =
    let x = Strategy_common.one_param ~who:"Fixed" ~what:"x" params in
    float_of_int (min x h * n)

  let params_for_budget ~n ~h:_ ~total ~params:_ = [ max 1 (total / n) ]

  let create cluster ~params =
    create cluster ~x:(Strategy_common.one_param ~who:"Fixed.create" ~what:"x" params)

  let place t ?budget:_ entries = place t entries
  let add = add
  let delete = delete
  let discipline _ = Strategy_intf.One_server
  let can_update t = Strategy_common.any_up t.cluster
  let repair_plan _ = Strategy_intf.Mirror
end

let () = Strategy_registry.register (module Strategy)
