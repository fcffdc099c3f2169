open Plookup_store
module Net = Plookup_net.Net

type t = { cluster : Cluster.t }

(* Server-side behaviour: a client request at server [dst] triggers a
   broadcast; the broadcast store/remove itself is the shared default
   (mutate the local store). *)
let handle cluster dst _src (msg : Msg.t) : Msg.reply =
  let net = Cluster.net cluster in
  match msg with
  | Msg.Data (Msg.Place entries) ->
    Net.broadcast net ~src:(Net.Server dst) (Msg.store_batch entries);
    Msg.Ack
  | Msg.Data (Msg.Add e) ->
    Net.broadcast net ~src:(Net.Server dst) (Msg.store e);
    Msg.Ack
  | Msg.Data (Msg.Delete e) ->
    Net.broadcast net ~src:(Net.Server dst) (Msg.remove e);
    Msg.Ack
  | Msg.Data (Msg.Lookup t) -> Strategy_common.lookup_reply cluster dst t
  | Msg.Strategy s -> Strategy_common.default_strategy cluster dst s
  | Msg.Repair _ -> Msg.Ack

let create cluster =
  Net.set_handler (Cluster.net cluster) (fun dst src msg -> handle cluster dst src msg);
  { cluster }

let place t entries = Strategy_common.to_random_server t.cluster (Msg.place (Entry.dedup entries))
let add t e = Strategy_common.to_random_server t.cluster (Msg.add e)
let delete t e = Strategy_common.to_random_server t.cluster (Msg.delete e)

module Strategy = struct
  type nonrec t = t

  let meta =
    { Strategy_intf.name = "FullReplication";
      keys = [ "full"; "fullreplication"; "full_replication"; "replication" ];
      arity = 0;
      param_doc = "";
      storage_doc = "h*n";
      ablation = false;
      rank = 10 }

  let analytic_storage ~n ~h ~params:_ = float_of_int (h * n)
  let params_for_budget ~n:_ ~h:_ ~total:_ ~params:_ = []

  let create cluster ~params =
    Strategy_common.no_params ~who:"FullReplication" params;
    create cluster

  let place t ?budget:_ entries = place t entries
  let add = add
  let delete = delete
  let discipline _ = Strategy_intf.One_server
  let can_update t = Strategy_common.any_up t.cluster
  let repair_plan _ = Strategy_intf.Mirror
end

let () = Strategy_registry.register (module Strategy)
