open Plookup_store
module Net = Plookup_net.Net

type t = { cluster : Cluster.t; targets : Entry.t -> int list }

let rec mem (s : int) = function [] -> false | x :: rest -> x = s || mem s rest
let rec has_repeat = function [] -> false | s :: rest -> mem s rest || has_repeat rest

(* Distinct owners in first-occurrence order.  Only Hash-y's targets can
   repeat a server; every other list is returned as it is, so the repair
   daemon's per-tick owner queries allocate nothing extra. *)
let servers_of t e =
  let targets = t.targets e in
  if not (has_repeat targets) then targets
  else
    List.rev
      (List.fold_left (fun acc s -> if mem s acc then acc else s :: acc) [] targets)

(* One update's messages to its owners, all from one sender value and
   with no closure. *)
let rec send_all net ~src msg = function
  | [] -> ()
  | dst :: rest ->
    ignore (Net.send net ~src ~dst msg);
    send_all net ~src msg rest

let handle t dst _src (msg : Msg.t) : Msg.reply =
  match msg with
  | Msg.Data (Msg.Place _) ->
    (* Distribution is driven from [place] below (budget support); the
       request itself reaches one server. *)
    Msg.Ack
  | Msg.Data (Msg.Add e) ->
    send_all (Cluster.net t.cluster) ~src:(Net.Server dst) (Msg.store e) (servers_of t e);
    Msg.Ack
  | Msg.Data (Msg.Delete e) ->
    send_all (Cluster.net t.cluster) ~src:(Net.Server dst) (Msg.remove e) (servers_of t e);
    Msg.Ack
  | Msg.Data (Msg.Lookup target) -> Strategy_common.lookup_reply t.cluster dst target
  | Msg.Strategy s -> Strategy_common.default_strategy t.cluster dst s
  | Msg.Repair _ -> Msg.Ack

let create cluster ~targets =
  let t = { cluster; targets } in
  Net.set_handler (Cluster.net cluster) (fun dst src msg -> handle t dst src msg);
  t

let place ?budget t entries =
  ignore
    (Strategy_common.place_round_major ?budget t.cluster (Entry.dedup entries)
       ~owners:(fun _ e -> t.targets e))

let add t e = Strategy_common.to_random_server t.cluster (Msg.add e)
let delete t e = Strategy_common.to_random_server t.cluster (Msg.delete e)

let check_invariants t ~placed =
  Strategy_common.check_placement t.cluster (List.map (fun e -> (e, servers_of t e)) placed)

module type PLACEMENT = sig
  val meta : Strategy_intf.meta
  val analytic_storage : n:int -> h:int -> params:int list -> float
  val params_for_budget : n:int -> h:int -> total:int -> params:int list -> int list
  val create : Cluster.t -> params:int list -> t
end

module Strategy (P : PLACEMENT) = struct
  type nonrec t = t

  let meta = P.meta
  let analytic_storage = P.analytic_storage
  let params_for_budget = P.params_for_budget
  let create cluster ~params = P.create cluster ~params
  let place t ?budget entries = place ?budget t entries
  let add = add
  let delete = delete
  let discipline _ = Strategy_intf.Random
  let can_update t = Strategy_common.any_up t.cluster
  let repair_plan t = Strategy_intf.Owner_function (servers_of t)
end
