(** Handler plumbing shared by every placement strategy.

    Each strategy supplies a data-plane handler (exhaustive over the
    four client requests) and optionally a strategy-plane handler for
    the messages it actually sends itself, delegating the rest to
    {!default_strategy}.  The repair plane never reaches a strategy:
    {!Repair} intercepts it when installed, and {!install} acks it
    harmlessly when not. *)

open Plookup_store
module Net = Plookup_net.Net

(** The uniform store semantics: point store/remove mutate the local
    store, a batch replaces it wholesale.  The remaining strategy-plane
    messages belong to other strategies' protocols; a server that is
    not running those protocols acknowledges and ignores them (exactly
    what a real deployment does with a stray message for a feature it
    has not enabled). *)
let default_strategy cluster dst (msg : Msg.strategy) : Msg.reply =
  let local = Cluster.store cluster dst in
  match msg with
  | Msg.Store e ->
    ignore (Server_store.add local e);
    Msg.Ack
  | Msg.Store_batch entries ->
    Server_store.clear local;
    List.iter (fun e -> ignore (Server_store.add local e)) entries;
    Msg.Ack
  | Msg.Remove e ->
    ignore (Server_store.remove local e);
    Msg.Ack
  | Msg.Add_sampled _ | Msg.Remove_counted _ | Msg.Fetch_candidate _ | Msg.Sync_add _
  | Msg.Sync_delete _ | Msg.Sync_state ->
    Msg.Ack

let lookup_reply cluster dst target : Msg.reply =
  Msg.Entries (Cluster.pick cluster dst target)

(** Install the plane dispatcher as the cluster's handler.  [strategy]
    defaults to {!default_strategy} alone. *)
let install ?strategy cluster ~data =
  let strategy =
    match strategy with Some f -> f | None -> fun dst _src msg -> default_strategy cluster dst msg
  in
  Net.set_handler (Cluster.net cluster) (fun dst src msg ->
      match (msg : Msg.t) with
      | Msg.Data d -> data dst src d
      | Msg.Strategy s -> strategy dst src s
      | Msg.Repair _ -> Msg.Ack)

(** Client-side: hand a request to any operational server (no-op when
    the whole cluster is down, like a real client timing out). *)
let to_random_server cluster msg =
  match Cluster.random_up_server cluster with
  | None -> ()
  | Some s -> ignore (Net.send (Cluster.net cluster) ~src:Net.Client ~dst:s msg)

let any_up cluster = Cluster.up_count cluster > 0

(** Shared [params] decoding for {!Strategy_intf.S.create}. *)
let one_param ~who ~what = function
  | [ p ] when p > 0 -> p
  | [ p ] -> invalid_arg (Printf.sprintf "%s: %s must be positive (got %d)" who what p)
  | params ->
    invalid_arg
      (Printf.sprintf "%s: expected one parameter (%s), got %d" who what
         (List.length params))

let no_params ~who = function
  | [] -> ()
  | params ->
    invalid_arg
      (Printf.sprintf "%s: expected no parameters, got %d" who (List.length params))
