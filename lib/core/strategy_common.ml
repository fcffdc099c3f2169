(** Handler plumbing shared by every placement strategy.

    Each strategy's [create] installs its own handler, one closure that
    matches a {!Msg.t} once and calls the strategy's functions directly:
    exhaustive over the four client requests, its own strategy-plane
    messages, {!default_strategy} for the rest of that plane, and [Ack]
    for the repair plane.  The repair plane never reaches a strategy:
    {!Repair} wraps the handler and intercepts it when installed, and
    the strategy acks it harmlessly when not. *)

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

(** Client-side: hand a request to any operational server (no-op when
    the whole cluster is down, like a real client timing out). *)
let to_random_server cluster msg =
  match Cluster.random_up_server cluster with
  | None -> ()
  | Some s -> ignore (Net.send (Cluster.net cluster) ~src:Net.Client ~dst:s msg)

let any_up cluster = Cluster.up_count cluster > 0

(** Batch placement for a strategy that names each entry's owners: send
    [Msg.place entries] to one random up server [s], which stores the
    [i]-th entry [e] at [owners i e], in copy order.  Round-major: every
    entry's first owner gets its copy before any entry's second, so a
    [budget] cut keeps coverage maximal (Fig. 6).  Every owner named
    costs one message and one unit of [budget], a repeated one included.
    [owners] draws nothing, so each round recomputes them rather than
    holding them (held through a 10k-entry placement, they raised the
    peak heap of a 10k-server run by a quarter); round 0 finds the
    longest list.  Returns the copies sent, or [None] when no server is
    up. *)
let place_round_major ?(budget = max_int) cluster entries ~owners =
  match Cluster.random_up_server cluster with
  | None -> None
  | Some s ->
    let net = Cluster.net cluster in
    ignore (Net.send net ~src:Net.Client ~dst:s (Msg.place entries));
    let spent = ref 0 and rounds = ref 1 and r = ref 0 in
    while !r < !rounds do
      List.iteri
        (fun i e ->
          if !spent < budget then begin
            let servers = owners i e in
            if !r = 0 then rounds := Int.max !rounds (List.length servers);
            match List.nth_opt servers !r with
            | Some dst ->
              ignore (Net.send net ~src:(Net.Server s) ~dst (Msg.store e));
              incr spent
            | None -> ()
          end)
        entries;
      incr r
    done;
    Some !spent

(** The placement check of an owner-naming strategy, for tests:
    [assigned] lists each live entry with the servers that must hold
    it, and every server must store exactly the entries assigned to it.
    Reports the first server, in index order, that stores an entry not
    assigned to it or misses one that is. *)
let check_placement cluster assigned =
  let n = Cluster.n cluster in
  let expected = Array.init n (fun _ -> Hashtbl.create 16) in
  List.iter
    (fun (e, servers) ->
      List.iter (fun s -> Hashtbl.replace expected.(s) (Entry.id e) ()) servers)
    assigned;
  let ok = ref (Ok ()) in
  let fail fmt = Format.kasprintf (fun s -> if !ok = Ok () then ok := Error s) fmt in
  for s = 0 to n - 1 do
    let store = Cluster.store cluster s in
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
