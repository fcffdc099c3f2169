open Plookup_store
module Net = Plookup_net.Net

(* One replica of the coordinator state: the head/tail counters of
   Section 5.4 plus the position<->entry maps they index. *)
type ledger = {
  mutable head : int;
  mutable tail : int;
  by_position : (int, Entry.t) Hashtbl.t;
  position_of_id : (int, int) Hashtbl.t;
}

type t = {
  cluster : Cluster.t;
  y : int;
  coordinators : int; (* replicas live on servers 0 .. coordinators-1 *)
  ledgers : ledger array;
  mutable truncated : bool; (* placed under a budget; updates disabled *)
}

let fresh_ledger () =
  { head = 0; tail = 0; by_position = Hashtbl.create 64; position_of_id = Hashtbl.create 64 }

let copy_ledger ~src ~dst =
  dst.head <- src.head;
  dst.tail <- src.tail;
  Hashtbl.reset dst.by_position;
  Hashtbl.reset dst.position_of_id;
  Hashtbl.iter (Hashtbl.replace dst.by_position) src.by_position;
  Hashtbl.iter (Hashtbl.replace dst.position_of_id) src.position_of_id

let ledgers_equal a b =
  a.head = b.head && a.tail = b.tail
  && Hashtbl.length a.by_position = Hashtbl.length b.by_position
  && Hashtbl.fold
       (fun pos e acc ->
         acc
         && match Hashtbl.find_opt b.by_position pos with
            | Some e' -> Entry.equal e e'
            | None -> false)
       a.by_position true

(* The owner queries below run once per live entry per repair event and
   on every update, so they are top-level and allocate no closure or
   option: only the owner list itself. *)

let rec first_up t i =
  if i >= t.coordinators then -1 else if Cluster.is_up t.cluster i then i else first_up t (i + 1)

(* The acting coordinator: lowest-indexed operational replica, or -1
   when none is up. *)
let acting t = first_up t 0

let acting_ledger t =
  let c = acting t in
  t.ledgers.(if c < 0 then 0 else c)

(* Servers [pos + r] mod n for r < y, in increasing r. *)
let rec group_from n pos r acc =
  if r < 0 then acc else group_from n pos (r - 1) (((((pos + r) mod n) + n) mod n) :: acc)

let servers_of_position t pos = group_from (Cluster.n t.cluster) pos (t.y - 1) []

let send_store t ~src ~dst e =
  ignore (Net.send (Cluster.net t.cluster) ~src:(Net.Server src) ~dst (Msg.store e))

let send_remove t ~src ~dst e =
  ignore (Net.send (Cluster.net t.cluster) ~src:(Net.Server src) ~dst (Msg.remove e))

let ledger_insert ledger pos e =
  Hashtbl.replace ledger.by_position pos e;
  Hashtbl.replace ledger.position_of_id (Entry.id e) pos

let ledger_remove ledger pos =
  match Hashtbl.find_opt ledger.by_position pos with
  | None -> ()
  | Some e ->
    Hashtbl.remove ledger.by_position pos;
    Hashtbl.remove ledger.position_of_id (Entry.id e)

(* Pure ledger mutations.  The acting coordinator derives the message
   plan from the returned description; standby replicas apply the same
   mutation on receipt of a Sync message (identical ledgers derive
   identical results, which keeps the replicas consistent without
   shipping the plan itself). *)

let apply_add ledger e =
  if Hashtbl.mem ledger.position_of_id (Entry.id e) then None
  else begin
    let pos = ledger.tail in
    ledger_insert ledger pos e;
    ledger.tail <- ledger.tail + 1;
    Some pos
  end

type delete_plan = {
  vacated : int;
  migration : (Entry.t * int) option; (* head entry and its old position *)
}

let apply_delete ledger e =
  match Hashtbl.find_opt ledger.position_of_id (Entry.id e) with
  | None -> None
  | Some pos ->
    ledger_remove ledger pos;
    let migration =
      if pos = ledger.head then None
      else begin
        match Hashtbl.find_opt ledger.by_position ledger.head with
        | None -> assert false (* positions in [head, tail) are always occupied *)
        | Some u ->
          let old = ledger.head in
          ledger_remove ledger old;
          ledger_insert ledger pos u;
          Some (u, old)
      end
    in
    ledger.head <- ledger.head + 1;
    Some { vacated = pos; migration }

(* Mirror an update to the standby replicas (footnote 1's replication:
   one point-to-point message per other operational coordinator). *)
let sync_standbys t ~self msg =
  for c = 0 to t.coordinators - 1 do
    if c <> self && Cluster.is_up t.cluster c then
      ignore (Net.send (Cluster.net t.cluster) ~src:(Net.Server self) ~dst:c msg)
  done

let guard_updates t =
  if t.truncated then invalid_arg "Round_robin: updates after a truncated place"

(* Only coordinator replicas hold a ledger; an update delivered to any
   other server is relayed to the acting coordinator (dropped when none
   is up — the lost write [can_update] warns about). *)
let forward_to_coordinator t ~src msg =
  let c = acting t in
  if c >= 0 then ignore (Net.send (Cluster.net t.cluster) ~src:(Net.Server src) ~dst:c msg)

(* Acting-coordinator logic, executing at server [self]. *)
let do_add t ~self e =
  guard_updates t;
  match apply_add t.ledgers.(self) e with
  | None -> ()
  | Some pos ->
    List.iter (fun dst -> send_store t ~src:self ~dst e) (servers_of_position t pos);
    sync_standbys t ~self (Msg.sync_add e)

let do_delete t ~self e =
  guard_updates t;
  match apply_delete t.ledgers.(self) e with
  | None -> ()
  | Some plan ->
    Net.broadcast (Cluster.net t.cluster) ~src:(Net.Server self) (Msg.remove e);
    (match plan.migration with
    | None -> ()
    | Some (u, old_pos) ->
      (* Move u's y copies from the old head group to the vacated group;
         remove first so a server in both groups ends up keeping u. *)
      let old_group = servers_of_position t old_pos in
      let new_group = servers_of_position t plan.vacated in
      let tr = (Cluster.obs t.cluster).Plookup_obs.Obs.trace in
      if Plookup_obs.Trace.enabled tr then
        Plookup_obs.Trace.emit_migration tr ~time:(Net.now (Cluster.net t.cluster))
          ~entry:(Entry.id u) ~src:(List.hd old_group) ~dst:(List.hd new_group);
      List.iter (fun dst -> send_remove t ~src:self ~dst u) old_group;
      List.iter (fun dst -> send_store t ~src:self ~dst u) new_group);
    sync_standbys t ~self (Msg.sync_delete e)

let handle_data t dst _src (msg : Msg.data) : Msg.reply =
  match msg with
  | Msg.Place _ ->
    (* Placement is driven from the client-facing [place] below so the
       round-major budget cut is expressible; the request itself only
       reaches one server. *)
    Msg.Ack
  | Msg.Add e ->
    if dst < t.coordinators then do_add t ~self:dst e
    else forward_to_coordinator t ~src:dst (Msg.add e);
    Msg.Ack
  | Msg.Delete e ->
    if dst < t.coordinators then do_delete t ~self:dst e
    else forward_to_coordinator t ~src:dst (Msg.delete e);
    Msg.Ack
  | Msg.Lookup target -> Strategy_common.lookup_reply t.cluster dst target

let handle_strategy t dst src (msg : Msg.strategy) : Msg.reply =
  match msg with
  (* Sync traffic mirrors the ledger between coordinator replicas; a
     non-coordinator has no ledger, so it just acknowledges. *)
  | Msg.Sync_add e ->
    if dst < t.coordinators then ignore (apply_add t.ledgers.(dst) e);
    Msg.Ack
  | Msg.Sync_delete e ->
    if dst < t.coordinators then ignore (apply_delete t.ledgers.(dst) e);
    Msg.Ack
  | Msg.Sync_state ->
    (match src with
    | Net.Server c when c < t.coordinators && dst < t.coordinators ->
      copy_ledger ~src:t.ledgers.(c) ~dst:t.ledgers.(dst)
    | Net.Server _ | Net.Client -> ());
    Msg.Ack
  | (Msg.Store _ | Msg.Remove _ | Msg.Store_batch _ | Msg.Add_sampled _
    | Msg.Remove_counted _ | Msg.Fetch_candidate _) as other ->
    (* Store_batch included: this protocol never sends one (the repair
       layer, not the strategy, heals a recovered server's store), and
       one that arrives replaces the store, as everywhere. *)
    Strategy_common.default_strategy t.cluster dst other

(* A recovering coordinator replica is stale: refresh its ledger from
   another operational replica, which stayed current while this one was
   down (the recovered server may itself be the lowest-indexed
   coordinator, so "acting" is not the right source).  Stores are not
   the strategy's to heal: the repair layer reconciles them. *)
let on_status t server ~up =
  if up && server < t.coordinators then begin
    let rec fresh_source i =
      if i >= t.coordinators then None
      else if i <> server && Cluster.is_up t.cluster i then Some i
      else fresh_source (i + 1)
    in
    match fresh_source 0 with
    | Some c ->
      ignore (Net.send (Cluster.net t.cluster) ~src:(Net.Server c) ~dst:server Msg.sync_state)
    | None -> ()
  end

let create ?(coordinators = 1) cluster ~y =
  if y < 1 then invalid_arg "Round_robin.create: y must be at least 1";
  if coordinators < 1 || coordinators > Cluster.n cluster then
    invalid_arg "Round_robin.create: coordinators must be in [1, n]";
  let y = min y (Cluster.n cluster) in
  let t =
    { cluster;
      y;
      coordinators;
      ledgers = Array.init coordinators (fun _ -> fresh_ledger ());
      truncated = false }
  in
  Strategy_common.install cluster ~data:(handle_data t) ~strategy:(handle_strategy t);
  Net.add_status_listener (Cluster.net cluster) (on_status t);
  t

let y t = t.y
let coordinators t = t.coordinators
let acting_coordinator t =
  let c = acting t in
  if c < 0 then None else Some c
let head t = (acting_ledger t).head
let tail t = (acting_ledger t).tail
let live_count t = tail t - head t

let position_of t e = Hashtbl.find_opt (acting_ledger t).position_of_id (Entry.id e)
let entry_at t pos = Hashtbl.find_opt (acting_ledger t).by_position pos

(* An update is accepted only while some coordinator replica is up and
   the placement was not truncated; otherwise it gets no reply. *)
let can_update t = (not t.truncated) && acting t >= 0

(* Where the acting ledger puts an entry's [y] copies, for the repair
   subsystem's placement plan: [None] when the placement was truncated
   (the ledger does not describe it), [Some []] for an entry outside
   the live window. *)
let assigned_servers t e =
  if t.truncated then None
  else
    match Hashtbl.find (acting_ledger t).position_of_id (Entry.id e) with
    | pos -> Some (servers_of_position t pos)
    | exception Not_found -> Some []

let place ?budget t entries =
  let entries = Entry.dedup entries in
  match Cluster.random_up_server t.cluster with
  | None -> ()
  | Some s ->
    ignore (Net.send (Cluster.net t.cluster) ~src:Net.Client ~dst:s (Msg.place entries));
    let n = Cluster.n t.cluster in
    let arr = Array.of_list entries in
    let h = Array.length arr in
    let budget = match budget with None -> t.y * h | Some b -> b in
    (* Round-major distribution: one full round of single copies before
       any second copies, so a budget cut keeps maximal coverage —
       matching the paper's Fig. 6 assumption. *)
    let spent = ref 0 in
    for r = 0 to t.y - 1 do
      for i = 0 to h - 1 do
        if !spent < budget then begin
          send_store t ~src:s ~dst:((i + r) mod n) arr.(i);
          incr spent
        end
      done
    done;
    Array.iter
      (fun ledger ->
        Hashtbl.reset ledger.by_position;
        Hashtbl.reset ledger.position_of_id;
        Array.iteri (fun i e -> ledger_insert ledger i e) arr;
        ledger.head <- 0;
        ledger.tail <- h)
      t.ledgers;
    t.truncated <- !spent < t.y * h

let send_to_coordinator t msg =
  let c = acting t in
  if c >= 0 then ignore (Net.send (Cluster.net t.cluster) ~src:Net.Client ~dst:c msg)

let add t e = send_to_coordinator t (Msg.add e)
let delete t e = send_to_coordinator t (Msg.delete e)

let check_invariants t =
  if t.truncated then Ok () (* the ledger does not describe a truncated placement *)
  else begin
    let ledger = acting_ledger t in
    let n = Cluster.n t.cluster in
    let expected = Array.init n (fun _ -> Hashtbl.create 16) in
    let ok = ref (Ok ()) in
    let fail fmt = Format.kasprintf (fun s -> if !ok = Ok () then ok := Error s) fmt in
    for pos = ledger.head to ledger.tail - 1 do
      match Hashtbl.find_opt ledger.by_position pos with
      | None -> fail "position %d in [head,tail) is unoccupied" pos
      | Some e ->
        List.iter
          (fun s -> Hashtbl.replace expected.(s) (Entry.id e) ())
          (servers_of_position t pos)
    done;
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
    (* All operational replicas must agree with the acting one. *)
    for c = 0 to t.coordinators - 1 do
      if Cluster.is_up t.cluster c && not (ledgers_equal ledger t.ledgers.(c)) then
        fail "coordinator replica %d diverged" c
    done;
    !ok
  end

let strategy_meta ~replicated =
  if replicated then
    { Strategy_intf.name = "RoundRobinHA";
      keys = [ "roundrobinha"; "round_robin_ha"; "roundha" ];
      arity = 2;
      param_doc = "Y = consecutive copies per entry, K = coordinator replicas";
      storage_doc = "h*y";
      ablation = true;
      rank = 45 }
  else
    { Strategy_intf.name = "RoundRobin";
      keys = [ "roundrobin"; "round_robin"; "round" ];
      arity = 1;
      param_doc = "Y = consecutive copies per entry";
      storage_doc = "h*y";
      ablation = false;
      rank = 40 }

module Make_strategy (M : sig
  val replicated : bool
end) =
struct
  type nonrec t = t

  let meta = strategy_meta ~replicated:M.replicated

  let split_params params =
    match (M.replicated, params) with
    | false, [ y ] when y > 0 -> (y, 1)
    | true, [ y; k ] when y > 0 && k > 0 -> (y, k)
    | _ ->
      invalid_arg
        (Printf.sprintf "%s: bad parameters (expected %s)" meta.Strategy_intf.name
           (if M.replicated then "[y; k]" else "[y]"))

  let analytic_storage ~n ~h ~params =
    let y, _ = split_params params in
    float_of_int (h * min y n)

  let params_for_budget ~n:_ ~h ~total ~params =
    let _, k = split_params params in
    let y = max 1 (total / h) in
    if M.replicated then [ y; k ] else [ y ]

  let create cluster ~params =
    let y, coordinators = split_params params in
    create ~coordinators cluster ~y

  let place t ?budget entries = place ?budget t entries
  let add = add
  let delete = delete
  let discipline t = Strategy_intf.Stride t.y
  let can_update = can_update
  let repair_plan t = Strategy_intf.Assigned (assigned_servers t)
end

module Strategy = Make_strategy (struct let replicated = false end)
module Strategy_replicated = Make_strategy (struct let replicated = true end)

let () =
  Strategy_registry.register (module Strategy);
  Strategy_registry.register (module Strategy_replicated)
