open Plookup_store
module Net = Plookup_net.Net

(* One replica of the coordinator state: the head/tail counters of
   Section 5.4 over the round-robin sequence, whose live positions
   [head, tail) are always occupied.  Position [p] lives in
   [window.(p land (length - 1))]; the window's length is a power of two
   at least [tail - head] and doubles when an add finds it full.  Slots
   outside the live positions hold stale entries that are never read. *)
type ledger = {
  mutable head : int;
  mutable tail : int;
  mutable window : Entry.t array;
  position_of_id : (int, int) Hashtbl.t;
}

type t = {
  cluster : Cluster.t;
  y : int;
  coordinators : int; (* replicas live on servers 0 .. coordinators-1 *)
  ledgers : ledger array;
  mutable truncated : bool; (* placed under a budget; updates disabled *)
}

let dummy = Entry.v 0

(* The shortest window, at least 8 slots, holding [live] positions. *)
let window_length live =
  let rec from len = if len >= live then len else from (2 * len) in
  from 8

let fresh_ledger () =
  { head = 0; tail = 0; window = Array.make (window_length 0) dummy;
    position_of_id = Hashtbl.create 64 }

let slot ledger pos = ledger.window.(pos land (Array.length ledger.window - 1))
let set_slot ledger pos e = ledger.window.(pos land (Array.length ledger.window - 1)) <- e

let copy_ledger ~src ~dst =
  dst.head <- src.head;
  dst.tail <- src.tail;
  dst.window <- Array.copy src.window;
  Hashtbl.reset dst.position_of_id;
  Hashtbl.iter (Hashtbl.replace dst.position_of_id) src.position_of_id

let ledgers_equal a b =
  let rec from pos = pos >= a.tail || (Entry.equal (slot a pos) (slot b pos) && from (pos + 1)) in
  a.head = b.head && a.tail = b.tail && from a.head

(* The id index holds exactly the live positions, each under the id of
   the entry in its slot. *)
let index_matches ledger =
  let rec from pos =
    pos >= ledger.tail
    || Hashtbl.find_opt ledger.position_of_id (Entry.id (slot ledger pos)) = Some pos
       && from (pos + 1)
  in
  Hashtbl.length ledger.position_of_id = ledger.tail - ledger.head && from ledger.head

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

let send t ~src ~dst msg =
  ignore (Net.send (Cluster.net t.cluster) ~src:(Net.Server src) ~dst msg)

(* Pure ledger mutations.  The acting coordinator derives the message
   plan from the returned description; standby replicas apply the same
   mutation on receipt of a Sync message (identical ledgers derive
   identical results, which keeps the replicas consistent without
   shipping the plan itself). *)

(* [ledger]'s live positions in a window twice as long. *)
let grow ledger =
  let old = ledger.window in
  ledger.window <- Array.make (2 * Array.length old) dummy;
  for pos = ledger.head to ledger.tail - 1 do
    set_slot ledger pos old.(pos land (Array.length old - 1))
  done

let apply_add ledger e =
  if Hashtbl.mem ledger.position_of_id (Entry.id e) then None
  else begin
    let pos = ledger.tail in
    if pos - ledger.head = Array.length ledger.window then grow ledger;
    set_slot ledger pos e;
    Hashtbl.replace ledger.position_of_id (Entry.id e) pos;
    ledger.tail <- pos + 1;
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
    Hashtbl.remove ledger.position_of_id (Entry.id e);
    let old = ledger.head in
    let migration =
      if pos = old then None
      else begin
        let u = slot ledger old in
        set_slot ledger pos u;
        Hashtbl.replace ledger.position_of_id (Entry.id u) pos;
        Some (u, old)
      end
    in
    ledger.head <- old + 1;
    Some { vacated = pos; migration }

(* Mirror an update to the standby replicas (footnote 1's replication:
   one point-to-point message per other operational coordinator). *)
let sync_standbys t ~self msg =
  for c = 0 to t.coordinators - 1 do
    if c <> self && Cluster.is_up t.cluster c then send t ~src:self ~dst:c msg
  done

let guard_updates t =
  if t.truncated then invalid_arg "Round_robin: updates after a truncated place"

(* Only coordinator replicas hold a ledger: a client sends its update to
   the acting coordinator, and any other server that receives one relays
   it there.  Without an acting coordinator the update is dropped (the
   lost write [can_update] warns about). *)
let to_coordinator t ~src msg =
  let c = acting t in
  if c >= 0 then ignore (Net.send (Cluster.net t.cluster) ~src ~dst:c msg)

(* Acting-coordinator logic, executing at server [self]. *)
let do_add t ~self e =
  guard_updates t;
  match apply_add t.ledgers.(self) e with
  | None -> ()
  | Some pos ->
    List.iter (fun dst -> send t ~src:self ~dst (Msg.store e)) (servers_of_position t pos);
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
      List.iter (fun dst -> send t ~src:self ~dst (Msg.remove u)) old_group;
      List.iter (fun dst -> send t ~src:self ~dst (Msg.store u)) new_group);
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
    else to_coordinator t ~src:(Net.Server dst) (Msg.add e);
    Msg.Ack
  | Msg.Delete e ->
    if dst < t.coordinators then do_delete t ~self:dst e
    else to_coordinator t ~src:(Net.Server dst) (Msg.delete e);
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
    (* A replica never copies from itself: [copy_ledger] empties the
       destination's index before reading the source's. *)
    (match src with
    | Net.Server c when c < t.coordinators && dst < t.coordinators && c <> dst ->
      copy_ledger ~src:t.ledgers.(c) ~dst:t.ledgers.(dst)
    | Net.Server _ | Net.Client -> ());
    Msg.Ack
  | (Msg.Store _ | Msg.Remove _ | Msg.Store_batch _ | Msg.Add_sampled _
    | Msg.Remove_counted _ | Msg.Fetch_candidate _) as other ->
    (* Store_batch included: this protocol never sends one (the repair
       layer, not the strategy, heals a recovered server's store), and
       one that arrives replaces the store, as everywhere. *)
    Strategy_common.default_strategy t.cluster dst other

let handle t dst src (msg : Msg.t) : Msg.reply =
  match msg with
  | Msg.Data d -> handle_data t dst src d
  | Msg.Strategy s -> handle_strategy t dst src s
  | Msg.Repair _ -> Msg.Ack

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
    | Some c -> send t ~src:c ~dst:server Msg.sync_state
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
  Net.set_handler (Cluster.net cluster) (fun dst src msg -> handle t dst src msg);
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

let entry_at t pos =
  let ledger = acting_ledger t in
  if pos >= ledger.head && pos < ledger.tail then Some (slot ledger pos) else None

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

(* Copies go out round-major through the shared driver (a budget cut
   keeps coverage maximal, as Fig. 6 assumes); every replica's ledger
   then holds entry [i] at position [i]. *)
let place ?budget t entries =
  let entries = Entry.dedup entries in
  let owners i _ = servers_of_position t i in
  match Strategy_common.place_round_major ?budget t.cluster entries ~owners with
  | None -> ()
  | Some spent ->
    let h = List.length entries in
    Array.iter
      (fun ledger ->
        Hashtbl.reset ledger.position_of_id;
        ledger.window <- Array.make (window_length h) dummy;
        List.iteri
          (fun i e ->
            set_slot ledger i e;
            Hashtbl.replace ledger.position_of_id (Entry.id e) i)
          entries;
        ledger.head <- 0;
        ledger.tail <- h)
      t.ledgers;
    t.truncated <- spent < t.y * h

let add t e = to_coordinator t ~src:Net.Client (Msg.add e)
let delete t e = to_coordinator t ~src:Net.Client (Msg.delete e)

let check_invariants t =
  if t.truncated then Ok () (* the ledger does not describe a truncated placement *)
  else begin
    let ledger = acting_ledger t in
    let assigned =
      List.init (ledger.tail - ledger.head) (fun k ->
          let pos = ledger.head + k in
          (slot ledger pos, servers_of_position t pos))
    in
    match Strategy_common.check_placement t.cluster assigned with
    | Error _ as e -> e
    | Ok () ->
      (* All operational replicas must agree with the acting one, and
         each one's id index with its window. *)
      let rec agree c =
        if c >= t.coordinators then Ok ()
        else if not (Cluster.is_up t.cluster c) then agree (c + 1)
        else if not (ledgers_equal ledger t.ledgers.(c)) then
          Error (Printf.sprintf "coordinator replica %d diverged" c)
        else if not (index_matches t.ledgers.(c)) then
          Error (Printf.sprintf "coordinator replica %d's id index disagrees with its window" c)
        else agree (c + 1)
      in
      agree 0
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
