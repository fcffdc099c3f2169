open Plookup_store
open Plookup_util
module Net = Plookup_net.Net
module Engine = Plookup_sim.Engine
module Metrics = Plookup_obs.Metrics
module Trace = Plookup_obs.Trace
module Span = Plookup_obs.Span

type mode = Off | Sync | Full

let mode_name = function Off -> "off" | Sync -> "sync" | Full -> "full"

let mode_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "off" | "none" -> Ok Off
  | "sync" -> Ok Sync
  | "full" | "all" -> Ok Full
  | other -> Error (Printf.sprintf "unknown repair mode %S (expected off, sync or full)" other)

type config = { mode : mode; grace : float; period : float }

let default_config = { mode = Full; grace = 30.; period = 10. }

let disabled = { default_config with mode = Off }

type plan = Strategy_intf.plan =
  | Mirror
  | Owner_function of (Entry.t -> int list)
  | Assigned of (Entry.t -> int list option)
  | Free of int

type stats = {
  syncs : int;
  entries_shipped : int;
  entries_retracted : int;
  re_replications : int;
  trims : int;
  restore_episodes : int;
  mean_restore_time : float option;
}

(* An entry id's standing in the repair catalog.  An add makes it
   [Live], a delete [Deleted] (its tombstone), a placement starts the
   catalog over. *)
type slot = Unknown | Live of Entry.t | Deleted

type t = {
  cluster : Cluster.t;
  config : config;
  plan : plan;
  (* The repair catalog, indexed by entry id: what the client-facing
     protocol said is alive or deleted.  Fed by observing
     Place/Add/Delete on the wire — the repair coordinator's replicated
     metadata, analogous to the Round-Robin ledger but content-only (no
     positions).  The id-indexed arrays below grow together and never
     shrink. *)
  mutable slots : slot array;
  mutable live_count : int;
  (* Under an assigned placement, substitute servers the daemon put
     copies on (beyond the entry's owners).  Deletes only reach owners,
     so the delete path purges these from the record. *)
  placed : (int, int list) Hashtbl.t;
  mutable capacity : int; (* 1 + highest entry id ever placed or added *)
  down_since : float option array;
  down_digest : Bitset.t option array; (* store snapshot at fail time *)
  (* When each live entry fell below its degree; nan while it is not. *)
  mutable deficient_since : float array;
  (* Each live entry's sorted owners under an assigned placement, the
     one table that every step of a repair event reads.  Under
     [Owner_function] an entry's row is filled at its first read and
     kept until its delete or the next [Place].  Under [Assigned] the
     owners move with the strategy's state, so every repair event and
     catalog change marks the whole table stale and the first read
     after refills it.  Repair itself sends only repair-plane messages
     and [Remove], which no strategy's assignment reads, so nothing
     inside one event moves an owner. *)
  mutable owners : int list option array;
  mutable owners_stale : bool;
  (* Copies per entry id on the up servers: the daemon tick and the
     status hook count into this one array, and [track] reads it. *)
  mutable copies : int array;
  mutable daemon_ticks : int;
  (* Repair bookkeeping lives on the cluster's metrics registry, next to
     the network counters it explains. *)
  st_syncs : Metrics.counter;
  st_shipped : Metrics.counter;
  st_retracted : Metrics.counter;
  st_re_replications : Metrics.counter;
  st_trims : Metrics.counter;
  st_restore_episodes : Metrics.counter;
  st_restore_total : Metrics.gauge;
}

let net t = Cluster.net t.cluster
let now t = Net.now (net t)
let daemon_ticks t = t.daemon_ticks
let repair_messages t = Net.repair_messages (net t)

let stats t =
  let episodes = Metrics.value t.st_restore_episodes in
  { syncs = Metrics.value t.st_syncs;
    entries_shipped = Metrics.value t.st_shipped;
    entries_retracted = Metrics.value t.st_retracted;
    re_replications = Metrics.value t.st_re_replications;
    trims = Metrics.value t.st_trims;
    restore_episodes = episodes;
    mean_restore_time =
      (if episodes = 0 then None
       else Some (Metrics.gauge_value t.st_restore_total /. float_of_int episodes)) }

(* Room for [id] in every id-indexed array.  A delete of an id never
   added grows them too, but not [capacity], which sizes digests. *)
let reserve t id =
  let len = Array.length t.slots in
  if id >= len then begin
    let len' = max (2 * len) (id + 1) in
    let grow a absent =
      let a' = Array.make len' absent in
      Array.blit a 0 a' 0 len;
      a'
    in
    t.slots <- grow t.slots Unknown;
    t.deficient_since <- grow t.deficient_since Float.nan;
    t.owners <- grow t.owners None;
    t.copies <- grow t.copies 0
  end

let slot t id = if id < Array.length t.slots then t.slots.(id) else Unknown
let deleted t id = match slot t id with Deleted -> true | Unknown | Live _ -> false

let set_live t e =
  let id = Entry.id e in
  reserve t id;
  if id >= t.capacity then t.capacity <- id + 1;
  (match t.slots.(id) with
  | Live _ -> ()
  | Unknown | Deleted -> t.live_count <- t.live_count + 1);
  t.slots.(id) <- Live e

(* Maintain the catalog from the client-level protocol traffic passing
   through the wrapped handler; [server] is the one handling the
   message. *)
let observe t ~server (msg : Msg.data) =
  match msg with
  | Msg.Place entries ->
    Array.fill t.slots 0 (Array.length t.slots) Unknown;
    Array.fill t.owners 0 (Array.length t.owners) None;
    t.live_count <- 0;
    Hashtbl.reset t.placed;
    List.iter (set_live t) entries;
    t.owners_stale <- true
  | Msg.Add e ->
    set_live t e;
    t.owners_stale <- true
  | Msg.Delete e ->
    let id = Entry.id e in
    reserve t id;
    (match t.slots.(id) with
    | Live _ -> t.live_count <- t.live_count - 1
    | Unknown | Deleted -> ());
    t.slots.(id) <- Deleted;
    t.owners.(id) <- None;
    t.owners_stale <- true;
    (* The strategy's delete only reaches the entry's owners; purge the
       substitute copies the daemon placed elsewhere. *)
    (match Hashtbl.find_opt t.placed id with
    | None -> ()
    | Some subs ->
      Hashtbl.remove t.placed id;
      Net.tally_as_repair (net t) (fun () ->
          List.iter
            (fun s ->
              if Cluster.is_up t.cluster s then begin
                ignore (Net.send (net t) ~src:(Net.Server server) ~dst:s (Msg.remove e));
                Metrics.incr t.st_trims
              end)
            (List.sort compare subs)))
  | Msg.Lookup _ -> ()

let has bits id = id < Bitset.capacity bits && Bitset.mem bits id

(* Stores are walked slot by slot, with no closure per copy. *)
let store_digest t server =
  let bits = Bitset.create (max 1 t.capacity) in
  let store = Cluster.store t.cluster server in
  for j = 0 to Server_store.cardinal store - 1 do
    let id = Entry.id (Server_store.nth store j) in
    if id < t.capacity then Bitset.add bits id
  done;
  bits

(* Add server [i]'s copies to [t.copies]. *)
let count_store t i =
  let store = Cluster.store t.cluster i and copies = t.copies in
  for j = 0 to Server_store.cardinal store - 1 do
    let id = Entry.id (Server_store.nth store j) in
    if id < t.capacity then copies.(id) <- copies.(id) + 1
  done

let rec increasing = function
  | (a : int) :: (b :: _ as rest) -> a < b && increasing rest
  | [ _ ] | [] -> true

(* An entry's owners as a sorted set.  No [Assigned] plan names a server
   twice.  A list that is already increasing is kept as it is, and a
   pair is swapped without the closures [List.sort_uniq] allocates. *)
let sorted_owners = function
  | Some os as known when increasing os -> known
  | Some [ a; b ] when a > b -> Some [ b; a ]
  | Some os -> Some (List.sort_uniq Int.compare os)
  | None -> None

(* The live entry [id]'s sorted owners under an assigned placement;
   [None] under the other plans, or where the plan cannot name them. *)
let owners_of t id =
  match t.plan with
  | Owner_function owners -> (
    match (t.owners.(id), t.slots.(id)) with
    | (Some _ as known), _ -> known
    | None, Live e ->
      let os = sorted_owners (Some (owners e)) in
      t.owners.(id) <- os;
      os
    | None, (Unknown | Deleted) -> None)
  | Assigned assignment ->
    if t.owners_stale then begin
      for i = 0 to t.capacity - 1 do
        t.owners.(i) <-
          (match t.slots.(i) with
          | Live e -> sorted_owners (assignment e)
          | Unknown | Deleted -> None)
      done;
      t.owners_stale <- false
    end;
    t.owners.(id)
  | Mirror | Free _ -> None

(* The replication degree a live entry with [owners] (its [owners_of])
   should have right now. *)
let target_degree t owners =
  match t.plan with
  | Mirror -> Cluster.up_count t.cluster
  | Owner_function _ | Assigned _ -> (match owners with Some os -> List.length os | None -> 0)
  | Free x ->
    let n = Cluster.n t.cluster in
    let live = max 1 t.live_count in
    max 1 (min n (n * x / live))

(* Omniscient measurement of degree deficiency (reads stores directly;
   sends nothing) — powers the time-to-restore-degree metric.  Rather
   than probing every up store for every live entry (O(live * up) — the
   quadratic that dominated churn runs at scale), [t.copies] holds every
   id's copies on the up servers, and each live entry is judged by one
   array read. *)
let track t =
  let nowv = now t in
  for id = 0 to t.capacity - 1 do
    match t.slots.(id) with
    | Live _ ->
      let deg = target_degree t (owners_of t id) in
      let copies = t.copies.(id) in
      (* Under Mirror, zero live copies means the strategy never tracked
         the entry (e.g. Fixed-x beyond capacity) or every server is
         down — neither is a repairable deficiency. *)
      let deficient =
        copies < deg
        && match t.plan with Mirror -> copies > 0 | Owner_function _ | Assigned _ | Free _ -> true
      in
      let since = t.deficient_since.(id) in
      if deficient then begin
        if Float.is_nan since then t.deficient_since.(id) <- nowv
      end
      else if not (Float.is_nan since) then begin
        Metrics.incr t.st_restore_episodes;
        Metrics.add_gauge t.st_restore_total (nowv -. since);
        t.deficient_since.(id) <- Float.nan
      end
    | Unknown | Deleted ->
      (* Entries deleted while deficient: the deficiency is moot. *)
      t.deficient_since.(id) <- Float.nan
  done

let refresh_tracking t =
  Array.fill t.copies 0 t.capacity 0;
  for i = 0 to Cluster.n t.cluster - 1 do
    if Cluster.is_up t.cluster i then count_store t i
  done;
  track t

(* {2 Recovery sync} *)

exception Unknown_assignment

(* The catalog's tombstoned ids among a digest's, in increasing order. *)
let deleted_in t bits = List.filter (deleted t) (Bitset.to_list bits)

(* What the requester is missing and what it must retract, computed at
   the peer from its digest.  [None] when the plan cannot describe the
   placement (truncated Round-Robin). *)
let compute_fix t ~peer ~requester bits =
  match t.plan with
  | Mirror ->
    let reference = Cluster.store t.cluster peer in
    let missing =
      Server_store.fold
        (fun e acc -> if has bits (Entry.id e) then acc else e :: acc)
        reference []
      |> List.sort (fun a b -> compare (Entry.id a) (Entry.id b))
    in
    Some (missing, deleted_in t bits)
  | Owner_function _ | Assigned _ ->
    let owned id =
      match owners_of t id with
      | None -> raise Unknown_assignment
      | Some os -> List.mem requester os
    in
    (try
       let missing = ref [] in
       for id = t.capacity - 1 downto 0 do
         match t.slots.(id) with
         | Live e when (not (has bits id)) && owned id -> missing := e :: !missing
         | Live _ | Unknown | Deleted -> ()
       done;
       let retract =
         List.filter
           (fun id ->
             match slot t id with
             | Unknown | Deleted -> true (* deleted (or never known): drop it *)
             | Live _ -> not (owned id))
           (Bitset.to_list bits)
       in
       Some (!missing, retract)
     with Unknown_assignment -> None)
  | Free _ ->
    (* Contents are a random subset by design; the sync only purges
       deleted entries, the daemon restores the degree. *)
    Some ([], deleted_in t bits)

let on_digest_request t ~peer ~src bits =
  match (src : Net.sender) with
  | Net.Client -> ()
  | Net.Server requester ->
    (match compute_fix t ~peer ~requester bits with
    | None | Some ([], []) -> ()
    | Some (missing, retract) ->
      ignore
        (Net.send (net t) ~src:(Net.Server peer) ~dst:requester
           (Msg.sync_fix missing retract)))

let apply_fix t ~server missing retract =
  let store = Cluster.store t.cluster server in
  List.iter
    (fun e -> if Server_store.add store e then Metrics.incr t.st_shipped)
    missing;
  List.iter
    (fun id ->
      if Server_store.remove store (Entry.v id) then Metrics.incr t.st_retracted)
    retract

let do_sync t server =
  match Cluster.next_up_from t.cluster server with
  | None ->
    (* No live peer to reconcile against — but deletions the server
       missed are recorded in the repair ledger, so it can at least
       scrub those.  The fix is self-addressed through [Net] so the
       scrub is charged to the repair message budget like any other. *)
    let retract = deleted_in t (store_digest t server) in
    if retract <> [] then begin
      Metrics.incr t.st_syncs;
      Net.tally_as_repair (net t) (fun () ->
          ignore
            (Net.send (net t) ~src:(Net.Server server) ~dst:server
               (Msg.sync_fix [] retract)))
    end
  | Some peer ->
    Metrics.incr t.st_syncs;
    Net.tally_as_repair (net t) (fun () ->
        ignore
          (Net.send (net t) ~src:(Net.Server server) ~dst:peer
             (Msg.digest_request (store_digest t server))))

(* {2 Repair daemon} *)

let lowest_up t =
  if Cluster.up_count t.cluster = 0 then None else Some (Net.kth_up (net t) 0)

let holds dig i id = match dig.(i) with Some b -> has b id | None -> false

let rec count_holding id = function
  | [] -> 0
  | b :: rest -> Bool.to_int (has b id) + count_holding id rest

let rec all_hold dig id = function
  | [] -> true
  | o :: rest -> holds dig o id && all_hold dig id rest

let daemon_tick t =
  match lowest_up t with
  | None -> ()
  | Some c when t.live_count > 0 ->
    t.owners_stale <- true;
    let n = Cluster.n t.cluster in
    let nowv = now t in
    Net.tally_as_repair (net t) (fun () ->
        (* One digest broadcast (cost n), then targeted point-to-point
           repairs. *)
        let dig = Array.make n None in
        Net.broadcast (net t) ~src:(Net.Server c) Msg.digest_pull ~on_reply:(fun i reply ->
            match (reply : Msg.reply) with Msg.Digest b -> dig.(i) <- Some b | _ -> ());
        (* Invert the per-entry scans: one pass over the stores of the
           servers that answered the broadcast yields every id's live
           copy count, tombstoned ids' included (a digest is a same-tick
           snapshot of its store, so walking the store's slots is
           walking the digest's set bits, and cheaper than testing
           them).  Per-entry work below then touches the ring only for
           entries that actually need filling or trimming, and only for
           as many steps as there are copies to send.  Each repair send
           that lands moves the count with it, so at the end of the
           tick it still holds what the answering stores hold. *)
        let up_copies = t.copies in
        Array.fill up_copies 0 t.capacity 0;
        for i = 0 to n - 1 do
          if dig.(i) <> None then count_store t i
        done;
        (* A server down for less than the grace period still counts as
           a copy (its store survives the outage): transient blips must
           not trigger re-replication.  Such servers are few at any
           instant; per-entry grace copies are counted against their
           fail-time digests rather than a length-n sweep. *)
        let grace_digests =
          let acc = ref [] in
          for s = n - 1 downto 0 do
            if dig.(s) = None then
              match (t.down_since.(s), t.down_digest.(s)) with
              | Some since, Some b when nowv -. since <= t.config.grace -> acc := b :: !acc
              | _ -> ()
          done;
          !acc
        in
        (* Live entries in id order, the order the repairs are sent in. *)
        for id = 0 to t.capacity - 1 do
          match t.slots.(id) with
          | Unknown | Deleted -> ()
          | Live e ->
            let live_copies = up_copies.(id) in
            let copies = live_copies + count_holding id grace_digests in
            let owners = owners_of t id in
            let deg = target_degree t owners in
            (if copies < deg then begin
              (* Under Mirror an entry with no live copy has no source
                 (the strategy never tracked it, or nothing survives). *)
              if not (live_copies = 0 && match t.plan with Mirror -> true | _ -> false) then begin
                let deficit = deg - copies in
                let sent = ref 0 in
                let send_to dst =
                  ignore (Net.send (net t) ~src:(Net.Server c) ~dst (Msg.repair_store e));
                  if Server_store.mem (Cluster.store t.cluster dst) e then
                    up_copies.(id) <- up_copies.(id) + 1;
                  Metrics.incr t.st_re_replications;
                  incr sent;
                  match owners with
                  | Some os when not (List.mem dst os) ->
                    let prev = Option.value (Hashtbl.find_opt t.placed id) ~default:[] in
                    if not (List.mem dst prev) then
                      Hashtbl.replace t.placed id (dst :: prev)
                  | Some _ | None -> ()
                in
                (* Owners missing their copy come first (in owner
                   order), then the ring walk from the entry's home
                   fills the remainder with substitutes, stopping the
                   moment the deficit is met — the same destinations, in
                   the same order, as taking [deficit] from the old
                   [preferred @ fill] lists. *)
                let os = Option.value owners ~default:[] in
                List.iter
                  (fun o ->
                    if !sent < deficit && dig.(o) <> None && not (holds dig o id) then
                      send_to o)
                  os;
                let start = id mod n in
                let k = ref 0 in
                while !sent < deficit && !k < n do
                  let i = (start + !k) mod n in
                  if dig.(i) <> None && (not (holds dig i id)) && not (List.mem i os) then
                    send_to i;
                  incr k
                done
              end
            end
            else begin
              (* Over-degree under an assigned placement: once every
                 owner is up and holding, trim the stray substitutes.
                 [live_copies] counts owners and strays alike, so the
                 ring is walked only when strays actually exist, and
                 only until they are all found. *)
              match owners with
              | Some os when live_copies > deg && deg > 0 && all_hold dig id os ->
                let strays = live_copies - deg in
                let start = id mod n in
                let trimmed = ref [] in
                let k = ref 0 in
                while List.length !trimmed < strays && !k < n do
                  let i = (start + !k) mod n in
                  if holds dig i id && not (List.mem i os) then begin
                    ignore (Net.send (net t) ~src:(Net.Server c) ~dst:i (Msg.remove e));
                    if not (Server_store.mem (Cluster.store t.cluster i) e) then
                      up_copies.(id) <- up_copies.(id) - 1;
                    Metrics.incr t.st_trims;
                    trimmed := i :: !trimmed
                  end;
                  incr k
                done;
                (match
                   List.filter
                     (fun s -> not (List.mem s !trimmed))
                     (Option.value (Hashtbl.find_opt t.placed id) ~default:[])
                 with
                | [] -> Hashtbl.remove t.placed id
                | rest -> Hashtbl.replace t.placed id rest)
              | _ -> ()
            end)
        done;
        (* Tombstone scrub: a recovery sync that found no live peer can
           leave a deleted entry on an up server indefinitely; the
           daemon retracts any tombstoned id still present in a digest.
           The counting pass above found which ones are: only their
           digests are searched for holders. *)
        for id = 0 to t.capacity - 1 do
          if up_copies.(id) > 0 && deleted t id then
            for i = 0 to n - 1 do
              if holds dig i id then begin
                ignore
                  (Net.send (net t) ~src:(Net.Server c) ~dst:i (Msg.remove (Entry.v id)));
                Metrics.incr t.st_retracted
              end
            done
        done;
        (* The tracking judges the copies on every up store.  The count
           already holds the answering stores' copies after the repairs
           (a lost or duplicated send moved it by what it did, as the
           membership tests above saw; the scrub touches only
           tombstones); an up store whose digest pull was lost or whose
           link was blocked is counted now. *)
        for i = 0 to n - 1 do
          if dig.(i) = None && Cluster.is_up t.cluster i then count_store t i
        done;
        track t)
  | Some _ -> ()

let run_daemon_once t =
  t.daemon_ticks <- t.daemon_ticks + 1;
  let tr = (Cluster.obs t.cluster).Plookup_obs.Obs.trace in
  if Trace.enabled tr then begin
    let before_rr = Metrics.value t.st_re_replications in
    let before_trims = Metrics.value t.st_trims in
    daemon_tick t;
    match lowest_up t with
    | None -> ()
    | Some c ->
      Trace.emit_repair_round tr ~time:(now t) ~coordinator:c ~tick:t.daemon_ticks
        ~re_replications:(Metrics.value t.st_re_replications - before_rr)
        ~trims:(Metrics.value t.st_trims - before_trims)
  end
  else daemon_tick t

(* {2 Wiring} *)

let on_status t server ~up =
  t.owners_stale <- true;
  if up then begin
    t.down_since.(server) <- None;
    do_sync t server;
    t.down_digest.(server) <- None;
    refresh_tracking t
  end
  else begin
    t.down_since.(server) <- Some (now t);
    t.down_digest.(server) <- Some (store_digest t server);
    refresh_tracking t
  end

(* The repair plane terminates here: strategies never see it. *)
let handle_repair t dst src (msg : Msg.repair) : Msg.reply =
  match msg with
  | Msg.Digest_request bits ->
    on_digest_request t ~peer:dst ~src bits;
    Msg.Ack
  | Msg.Sync_fix (missing, retract) ->
    apply_fix t ~server:dst missing retract;
    Msg.Ack
  | Msg.Digest_pull -> Msg.Digest (store_digest t dst)
  | Msg.Repair_store e ->
    ignore (Server_store.add (Cluster.store t.cluster dst) e);
    Msg.Ack

let handle t inner dst src (msg : Msg.t) : Msg.reply =
  match msg with
  | Msg.Repair r -> handle_repair t dst src r
  | Msg.Data d ->
    observe t ~server:dst d;
    inner dst src msg
  | Msg.Strategy _ -> inner dst src msg

let install cluster ~config ~plan =
  (match config.mode with
  | Off -> invalid_arg "Repair.install: mode is off"
  | Sync | Full -> ());
  if config.grace < 0. then invalid_arg "Repair.install: grace must be non-negative";
  if config.period <= 0. then invalid_arg "Repair.install: period must be positive";
  (* The catalog starts empty, so a sync under an owner plan would
     retract every entry placed before it was watching. *)
  if Cluster.total_stored cluster > 0 then
    invalid_arg "Repair.install: the cluster already holds entries";
  let n = Cluster.n cluster in
  let m = (Cluster.obs cluster).Plookup_obs.Obs.metrics in
  let t =
    { cluster;
      config;
      plan;
      slots = Array.make 64 Unknown;
      live_count = 0;
      placed = Hashtbl.create 64;
      capacity = 0;
      down_since = Array.make n None;
      down_digest = Array.make n None;
      deficient_since = Array.make 64 Float.nan;
      owners = Array.make 64 None;
      owners_stale = true;
      copies = Array.make 64 0;
      daemon_ticks = 0;
      st_syncs = Metrics.counter m "repair.syncs";
      st_shipped = Metrics.counter m "repair.entries_shipped";
      st_retracted = Metrics.counter m "repair.entries_retracted";
      st_re_replications = Metrics.counter m "repair.re_replications";
      st_trims = Metrics.counter m "repair.trims";
      st_restore_episodes = Metrics.counter m "repair.restore.episodes";
      st_restore_total = Metrics.gauge m "repair.restore.total_time" }
  in
  let net = Cluster.net cluster in
  Net.wrap_handler net (fun inner dst src msg -> handle t inner dst src msg);
  Net.add_status_listener net (fun server ~up -> on_status t server ~up);
  t

let attach_engine ?until t engine =
  Net.attach_engine (net t) engine;
  if t.config.mode = Full then begin
    let within time = match until with None -> true | Some u -> time <= u in
    let rec tick _ =
      run_daemon_once t;
      if within (Engine.now engine +. t.config.period) then
        ignore (Engine.schedule_after engine ~delay:t.config.period tick)
    in
    if within (Engine.now engine +. t.config.period) then
      ignore (Engine.schedule_after engine ~delay:t.config.period tick)
  end
