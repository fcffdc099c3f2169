(* Regression tests for the self-healing layer (Repair): the staleness
   bug — a recovered server serving entries deleted while it was down
   and missing entries added while it was down — is pinned as fixed for
   every strategy, plus a free outage, daemon degree restoration, repair
   message accounting and determinism. *)

open Plookup
open Plookup_store
module Engine = Plookup_sim.Engine
module Net = Plookup_net.Net
module Churn = Plookup_workload.Churn

let all_configs =
  [ Service.full_replication;
    Service.fixed 60;
    Service.random_server 20;
    Service.random_server_replacing 20;
    Service.round_robin 2;
    Service.round_robin_replicated 2 2;
    Service.hash 2;
    Service.v ~kind:"Chord" ~params:[ 2 ];
    Service.v ~kind:"DxHash" ~params:[ 2 ];
    Service.v ~kind:"MultiProbe" ~params:[ 2; 2 ] ]

(* "Every strategy" means every registered one: a newly registered
   strategy fails here until it joins [all_configs]. *)
let test_all_configs_cover_registry () =
  let registered =
    List.map
      (fun (module S : Strategy_intf.S) -> S.meta.Strategy_intf.name)
      (Strategy_registry.all ())
  in
  Alcotest.(check (list string)) "one config per registered strategy"
    (List.sort compare registered)
    (List.sort_uniq compare (List.map Service.kind all_configs))

let store_ids cluster i = List.sort compare (Server_store.ids (Cluster.store cluster i))

let snapshot cluster = List.init (Cluster.n cluster) (store_ids cluster)

(* One line of a repair run's stats and repair message count. *)
let stats_line config (s : Repair.stats) msgs =
  Printf.sprintf "%s syncs=%d shipped=%d retracted=%d rr=%d trims=%d episodes=%d mean=%s msgs=%d"
    (Service.config_name config) s.Repair.syncs s.Repair.entries_shipped s.Repair.entries_retracted
    s.Repair.re_replications s.Repair.trims s.Repair.restore_episodes
    (match s.Repair.mean_restore_time with None -> "-" | Some m -> Printf.sprintf "%g" m)
    msgs

(* The headline regression: fail a server, add and delete while it is
   down, recover it — lookups must never return a deleted entry, and
   the adds must be covered again. *)
let test_staleness_fixed () =
  List.iter
    (fun config ->
      let name = Service.config_name config in
      let service = Service.create ~seed:11 ~repair:Repair.default_config ~n:5 config in
      let gen = Entry.Gen.create () in
      let batch = Entry.Gen.batch gen 30 in
      Service.place service batch;
      let cluster = Service.cluster service in
      Cluster.fail cluster 1;
      let rec take k = function
        | e :: rest when k > 0 -> e :: take (k - 1) rest
        | _ -> []
      in
      let deleted = take 5 batch in
      Alcotest.(check bool)
        (name ^ " accepts updates with one server down")
        true (Service.can_update service);
      List.iter (Service.delete service) deleted;
      let added = List.init 5 (fun _ -> Entry.Gen.fresh gen) in
      List.iter (Service.add service) added;
      Cluster.recover cluster 1;
      let deleted_ids = List.map Entry.id deleted in
      for _ = 1 to 50 do
        let r = Service.partial_lookup service 20 in
        List.iter
          (fun e ->
            if List.mem (Entry.id e) deleted_ids then
              Alcotest.failf "%s returned deleted entry %d after recovery" name
                (Entry.id e))
          r.Lookup_result.entries
      done;
      (* The recovered server itself holds nothing deleted... *)
      List.iter
        (fun id ->
          if List.mem id (store_ids cluster 1) then
            Alcotest.failf "%s: server 1 still stores deleted entry %d" name id)
        deleted_ids;
      (* ...and the adds are covered by the cluster again. *)
      let coverage = Cluster.coverage cluster in
      List.iter
        (fun e ->
          if not (Entry.Set.mem e coverage) then
            Alcotest.failf "%s lost added entry %d" name (Entry.id e))
        added)
    all_configs

(* Sync-only mode is enough for the staleness fix (no daemon: the
   recovery digest sync alone retracts the deletes). *)
let test_sync_mode_retracts () =
  List.iter
    (fun config ->
      let name = Service.config_name config in
      let repair = { Repair.default_config with Repair.mode = Repair.Sync } in
      let service = Service.create ~seed:3 ~repair ~n:4 config in
      let gen = Entry.Gen.create () in
      Service.place service (Entry.Gen.batch gen 20);
      let cluster = Service.cluster service in
      Cluster.fail cluster 2;
      let victim = Entry.v 0 in
      Service.delete service victim;
      Cluster.recover cluster 2;
      if List.mem 0 (store_ids cluster 2) then
        Alcotest.failf "%s: sync mode left deleted entry on recovered server" name)
    all_configs

(* A fail -> recover round trip with no updates in between must leave
   every store exactly as it was (the sync ships and retracts nothing,
   RandomServer's random subsets included). *)
let test_no_update_round_trip_identical () =
  List.iter
    (fun config ->
      let name = Service.config_name config in
      let service = Service.create ~seed:21 ~repair:Repair.default_config ~n:5 config in
      let gen = Entry.Gen.create () in
      Service.place service (Entry.Gen.batch gen 25);
      let cluster = Service.cluster service in
      let before = snapshot cluster in
      Cluster.fail cluster 3;
      Cluster.recover cluster 3;
      Cluster.fail cluster 0;
      Cluster.recover cluster 0;
      let after = snapshot cluster in
      if before <> after then
        Alcotest.failf "%s: stores changed across a no-update fail/recover round trip"
          name)
    all_configs

(* With repair off nothing heals a recovered server, for every
   registered strategy: no strategy resyncs a store itself, so a store
   reads after recovery exactly as it did at failure. *)
let test_off_leaves_recovered_stores () =
  let n = 6 and h = 12 in
  List.iter
    (fun config ->
      let service = Service.create ~seed:5 ~n config in
      Service.place service (Helpers.entries h);
      let cluster = Service.cluster service in
      let down = [ 1; n - 1 ] in
      let at_failure = List.map (store_ids cluster) down in
      List.iter (Cluster.fail cluster) down;
      Service.add service (Entry.v 100);
      Service.delete service (Entry.v 0);
      Service.delete service (Entry.v 5);
      List.iter (Cluster.recover cluster) down;
      List.iter2
        (fun s ids ->
          if store_ids cluster s <> ids then
            Alcotest.failf "%s: repair off changed recovered server %d's store"
              (Service.config_name config) s)
        down at_failure)
    (Service.all_configs ~ablations:true ~budget:(2 * h) ~n ~h ())

(* Updates that miss a down server cost no repair traffic while it is
   down; the digest sync at recovery retracts what it missed. *)
let test_outage_is_free () =
  let service = Service.create ~seed:9 ~repair:Repair.default_config ~n:4 (Service.hash 2) in
  let gen = Entry.Gen.create () in
  let batch = Entry.Gen.batch gen 30 in
  Service.place service batch;
  let cluster = Service.cluster service in
  let rep = Option.get (Service.repair service) in
  Cluster.fail cluster 2;
  let deleted = List.filteri (fun i _ -> i mod 3 = 0) batch in
  List.iter (Service.delete service) deleted;
  Alcotest.(check int) "no repair messages while server 2 is down" 0
    (Repair.repair_messages rep);
  Cluster.recover cluster 2;
  Alcotest.(check bool) "the sync retracted deletes" true
    ((Repair.stats rep).Repair.entries_retracted > 0);
  List.iter
    (fun e ->
      if List.mem (Entry.id e) (store_ids cluster 2) then
        Alcotest.failf "recovered server 2 still holds deleted entry %d" (Entry.id e))
    deleted

(* After the grace period the daemon re-replicates entries whose owner
   is down; once the owner returns, the substitutes are trimmed again so
   storage returns to its pre-failure footprint. *)
let test_daemon_restores_degree () =
  let service = Service.create ~seed:13 ~repair:Repair.default_config ~n:5 (Service.hash 2) in
  let gen = Entry.Gen.create () in
  let batch = Entry.Gen.batch gen 40 in
  Service.place service batch;
  let cluster = Service.cluster service in
  let rep = Option.get (Service.repair service) in
  let storage_before = Plookup_metrics.Storage.measured cluster in
  let engine = Engine.create () in
  Repair.attach_engine ~until:200. rep engine;
  ignore (Engine.schedule_at engine ~time:1. (fun _ -> Cluster.fail cluster 3));
  (* grace is 30: by t=100 the daemon has re-replicated 3's entries
     onto substitutes, so the up servers alone cover everything (an
     entry whose two hashes collide has a rightful degree of 1, hence
     coverage rather than a blanket two-copy check). *)
  ignore
    (Engine.schedule_at engine ~time:100. (fun _ ->
         let coverage = Cluster.coverage cluster in
         List.iter
           (fun e ->
             if not (Entry.Set.mem e coverage) then
               Alcotest.failf "entry %d not covered by up servers after repair"
                 (Entry.id e))
           batch;
         let r = Service.partial_lookup service 40 in
         Alcotest.(check int) "full lookup succeeds with the owner down" 40
           (List.length r.Lookup_result.entries)));
  ignore (Engine.schedule_at engine ~time:101. (fun _ -> Cluster.recover cluster 3));
  ignore (Engine.run ~until:200. engine);
  let stats = Repair.stats rep in
  Alcotest.(check bool) "daemon re-replicated" true (stats.Repair.re_replications > 0);
  Alcotest.(check bool) "daemon ticked" true (Repair.daemon_ticks rep > 0);
  Alcotest.(check int) "substitutes trimmed back to the original footprint"
    storage_before
    (Plookup_metrics.Storage.measured cluster);
  Alcotest.(check bool) "restore episodes recorded" true
    (stats.Repair.restore_episodes > 0)

(* Repair traffic is tallied apart from the paper's lookup/update
   message cost, and plain lookups never count as repair. *)
let test_repair_message_accounting () =
  let service = Service.create ~seed:2 ~repair:Repair.default_config ~n:4 (Service.fixed 30) in
  let gen = Entry.Gen.create () in
  Service.place service (Entry.Gen.batch gen 20);
  let cluster = Service.cluster service in
  let net = Cluster.net cluster in
  let rep = Option.get (Service.repair service) in
  Cluster.fail cluster 1;
  Service.delete service (Entry.v 0);
  Cluster.recover cluster 1;
  let repair_msgs = Repair.repair_messages rep in
  Alcotest.(check bool) "recovery produced repair traffic" true (repair_msgs > 0);
  Alcotest.(check bool) "repair messages are a subset of all messages" true
    (repair_msgs <= Net.messages_received net);
  let before = Repair.repair_messages rep in
  ignore (Service.partial_lookup service 10);
  Alcotest.(check int) "lookups are not repair traffic" before
    (Repair.repair_messages rep)

(* Same seed => identical repair schedule and message counts, under a
   full churn + update workload. *)
let test_deterministic () =
  let scenario () =
    let service =
      Service.create ~seed:77 ~repair:Repair.default_config ~n:6 (Service.hash 2)
    in
    let gen = Entry.Gen.create () in
    Service.place service (Entry.Gen.batch gen 30);
    let cluster = Service.cluster service in
    let rep = Option.get (Service.repair service) in
    let engine = Engine.create () in
    Repair.attach_engine ~until:300. rep engine;
    Churn.drive engine
      ~apply:(fun ev ->
        if ev.Churn.up then Cluster.recover cluster ev.Churn.server
        else Cluster.fail cluster ev.Churn.server)
      (Churn.generate (Plookup_util.Rng.create 41) ~n:6 ~mttf:40. ~mttr:40.
         ~horizon:300.);
    for k = 1 to 30 do
      ignore
        (Engine.schedule_at engine
           ~time:(float_of_int k *. 10.)
           (fun _ ->
             if Service.can_update service then begin
               Service.delete service (Entry.v k);
               Service.add service (Entry.Gen.fresh gen)
             end))
    done;
    ignore (Engine.run ~until:300. engine);
    ( Repair.repair_messages rep,
      Net.messages_received (Cluster.net cluster),
      Repair.stats rep,
      snapshot cluster )
  in
  let a = scenario () and b = scenario () in
  if a <> b then Alcotest.fail "same seed gave a different repair run"

(* Whether the strategy's repair plan is an owner function, which
   repair reads once per entry rather than once per repair event. *)
let owner_function config =
  let (module S : Strategy_intf.S) = Strategy_registry.find_exn (Service.kind config) in
  match S.repair_plan (S.create (Cluster.create ~n:4 ()) ~params:(Service.params config)) with
  | Repair.Owner_function _ -> true
  | Repair.Mirror | Repair.Assigned _ | Repair.Free _ -> false

(* A daemon tick reads each live entry's owners from the id-indexed
   catalog and counts every copy into one reused array, so its
   allocation is a few words per entry whatever the plan.  Measured on
   each strategy (n = 10, h = 100, release build), in minor words per
   live entry: the first tick, healthy, reads 1.7-16.4 (it fills the
   owner-function plans' owners), and the first tick past grace
   1.6-19.6.  Over the failure at 17 and the tick at 20 the
   owner-function plans read 1.8, against 31-37 when their owners were
   computed again at every repair event; RoundRobin's, which are,
   read 19.4.  Sorting the catalog and computing every entry's owners
   three times per tick cost 195-283 on the assigned plans. *)
let test_tick_allocates_little () =
  let n = 10 and h = 100 in
  List.iter
    (fun config ->
      let service = Service.create ~seed:4 ~repair:Repair.default_config ~n config in
      Service.place service (Helpers.entries h);
      let cluster = Service.cluster service in
      let rep = Option.get (Service.repair service) in
      let engine = Engine.create () in
      Repair.attach_engine rep engine;
      (* Ticks run at 10, 20, ...; server 3 fails at 17, inside the
         window around the tick at 20, and the tick at 50 is the first
         one past the 30-unit grace. *)
      ignore (Engine.schedule_at engine ~time:17. (fun _ -> Cluster.fail cluster 3));
      let tick_words ~what ~at =
        ignore (Engine.run ~until:(at -. 5.) engine);
        let ticks = Repair.daemon_ticks rep in
        let before = Gc.minor_words () in
        ignore (Engine.run ~until:(at +. 5.) engine);
        let words = Gc.minor_words () -. before in
        Alcotest.(check int) (what ^ ": one tick measured") (ticks + 1)
          (Repair.daemon_ticks rep);
        words /. float_of_int h
      in
      (* RoundRobin-2's owner query allocates only its owner list. *)
      let bound = if Service.config_name config = "RoundRobin-2" then 25. else 100. in
      let windows =
        [ ("healthy", 10., bound);
          ("owners filled, one failure and one tick", 20.,
           if owner_function config then 8. else bound);
          ("one server down past grace", 50., bound) ]
      in
      List.iter
        (fun (what, at, bound) ->
          let per_entry = tick_words ~what ~at in
          if per_entry > bound then
            Alcotest.failf "%s, %s: %.1f minor words per live entry (bound %.0f)"
              (Service.config_name config) what per_entry bound)
        windows)
    all_configs

(* {2 Cached owners match per-event owners}

   Each owner-function strategy runs twice on one seed and schedule:
   with its own plan, whose owners repair reads once per entry, and
   with the same owner function handed over as an [Assigned] plan,
   which repair asks again at every repair event.  Stats, repair
   messages, daemon ticks and every final store must be equal. *)

type op = Add_fresh | Delete of int | Readd of int | Fail of int | Recover of int

type world = {
  n : int;
  h : int;
  seed : int;
  faults : (float * float) option; (* loss and duplication, synchronous path *)
  ops : (float * op) list;
}

let horizon = 200.

let gen_world =
  let open QCheck2.Gen in
  let* n = int_range 3 7 in
  let* h = int_range 4 16 in
  let* seed = int_bound 10_000 in
  let* faulted = bool in
  let* faults =
    if faulted then map Option.some (pair (float_range 0.02 0.2) (float_range 0.02 0.2))
    else return None
  in
  let op =
    frequency
      [ (3, return Add_fresh);
        (3, map (fun k -> Delete k) (int_bound 20));
        (2, map (fun k -> Readd k) (int_bound 20));
        (2, map (fun s -> Fail s) (int_bound (n - 1)));
        (2, map (fun s -> Recover s) (int_bound (n - 1))) ]
  in
  let* ops = list_size (int_range 4 30) (pair (float_range 0. horizon) op) in
  (* Every schedule deletes an entry and later re-adds a deleted one. *)
  let* deleted_at = float_range 0. 100. and* k = int_bound 20 in
  return
    { n;
      h;
      seed;
      faults;
      ops = (deleted_at, Delete k) :: (deleted_at +. 35., Readd k) :: ops }

let owner_function_configs = List.filter owner_function all_configs

let play ~per_event w config =
  let (module S : Strategy_intf.S) = Strategy_registry.find_exn (Service.kind config) in
  let cluster = Cluster.create ~seed:w.seed ~n:w.n () in
  let s = S.create cluster ~params:(Service.params config) in
  let plan =
    match S.repair_plan s with
    | Repair.Owner_function owners when per_event -> Repair.Assigned (fun e -> Some (owners e))
    | plan -> plan
  in
  let rep = Repair.install cluster ~config:Repair.default_config ~plan in
  let gen = Entry.Gen.create () in
  let initial = Entry.Gen.batch gen w.h in
  S.place s initial;
  Option.iter
    (fun (loss, duplication) -> Cluster.set_faults cluster ~seed:w.seed ~loss ~duplication ())
    w.faults;
  let engine = Engine.create () in
  Repair.attach_engine ~until:horizon rep engine;
  (* The client's view of what is live and deleted: a function of the
     schedule alone, so both runs send the same updates. *)
  let live = ref (List.map Entry.id initial) and deleted = ref [] in
  let take from into k =
    match !from with
    | [] -> None
    | ids ->
      let id = List.nth ids (k mod List.length ids) in
      from := List.filter (( <> ) id) ids;
      into := id :: !into;
      Some id
  in
  List.iter
    (fun (time, op) ->
      ignore
        (Engine.schedule_at engine ~time (fun _ ->
             match op with
             | Add_fresh ->
               let e = Entry.Gen.fresh gen in
               live := Entry.id e :: !live;
               S.add s e
             | Delete k -> Option.iter (fun id -> S.delete s (Entry.v id)) (take live deleted k)
             | Readd k -> Option.iter (fun id -> S.add s (Entry.v id)) (take deleted live k)
             | Fail i -> Cluster.fail cluster i
             | Recover i -> Cluster.recover cluster i)))
    w.ops;
  ignore (Engine.run ~until:horizon engine);
  (Repair.stats rep, Repair.repair_messages rep, Repair.daemon_ticks rep, snapshot cluster)

let prop_cached_owners_match w =
  List.for_all
    (fun config -> play ~per_event:false w config = play ~per_event:true w config)
    owner_function_configs

let test_cached_owners_match =
  Helpers.qcheck ~count:300 "cached owners match per-event owners" gen_world
    prop_cached_owners_match

(* One fixed world under loss and duplication, where digest pulls and
   repair sends are lost and duplicated, pinned for every strategy.
   The expected lines were recorded when every tick recounted the up
   stores for its tracking, so a tick that reuses its own count must
   still add the up stores whose digest pull was lost.  The world also
   keeps the property above from being vacuous: under every
   owner-function plan it syncs, ships, re-replicates, trims and
   retracts. *)
let expected_faulted_world =
  [ "FullReplication syncs=2 shipped=1 retracted=8 rr=2 trims=0 episodes=1 mean=10 msgs=88";
    "Fixed-60 syncs=2 shipped=1 retracted=8 rr=2 trims=0 episodes=1 mean=10 msgs=88";
    "RandomServer-20 syncs=2 shipped=0 retracted=8 rr=3 trims=0 episodes=18 mean=67.2222 msgs=89";
    "RandomServerReplacing-20 syncs=2 shipped=0 retracted=19 rr=2 trims=0 episodes=16 mean=66.875 msgs=99";
    "RoundRobin-2 syncs=2 shipped=0 retracted=3 rr=32 trims=31 episodes=8 mean=23.75 msgs=151";
    "RoundRobinHA-2x2 syncs=2 shipped=0 retracted=3 rr=25 trims=22 episodes=8 mean=23.75 msgs=136";
    "Hash-2 syncs=2 shipped=1 retracted=5 rr=20 trims=21 episodes=2 mean=40 msgs=129";
    "Chord-2 syncs=2 shipped=1 retracted=4 rr=41 trims=40 episodes=13 mean=28.0769 msgs=170";
    "DxHash-2 syncs=2 shipped=1 retracted=2 rr=32 trims=30 episodes=8 mean=35 msgs=151";
    "MultiProbe-2x2 syncs=2 shipped=1 retracted=4 rr=35 trims=31 episodes=4 mean=31.25 msgs=155" ]

let test_faulted_world () =
  let w =
    { n = 5;
      h = 12;
      seed = 33;
      faults = Some (0.1, 0.1);
      ops =
        [ (5., Fail 1); (12., Delete 0); (13., Delete 1); (14., Delete 2); (15., Add_fresh);
          (16., Delete 3); (17., Delete 4); (31., Readd 0); (44., Delete 3); (90., Recover 1);
          (95., Fail 4); (150., Recover 4) ] }
  in
  Alcotest.(check (list string)) "stats and repair messages" expected_faulted_world
    (List.map
       (fun config ->
         let s, msgs, _, _ = play ~per_event:false w config in
         stats_line config s msgs)
       all_configs);
  List.iter
    (fun config ->
      let name = Service.config_name config in
      let ((s, msgs, _, _) as cached) = play ~per_event:false w config in
      if cached <> play ~per_event:true w config then
        Alcotest.failf "%s: cached owners repaired differently" name;
      List.iter
        (fun (what, v) ->
          if v = 0 then Alcotest.failf "%s: the fixed world made no %s" name what)
        [ ("syncs", s.Repair.syncs);
          ("shipped entries", s.Repair.entries_shipped);
          ("re-replications", s.Repair.re_replications);
          ("trims", s.Repair.trims);
          ("retractions", s.Repair.entries_retracted);
          ("repair messages", msgs) ])
    owner_function_configs

(* The catalog's edge cases, which churn drills with fresh dense ids
   never reach: an id far above the rest, a delete of an id never
   added, a delete and re-add between two ticks, and a failure past
   grace, with a delete while the server is down, followed by a
   recovery.  Each outcome is the stats line, then every server's
   sorted store.  The expected outcomes were recorded when the catalog
   was a set of hashtables, so the id-indexed arrays must grow, reset
   and clear exactly where those did. *)
let catalog_outcome config =
  let service = Service.create ~seed:8 ~repair:Repair.default_config ~n:6 config in
  Service.place service (Helpers.entries 12);
  let cluster = Service.cluster service in
  let rep = Option.get (Service.repair service) in
  let engine = Engine.create () in
  Repair.attach_engine ~until:70. rep engine;
  let at time f = ignore (Engine.schedule_at engine ~time (fun _ -> f ())) in
  at 1. (fun () ->
      Service.add service (Entry.v 5_000);
      Service.delete service (Entry.v 7_000));
  at 15. (fun () ->
      Service.delete service (Entry.v 3);
      Service.add service (Entry.v 3));
  at 21. (fun () -> Cluster.fail cluster 2);
  at 30. (fun () -> Service.delete service (Entry.v 4));
  at 65. (fun () -> Cluster.recover cluster 2);
  ignore (Engine.run ~until:75. engine);
  stats_line config (Repair.stats rep) (Repair.repair_messages rep)
  :: List.map (fun ids -> String.concat "," (List.map string_of_int ids)) (snapshot cluster)

let expected_catalog_outcomes =
  [ [ "FullReplication syncs=1 shipped=0 retracted=1 rr=0 trims=0 episodes=0 mean=- msgs=40";
      "0,1,2,3,5,6,7,8,9,10,11,5000";
      "0,1,2,3,5,6,7,8,9,10,11,5000";
      "0,1,2,3,5,6,7,8,9,10,11,5000";
      "0,1,2,3,5,6,7,8,9,10,11,5000";
      "0,1,2,3,5,6,7,8,9,10,11,5000";
      "0,1,2,3,5,6,7,8,9,10,11,5000" ];
    [ "Fixed-60 syncs=1 shipped=0 retracted=1 rr=0 trims=0 episodes=0 mean=- msgs=40";
      "0,1,2,3,5,6,7,8,9,10,11,5000";
      "0,1,2,3,5,6,7,8,9,10,11,5000";
      "0,1,2,3,5,6,7,8,9,10,11,5000";
      "0,1,2,3,5,6,7,8,9,10,11,5000";
      "0,1,2,3,5,6,7,8,9,10,11,5000";
      "0,1,2,3,5,6,7,8,9,10,11,5000" ];
    [ "RandomServer-20 syncs=1 shipped=0 retracted=1 rr=0 trims=0 episodes=12 mean=44 msgs=40";
      "0,1,2,3,5,6,7,8,9,10,11,5000";
      "0,1,2,3,5,6,7,8,9,10,11,5000";
      "0,1,2,3,5,6,7,8,9,10,11,5000";
      "0,1,2,3,5,6,7,8,9,10,11,5000";
      "0,1,2,3,5,6,7,8,9,10,11,5000";
      "0,1,2,3,5,6,7,8,9,10,11,5000" ];
    [ "RandomServerReplacing-20 syncs=1 shipped=0 retracted=1 rr=0 trims=0 episodes=12 mean=44 msgs=40";
      "0,1,2,3,5,6,7,8,9,10,11,5000";
      "0,1,2,3,5,6,7,8,9,10,11,5000";
      "0,1,2,3,5,6,7,8,9,10,11,5000";
      "0,1,2,3,5,6,7,8,9,10,11,5000";
      "0,1,2,3,5,6,7,8,9,10,11,5000";
      "0,1,2,3,5,6,7,8,9,10,11,5000" ];
    [ "RoundRobin-2 syncs=1 shipped=0 retracted=1 rr=4 trims=4 episodes=5 mean=33 msgs=48";
      "5,6,11,5000";
      "3,6,7,5000";
      "2,3,7,8";
      "0,2,8,9";
      "0,1,9,10";
      "1,5,10,11" ];
    [ "RoundRobinHA-2x2 syncs=1 shipped=0 retracted=1 rr=4 trims=4 episodes=5 mean=33 msgs=48";
      "5,6,11,5000";
      "3,6,7,5000";
      "2,3,7,8";
      "0,2,8,9";
      "0,1,9,10";
      "1,5,10,11" ];
    [ "Hash-2 syncs=1 shipped=0 retracted=0 rr=5 trims=5 episodes=5 mean=39 msgs=49";
      "0,1,3,8";
      "5,9,10";
      "0,2,3,6,11";
      "1,6,7,8,5000";
      "9,11,5000";
      "2,5,7,10" ];
    [ "Chord-2 syncs=1 shipped=0 retracted=0 rr=5 trims=5 episodes=5 mean=39 msgs=49";
      "0,3,5,6,9,5000";
      "8";
      "1,2,7,10,11";
      "0,3,6,9,10,11,5000";
      "1,2,7,8";
      "5" ];
    [ "DxHash-2 syncs=1 shipped=0 retracted=0 rr=7 trims=7 episodes=7 mean=39 msgs=53";
      "6,10,5000";
      "0,1,11";
      "0,2,5,7,9,11,5000";
      "3,5,8,9";
      "2,3,6,7,8,10";
      "1" ];
    [ "MultiProbe-2x2 syncs=1 shipped=0 retracted=0 rr=7 trims=7 episodes=7 mean=39 msgs=53";
      "5000";
      "3,8,9,11";
      "0,1,2,5,6,7,10";
      "1,3,7,8,9,10";
      "0,2,5,6,5000";
      "11" ] ]

let test_catalog_edge_cases () =
  Alcotest.(check (list (list string))) "stats, repair messages and stores"
    expected_catalog_outcomes (List.map catalog_outcome all_configs)

let test_mode_parsing () =
  List.iter
    (fun (s, expected) ->
      match Repair.mode_of_string s with
      | Ok m when m = expected -> ()
      | Ok _ -> Alcotest.failf "%s parsed to the wrong mode" s
      | Error e -> Alcotest.failf "%s rejected: %s" s e)
    [ ("off", Repair.Off); ("none", Repair.Off); ("sync", Repair.Sync);
      ("full", Repair.Full); ("all", Repair.Full); (" Full ", Repair.Full) ];
  match Repair.mode_of_string "bogus" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted a bogus mode"

let test_config_validation () =
  let cluster = Cluster.create ~n:3 () in
  let populated = Service.create ~n:3 Service.full_replication in
  Service.place populated (Helpers.entries 4);
  let checks =
    [ (cluster, { Repair.default_config with Repair.mode = Repair.Off });
      (cluster, { Repair.default_config with Repair.grace = -1. });
      (cluster, { Repair.default_config with Repair.period = 0. });
      (* Its catalog would start empty and retract the placed entries. *)
      (Service.cluster populated, Repair.default_config) ]
  in
  List.iter
    (fun (cluster, config) ->
      match Repair.install cluster ~config ~plan:Repair.Mirror with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "bad repair install accepted")
    checks

let () =
  Helpers.run "repair"
    [ ( "repair",
        [ Alcotest.test_case "every registered strategy is covered" `Quick
            test_all_configs_cover_registry;
          Alcotest.test_case "staleness fixed for every strategy" `Quick
            test_staleness_fixed;
          Alcotest.test_case "sync mode alone retracts deletes" `Quick
            test_sync_mode_retracts;
          Alcotest.test_case "no-update round trip is identical" `Quick
            test_no_update_round_trip_identical;
          Alcotest.test_case "repair off leaves recovered stores" `Quick
            test_off_leaves_recovered_stores;
          Alcotest.test_case "outage costs nothing until recovery" `Quick
            test_outage_is_free;
          Alcotest.test_case "daemon restores degree and trims" `Quick
            test_daemon_restores_degree;
          Alcotest.test_case "repair message accounting" `Quick
            test_repair_message_accounting;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "daemon tick allocates little" `Quick test_tick_allocates_little;
          test_cached_owners_match;
          Alcotest.test_case "a faulted world" `Quick test_faulted_world;
          Alcotest.test_case "catalog edge cases" `Quick test_catalog_edge_cases;
          Alcotest.test_case "mode parsing" `Quick test_mode_parsing;
          Alcotest.test_case "config validation" `Quick test_config_validation ] ) ]
