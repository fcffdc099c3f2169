(* Soak tests: long random interleavings of updates, failures,
   recoveries and lookups, with full invariant checks at the end.  These
   target the recovery machinery that short unit tests cannot reach:
   coordinator failover, ledger state transfer, and the repair layer's
   recovery sync of the stores. *)

open Plookup
open Plookup_store
open Plookup_util
module IntMap = Map.Make (Int)

type op = Fail of int | Recover of int | Add of int | Delete of int | Lookup of int

let gen_ops ~n =
  QCheck2.Gen.(
    list_size (int_range 0 250)
      (oneof
         [ map (fun s -> Fail s) (int_range 0 (n - 1));
           map (fun s -> Recover s) (int_range 0 (n - 1));
           map (fun id -> Add id) (int_range 0 80);
           map (fun id -> Delete id) (int_range 0 80);
           map (fun t -> Lookup t) (int_range 1 15) ]))

(* Mirror of the acceptance rules: an update lands iff some coordinator
   is up; adds of already-live ids and deletes of dead ids are no-ops.

   Failures that would take down the *last* operational coordinator are
   skipped: once updates have been accepted that a later sole-surviving
   stale replica never saw, the centralized scheme has genuinely lost
   state (the paper's footnote has no quorum), so that regime is out of
   the consistency contract. *)
let round_robin_soak ~coordinators ops =
  let n = 6 and h = 12 in
  let cluster = Cluster.create ~seed:91 ~n () in
  let strategy = Round_robin.create ~coordinators cluster ~y:2 in
  (* The strategy only transfers its ledger on recovery; the repair
     layer's recovery sync heals the stores. *)
  ignore
    (Repair.install cluster
       ~config:{ Repair.default_config with Repair.mode = Repair.Sync }
       ~plan:(Round_robin.Strategy.repair_plan strategy));
  let initial = Helpers.entries h in
  Round_robin.place strategy initial;
  let live = ref IntMap.empty in
  List.iter (fun e -> live := IntMap.add (Entry.id e) e !live) initial;
  let up_coordinators () =
    List.filter (Cluster.is_up cluster) (List.init coordinators Fun.id)
  in
  List.iter
    (fun op ->
      match op with
      | Fail s ->
        let last_coordinator = s < coordinators && up_coordinators () = [ s ] in
        if not last_coordinator then Cluster.fail cluster s
      | Recover s -> Cluster.recover cluster s
      | Add id ->
        let e = Entry.v (1000 + id) in
        let accepted = not (IntMap.mem (Entry.id e) !live) in
        Round_robin.add strategy e;
        if accepted then live := IntMap.add (Entry.id e) e !live
      | Delete id ->
        let target = if id mod 2 = 0 then Entry.v (id / 2) else Entry.v (1000 + id) in
        let accepted = IntMap.mem (Entry.id target) !live in
        Round_robin.delete strategy target;
        if accepted then live := IntMap.remove (Entry.id target) !live
      | Lookup t ->
        ignore (Probe.lookup cluster (Round_robin.Strategy.discipline strategy) ~t))
    ops;
  (* Heal the fleet; each recovery syncs the server's store. *)
  for s = 0 to n - 1 do
    Cluster.recover cluster s
  done;
  (strategy, cluster, !live)

let check_soak (strategy, cluster, live) =
  (match Round_robin.check_invariants strategy with
  | Ok () -> true
  | Error msg -> QCheck2.Test.fail_reportf "invariant: %s" msg)
  && Round_robin.live_count strategy = IntMap.cardinal live
  &&
  let coverage = Entry.Set.elements (Cluster.coverage cluster) |> List.map Entry.id in
  coverage = List.map fst (IntMap.bindings live)

let prop_round_robin_soak_k1 =
  Helpers.qcheck ~count:120 "round-robin soak, single coordinator" (gen_ops ~n:6)
    (fun ops -> check_soak (round_robin_soak ~coordinators:1 ops))

let prop_round_robin_soak_k3 =
  Helpers.qcheck ~count:120 "round-robin soak, three coordinator replicas" (gen_ops ~n:6)
    (fun ops -> check_soak (round_robin_soak ~coordinators:3 ops))

(* With a coordinator always up, every update is accepted regardless of
   the replication factor, so the two systems converge to the same
   entry population even though their failure histories differ. *)
let prop_replication_transparent =
  Helpers.qcheck ~count:80 "final coverage is independent of the replication factor"
    (gen_ops ~n:6)
    (fun ops ->
      let s1, c1, _ = round_robin_soak ~coordinators:1 ops in
      let s3, c3, _ = round_robin_soak ~coordinators:3 ops in
      let ids cluster =
        Entry.Set.elements (Cluster.coverage cluster) |> List.map Entry.id
      in
      Round_robin.live_count s1 = Round_robin.live_count s3 && ids c1 = ids c3)

(* A deterministic large-configuration smoke: the default figures use
   n=10, h=100; make sure nothing degrades at n=50, h=1000. *)
let test_large_configuration () =
  let n = 50 and h = 1000 in
  List.iter
    (fun config ->
      let service = Service.create ~seed:13 ~n config in
      Service.place service (Helpers.entries h);
      let r = Service.partial_lookup service 150 in
      if not (Lookup_result.satisfied r) then
        Alcotest.failf "%s failed at scale" (Service.config_name config);
      let coverage = Plookup_metrics.Coverage.measured (Service.cluster service) in
      if coverage < 150 then Alcotest.failf "%s coverage too small" (Service.config_name config))
    [ Service.round_robin 3; Service.hash 3; Service.random_server 60 ]

(* Sustained updates at scale: 20k updates through the cheap strategies
   must complete and keep the occupancy law. *)
let test_large_update_stream () =
  let n = 20 and h = 500 in
  let stream =
    Plookup_workload.Update_gen.generate (Rng.create 3)
      { Plookup_workload.Update_gen.steady_entries = h; add_period = 10.;
        tail_heavy = false; updates = 20_000 }
  in
  let service = Service.create ~seed:3 ~n (Service.hash 2) in
  Plookup_workload.Replay.run service stream;
  let live = Plookup_workload.Update_gen.live_after stream 20_000 in
  Helpers.check_int "coverage tracks live set" (List.length live)
    (Plookup_metrics.Coverage.measured (Service.cluster service))

let () =
  Helpers.run "stress"
    [ ( "stress",
        [ prop_round_robin_soak_k1;
          prop_round_robin_soak_k3;
          prop_replication_transparent;
          Alcotest.test_case "large configuration" `Slow test_large_configuration;
          Alcotest.test_case "large update stream" `Slow test_large_update_stream ] ) ]
