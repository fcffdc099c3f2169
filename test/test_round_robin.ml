open Plookup
open Plookup_store
module Net = Plookup_net.Net

let make ?(seed = 2) ~n ~h ~y () =
  let cluster = Cluster.create ~seed ~n () in
  let s = Round_robin.create cluster ~y in
  let batch = Helpers.entries h in
  Round_robin.place s batch;
  (cluster, s, batch)

(* A client lookup by the discipline Round-Robin-y declares. *)
let lookup cluster s t = Probe.lookup cluster (Round_robin.Strategy.discipline s) ~t

let check_invariants s =
  match Round_robin.check_invariants s with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

let test_placement_positions () =
  let cluster, s, _ = make ~n:4 ~h:8 ~y:2 () in
  check_invariants s;
  (* Entry i lives on servers i mod n and i+1 mod n. *)
  for i = 0 to 7 do
    Alcotest.(check bool) "first copy" true
      (Server_store.mem (Cluster.store cluster (i mod 4)) (Entry.v i));
    Alcotest.(check bool) "second copy" true
      (Server_store.mem (Cluster.store cluster ((i + 1) mod 4)) (Entry.v i))
  done

let test_storage_h_y () =
  let cluster, _, _ = make ~n:4 ~h:8 ~y:2 () in
  Helpers.check_int "h*y" 16 (Cluster.total_stored cluster)

let test_balance_within_y () =
  let cluster, _, _ = make ~n:10 ~h:97 ~y:3 () in
  let sizes =
    List.init 10 (fun i -> Server_store.cardinal (Cluster.store cluster i))
  in
  let lo = List.fold_left min max_int sizes and hi = List.fold_left max 0 sizes in
  Alcotest.(check bool) "imbalance <= y" true (hi - lo <= 3)

let test_complete_coverage () =
  let cluster, _, _ = make ~n:10 ~h:100 ~y:2 () in
  Helpers.check_int "complete" 100 (Entry.Set.cardinal (Cluster.coverage cluster))

let test_y_clamped_to_n () =
  let cluster, s, _ = make ~n:3 ~h:5 ~y:10 () in
  Helpers.check_int "y = n" 3 (Round_robin.y s);
  Helpers.check_int "full replication" 15 (Cluster.total_stored cluster)

let test_head_tail_after_place () =
  let _, s, _ = make ~n:4 ~h:8 ~y:2 () in
  Helpers.check_int "head" 0 (Round_robin.head s);
  Helpers.check_int "tail" 8 (Round_robin.tail s);
  Helpers.check_int "live" 8 (Round_robin.live_count s)

let test_add_appends_at_tail () =
  let cluster, s, _ = make ~n:4 ~h:8 ~y:2 () in
  Round_robin.add s (Entry.v 100);
  check_invariants s;
  Helpers.check_int "tail advanced" 9 (Round_robin.tail s);
  Alcotest.(check (option int)) "position" (Some 8)
    (Round_robin.position_of s (Entry.v 100));
  (* Position 8 on 4 servers -> servers 0 and 1. *)
  Alcotest.(check bool) "copy at 0" true (Server_store.mem (Cluster.store cluster 0) (Entry.v 100));
  Alcotest.(check bool) "copy at 1" true (Server_store.mem (Cluster.store cluster 1) (Entry.v 100))

let test_add_message_cost () =
  let cluster, s, _ = make ~n:4 ~h:8 ~y:2 () in
  Net.reset_counters (Cluster.net cluster);
  Round_robin.add s (Entry.v 100);
  (* 1 client request to the coordinator + y stores. *)
  Helpers.check_int "1 + y" 3 (Net.messages_received (Cluster.net cluster))

let test_delete_head_no_migration () =
  let cluster, s, batch = make ~n:4 ~h:8 ~y:2 () in
  let head_entry = List.hd batch in
  Round_robin.delete s head_entry;
  check_invariants s;
  Helpers.check_int "head advanced" 1 (Round_robin.head s);
  Helpers.check_int "live shrank" 7 (Round_robin.live_count s);
  Alcotest.(check bool) "head entry gone" false
    (Server_store.mem (Cluster.store cluster 0) head_entry)

let test_delete_middle_plugs_hole () =
  let _, s, batch = make ~n:4 ~h:8 ~y:2 () in
  let victim = List.nth batch 5 in
  let head_entry = List.hd batch in
  Round_robin.delete s victim;
  check_invariants s;
  (* The head entry migrated into the vacated position 5. *)
  Alcotest.(check (option int)) "head entry at position 5" (Some 5)
    (Round_robin.position_of s head_entry);
  Alcotest.(check bool) "victim unplaced" true (Round_robin.position_of s victim = None);
  Helpers.check_int "head advanced" 1 (Round_robin.head s);
  Helpers.check_int "live shrank" 7 (Round_robin.live_count s)

(* With the engine as the network's clock, a delete run from an engine
   event stamps its migration span with that event's time. *)
let test_migration_span_at_engine_time () =
  let obs = Plookup_obs.Obs.create () in
  let tr = obs.Plookup_obs.Obs.trace in
  let cluster = Cluster.create ~seed:2 ~obs ~n:4 () in
  let s = Round_robin.create cluster ~y:2 in
  let batch = Helpers.entries 8 in
  Round_robin.place s batch;
  let engine = Plookup_sim.Engine.create () in
  Net.attach_engine (Cluster.net cluster) engine;
  Plookup_obs.Trace.set_enabled tr true;
  ignore
    (Plookup_sim.Engine.schedule_at engine ~time:12.5 (fun _ ->
         Round_robin.delete s (List.nth batch 5)));
  ignore (Plookup_sim.Engine.run engine);
  let migrations =
    List.filter_map
      (fun (sp : Plookup_obs.Span.t) ->
        match sp.kind with Plookup_obs.Span.Migration _ -> Some sp.time | _ -> None)
      (Plookup_obs.Trace.spans tr)
  in
  Alcotest.(check (list (float 1e-9))) "migration at the event's time" [ 12.5 ] migrations

let test_delete_message_cost () =
  let cluster, s, batch = make ~n:4 ~h:8 ~y:2 () in
  Net.reset_counters (Cluster.net cluster);
  Round_robin.delete s (List.nth batch 5);
  (* 1 client + n broadcast + y removals of the head entry + y stores. *)
  Helpers.check_int "1 + n + 2y" 9 (Net.messages_received (Cluster.net cluster))

let test_delete_unknown_is_ignored () =
  let _, s, _ = make ~n:4 ~h:8 ~y:2 () in
  Round_robin.delete s (Entry.v 999);
  check_invariants s;
  Helpers.check_int "live unchanged" 8 (Round_robin.live_count s)

let test_paper_fig10_scenario () =
  (* Fig. 10: 5 entries, 4 servers, y=2; delete entry at position 2 — the
     head entry (position 0) migrates into position 2. *)
  let _, s, batch = make ~n:4 ~h:5 ~y:2 () in
  Round_robin.delete s (List.nth batch 2);
  check_invariants s;
  Alcotest.(check (option int)) "entry 0 plugged the hole" (Some 2)
    (Round_robin.position_of s (List.hd batch));
  Helpers.check_int "head" 1 (Round_robin.head s);
  Helpers.check_int "tail" 5 (Round_robin.tail s)

let test_lookup_cost_steps () =
  (* h=100, n=10, y=2: each server holds 20 entries and strided probes
     are disjoint, so cost is ceil(t/20). *)
  let cluster, s, _ = make ~n:10 ~h:100 ~y:2 () in
  List.iter
    (fun (t, expected) ->
      let r = lookup cluster s t in
      Helpers.check_int (Printf.sprintf "cost at t=%d" t) expected
        r.Lookup_result.servers_contacted)
    [ (10, 1); (20, 1); (21, 2); (40, 2); (41, 3); (100, 5) ]

let test_lookup_with_y_equal_n () =
  (* y = n makes the stride step a multiple of n; the normalized step 0
     degenerates to one residue and the probe's rest-extension must
     still reach everyone (regression for the sign-preserving-mod
     stride bug). *)
  let cluster, s, _ = make ~n:4 ~h:8 ~y:4 () in
  List.iter
    (fun t ->
      let r = lookup cluster s t in
      Alcotest.(check bool)
        (Printf.sprintf "satisfied at t=%d" t)
        true
        (Lookup_result.satisfied r))
    [ 1; 4; 8 ]

let test_lookup_under_failure_randomizes () =
  let cluster, s, _ = make ~n:10 ~h:100 ~y:2 () in
  Cluster.fail cluster 3;
  let r = lookup cluster s 30 in
  Alcotest.(check bool) "satisfied despite failure" true (Lookup_result.satisfied r)

let make_replicated ?(seed = 8) ~n ~h ~y ~coordinators () =
  let cluster = Cluster.create ~seed ~n () in
  let s = Round_robin.create ~coordinators cluster ~y in
  let batch = Helpers.entries h in
  Round_robin.place s batch;
  (cluster, s, batch)

let test_coordinator_defaults () =
  let _, s, _ = make ~n:4 ~h:8 ~y:2 () in
  Helpers.check_int "default one coordinator" 1 (Round_robin.coordinators s);
  Alcotest.(check (option int)) "server 0 acts" (Some 0) (Round_robin.acting_coordinator s)

let test_coordinator_bounds () =
  let cluster = Cluster.create ~n:3 () in
  Alcotest.check_raises "too many"
    (Invalid_argument "Round_robin.create: coordinators must be in [1, n]") (fun () ->
      ignore (Round_robin.create ~coordinators:4 cluster ~y:1))

let test_failover_accepts_updates () =
  let cluster, s, _ = make_replicated ~n:5 ~h:10 ~y:2 ~coordinators:2 () in
  Cluster.fail cluster 0;
  Alcotest.(check (option int)) "server 1 takes over" (Some 1)
    (Round_robin.acting_coordinator s);
  Round_robin.add s (Entry.v 100);
  Helpers.check_int "update accepted" 11 (Round_robin.live_count s);
  Alcotest.(check (option int)) "placed at tail" (Some 10)
    (Round_robin.position_of s (Entry.v 100))

let test_single_coordinator_loses_updates () =
  let cluster, s, _ = make ~n:5 ~h:10 ~y:2 () in
  Cluster.fail cluster 0;
  Alcotest.(check (option int)) "no acting coordinator" None
    (Round_robin.acting_coordinator s);
  Round_robin.add s (Entry.v 100);
  (* The paper's centralized scheme drops the update. *)
  Alcotest.(check (option int)) "dropped" None (Round_robin.position_of s (Entry.v 100))

let test_replicas_stay_consistent () =
  let _, s, batch = make_replicated ~n:6 ~h:12 ~y:2 ~coordinators:3 () in
  Round_robin.add s (Entry.v 100);
  Round_robin.delete s (List.nth batch 5);
  Round_robin.delete s (List.hd batch);
  Round_robin.add s (Entry.v 101);
  check_invariants s (* includes replica-agreement checks *)

let test_recovery_state_transfer () =
  let cluster = Cluster.create ~seed:8 ~n:6 () in
  let s = Round_robin.create ~coordinators:2 cluster ~y:2 in
  (* Recovery transfers only the ledger; the repair layer's recovery
     sync heals server 0's store. *)
  ignore
    (Repair.install cluster
       ~config:{ Repair.default_config with Repair.mode = Repair.Sync }
       ~plan:(Round_robin.Strategy.repair_plan s));
  let batch = Helpers.entries 12 in
  Round_robin.place s batch;
  Cluster.fail cluster 0;
  (* Server 1 acts alone; its replica diverges from the stale server 0. *)
  Round_robin.add s (Entry.v 100);
  Round_robin.delete s (List.nth batch 4);
  Cluster.recover cluster 0;
  (* The recovery hook transferred state: server 0 acts again with the
     fresh ledger, and further updates stay consistent. *)
  Alcotest.(check (option int)) "server 0 acting again" (Some 0)
    (Round_robin.acting_coordinator s);
  Round_robin.add s (Entry.v 101);
  check_invariants s;
  Helpers.check_int "live count correct" 13 (Round_robin.live_count s)

(* A coordinator replica that receives its own [Sync_state] keeps its
   ledger: the id index still places v3, so a later delete of v3 lands
   and removes both copies. *)
let test_self_sync_keeps_ledger () =
  List.iter
    (fun coordinators ->
      let cluster, s, _ = make_replicated ~seed:2 ~n:10 ~h:10 ~y:2 ~coordinators () in
      let v3 = Entry.v 3 in
      Alcotest.(check (option int)) "v3 placed at 3" (Some 3) (Round_robin.position_of s v3);
      ignore (Net.send (Cluster.net cluster) ~src:(Net.Server 0) ~dst:0 Msg.sync_state);
      Alcotest.(check (option int)) "v3 still at 3" (Some 3) (Round_robin.position_of s v3);
      check_invariants s;
      Round_robin.delete s v3;
      Helpers.check_int "delete accepted" 9 (Round_robin.live_count s);
      List.iter
        (fun i ->
          Helpers.check_bool "copy removed" false
            (Server_store.mem (Cluster.store cluster i) v3))
        [ 3; 4 ];
      check_invariants s)
    [ 1; 2 ]

let test_sync_message_cost () =
  let cluster, s, _ = make_replicated ~n:5 ~h:10 ~y:2 ~coordinators:3 () in
  Plookup_net.Net.reset_counters (Cluster.net cluster);
  Round_robin.add s (Entry.v 100);
  (* 1 client + y stores + 2 standby syncs. *)
  Helpers.check_int "1 + y + (k-1)" 5
    (Plookup_net.Net.messages_received (Cluster.net cluster))

let test_budget_truncates () =
  let cluster = Cluster.create ~seed:4 ~n:10 () in
  let s = Round_robin.create cluster ~y:2 in
  Round_robin.place ~budget:150 s (Helpers.entries 100);
  Helpers.check_int "150 copies stored" 150 (Cluster.total_stored cluster);
  Helpers.check_int "coverage complete (round-major)" 100
    (Entry.Set.cardinal (Cluster.coverage cluster))

let test_budget_below_h () =
  let cluster = Cluster.create ~seed:4 ~n:10 () in
  let s = Round_robin.create cluster ~y:1 in
  Round_robin.place ~budget:60 s (Helpers.entries 100);
  Helpers.check_int "60 copies" 60 (Cluster.total_stored cluster);
  Helpers.check_int "coverage = budget" 60 (Entry.Set.cardinal (Cluster.coverage cluster))

let test_truncated_refuses_updates () =
  let cluster = Cluster.create ~seed:4 ~n:4 () in
  let s = Round_robin.create cluster ~y:2 in
  Round_robin.place ~budget:3 s (Helpers.entries 5);
  Alcotest.check_raises "updates disabled"
    (Invalid_argument "Round_robin: updates after a truncated place") (fun () ->
      Round_robin.add s (Entry.v 100))

let test_rejects_bad_y () =
  let cluster = Cluster.create ~n:3 () in
  Alcotest.check_raises "y = 0" (Invalid_argument "Round_robin.create: y must be at least 1")
    (fun () -> ignore (Round_robin.create cluster ~y:0))

let prop_invariant_under_random_updates =
  Helpers.qcheck ~count:100 "round-robin invariant survives random update streams"
    QCheck2.Gen.(list_size (int_range 0 60) (pair bool (int_range 0 30)))
    (fun ops ->
      let cluster = Cluster.create ~seed:21 ~n:5 () in
      let s = Round_robin.create cluster ~y:2 in
      let batch = Helpers.entries 12 in
      Round_robin.place s batch;
      let known = Hashtbl.create 16 in
      List.iter (fun e -> Hashtbl.replace known (Entry.id e) e) batch;
      List.iter
        (fun (is_add, i) ->
          if is_add then begin
            let e = Entry.v (100 + i) in
            Hashtbl.replace known (Entry.id e) e;
            Round_robin.add s e
          end
          else begin
            (* Delete something currently live, if any. *)
            match Round_robin.entry_at s (Round_robin.head s + (i mod max 1 (Round_robin.live_count s))) with
            | Some e ->
              Hashtbl.remove known (Entry.id e);
              Round_robin.delete s e
            | None -> ()
          end)
        ops;
      Round_robin.check_invariants s = Ok ())

let prop_live_count_matches_ops =
  Helpers.qcheck "live_count = places + adds - deletes"
    QCheck2.Gen.(int_range 0 20)
    (fun k ->
      let cluster = Cluster.create ~seed:22 ~n:4 () in
      let s = Round_robin.create cluster ~y:2 in
      let batch = Helpers.entries 10 in
      Round_robin.place s batch;
      for i = 0 to k - 1 do
        Round_robin.add s (Entry.v (100 + i))
      done;
      List.iteri (fun i e -> if i < min k 10 then Round_robin.delete s e) batch;
      Round_robin.live_count s = 10 + k - min k 10)

(* The ledger as two hash tables (position -> entry beside id ->
   position), the form the head/tail window replaced: the reference the
   window must match step for step. *)
module Reference = struct
  type t = {
    mutable head : int;
    mutable tail : int;
    by_position : (int, Entry.t) Hashtbl.t;
    position_of_id : (int, int) Hashtbl.t;
  }

  let insert t pos e =
    Hashtbl.replace t.by_position pos e;
    Hashtbl.replace t.position_of_id (Entry.id e) pos

  let remove t pos =
    match Hashtbl.find_opt t.by_position pos with
    | None -> ()
    | Some e ->
      Hashtbl.remove t.by_position pos;
      Hashtbl.remove t.position_of_id (Entry.id e)

  let placed entries =
    let t =
      { head = 0; tail = 0; by_position = Hashtbl.create 64; position_of_id = Hashtbl.create 64 }
    in
    List.iteri (insert t) entries;
    t.tail <- List.length entries;
    t

  let add t e =
    if not (Hashtbl.mem t.position_of_id (Entry.id e)) then begin
      insert t t.tail e;
      t.tail <- t.tail + 1
    end

  let delete t e =
    match Hashtbl.find_opt t.position_of_id (Entry.id e) with
    | None -> ()
    | Some pos ->
      remove t pos;
      if pos <> t.head then begin
        let u = Hashtbl.find t.by_position t.head in
        remove t t.head;
        insert t pos u
      end;
      t.head <- t.head + 1
end

(* Ids of placed, added and deleted entries: below [ids], so adds repeat
   live ids and deletes name absent ones. *)
let ids = 90

let ledger_matches s (r : Reference.t) =
  let positions get = List.init ids get in
  let entries get = List.init (r.tail - r.head + 6) (fun k -> get (r.head - 3 + k)) in
  let ids_of = List.map (Option.map Entry.id) in
  if Round_robin.head s <> r.head || Round_robin.tail s <> r.tail then
    Alcotest.failf "window [%d, %d), reference [%d, %d)" (Round_robin.head s)
      (Round_robin.tail s) r.head r.tail;
  if
    positions (fun id -> Round_robin.position_of s (Entry.v id))
    <> positions (Hashtbl.find_opt r.position_of_id)
  then Alcotest.fail "position_of differs from the reference";
  if ids_of (entries (Round_robin.entry_at s)) <> ids_of (entries (Hashtbl.find_opt r.by_position))
  then Alcotest.fail "entry_at differs from the reference";
  check_invariants s

(* h up to 40 fits a window of at most 64 slots; up to 300 updates over
   90 ids move the window past its length (wrapping positions) and grow
   the live count past it (doubling the window). *)
let prop_window_matches_reference =
  Helpers.qcheck ~count:150 "window matches the two-table ledger on update streams"
    QCheck2.Gen.(
      quad (int_range 2 8) (int_range 1 2) (int_range 0 40)
        (list_size (int_range 0 300) (pair bool (int_range 0 (ids - 1)))))
    (fun (n, coordinators, h, ops) ->
      let cluster = Cluster.create ~seed:31 ~n () in
      let s = Round_robin.create ~coordinators cluster ~y:2 in
      let batch = Helpers.entries h in
      Round_robin.place s batch;
      let r = Reference.placed batch in
      ledger_matches s r;
      List.iter
        (fun (is_add, id) ->
          let e = Entry.v id in
          if is_add then begin
            Round_robin.add s e;
            Reference.add r e
          end
          else begin
            Round_robin.delete s e;
            Reference.delete r e
          end;
          ledger_matches s r)
        ops;
      true)

(* The shared round-major driver against the loop it implements: every
   entry's [r]-th owner gets its copy before any entry's [r+1]-th, one
   message and one unit of budget per owner named, until the budget is
   spent. *)
let prop_round_major_driver =
  Helpers.qcheck ~count:300 "place_round_major sends the round-major stores"
    QCheck2.Gen.(
      triple (int_range 1 6)
        (list_size (int_range 0 12) (list_size (int_range 0 4) (int_range 0 5)))
        (pair (opt (int_range 0 30)) (int_range 0 9)))
    (fun (n, owner_lists, (budget, down)) ->
      let owner_lists = List.map (List.map (fun s -> s mod n)) owner_lists in
      let cluster = Cluster.create ~seed:5 ~n () in
      (* One case in ten runs on a cluster with every server down. *)
      if down = 0 then List.iter (Cluster.fail cluster) (List.init n Fun.id);
      let log = ref [] in
      Net.set_handler (Cluster.net cluster) (fun dst src msg ->
          log := (src, dst, msg) :: !log;
          Msg.Ack);
      let entries = Helpers.entries (List.length owner_lists) in
      let owners = Array.of_list owner_lists in
      let sent =
        Strategy_common.place_round_major ?budget cluster entries ~owners:(fun i _ ->
            owners.(i))
      in
      match (List.rev !log, sent) with
      | [], None -> down = 0
      | (Net.Client, s, Msg.Data (Msg.Place placed)) :: stores, Some count ->
        let budget = Option.value budget ~default:max_int in
        let rounds = Array.fold_left (fun m l -> max m (List.length l)) 0 owners in
        let want = ref [] and spent = ref 0 in
        for r = 0 to rounds - 1 do
          Array.iteri
            (fun i l ->
              if !spent < budget && r < List.length l then begin
                want := (s, List.nth l r, i) :: !want;
                incr spent
              end)
            owners
        done;
        let got =
          List.map
            (function
              | Net.Server src, dst, Msg.Strategy (Msg.Store e) -> (src, dst, Entry.id e)
              | _ -> (-1, -1, -1))
            stores
        in
        down <> 0 && placed == entries && got = List.rev !want && count = !spent
      | _ -> false)

(* A budget that cuts the placement leaves the service refusing updates;
   the full budget does not. *)
let test_truncated_cannot_update () =
  let config =
    match Service.config_of_string "roundrobin-2" with Ok c -> c | Error e -> failwith e
  in
  let placed budget =
    let service = Service.create ~seed:4 ~n:10 config in
    Service.place ?budget service (Helpers.entries 100);
    Service.can_update service
  in
  Helpers.check_bool "budget 150 of 200" false (placed (Some 150));
  Helpers.check_bool "budget 200 of 200" true (placed (Some 200));
  Helpers.check_bool "no budget" true (placed None)

let () =
  Helpers.run "round_robin"
    [ ( "round_robin",
        [ Alcotest.test_case "placement positions" `Quick test_placement_positions;
          Alcotest.test_case "storage h*y" `Quick test_storage_h_y;
          Alcotest.test_case "balance <= y" `Quick test_balance_within_y;
          Alcotest.test_case "complete coverage" `Quick test_complete_coverage;
          Alcotest.test_case "y clamped" `Quick test_y_clamped_to_n;
          Alcotest.test_case "lookup with y = n" `Quick test_lookup_with_y_equal_n;
          Alcotest.test_case "head/tail" `Quick test_head_tail_after_place;
          Alcotest.test_case "add at tail" `Quick test_add_appends_at_tail;
          Alcotest.test_case "add cost" `Quick test_add_message_cost;
          Alcotest.test_case "delete head" `Quick test_delete_head_no_migration;
          Alcotest.test_case "delete middle" `Quick test_delete_middle_plugs_hole;
          Alcotest.test_case "delete cost" `Quick test_delete_message_cost;
          Alcotest.test_case "migration at engine time" `Quick
            test_migration_span_at_engine_time;
          Alcotest.test_case "delete unknown" `Quick test_delete_unknown_is_ignored;
          Alcotest.test_case "paper fig 10" `Quick test_paper_fig10_scenario;
          Alcotest.test_case "lookup steps" `Quick test_lookup_cost_steps;
          Alcotest.test_case "lookup under failure" `Quick test_lookup_under_failure_randomizes;
          Alcotest.test_case "coordinator defaults" `Quick test_coordinator_defaults;
          Alcotest.test_case "coordinator bounds" `Quick test_coordinator_bounds;
          Alcotest.test_case "failover" `Quick test_failover_accepts_updates;
          Alcotest.test_case "single coordinator drop" `Quick
            test_single_coordinator_loses_updates;
          Alcotest.test_case "replica consistency" `Quick test_replicas_stay_consistent;
          Alcotest.test_case "recovery transfer" `Quick test_recovery_state_transfer;
          Alcotest.test_case "self sync keeps the ledger" `Quick test_self_sync_keeps_ledger;
          Alcotest.test_case "sync cost" `Quick test_sync_message_cost;
          Alcotest.test_case "budget truncation" `Quick test_budget_truncates;
          Alcotest.test_case "budget below h" `Quick test_budget_below_h;
          Alcotest.test_case "truncated refuses updates" `Quick test_truncated_refuses_updates;
          Alcotest.test_case "rejects bad y" `Quick test_rejects_bad_y;
          Alcotest.test_case "truncated cannot update" `Quick test_truncated_cannot_update;
          prop_invariant_under_random_updates;
          prop_live_count_matches_ops;
          prop_window_matches_reference;
          prop_round_major_driver ] ) ]
