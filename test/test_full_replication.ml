open Plookup
open Plookup_store
module Net = Plookup_net.Net

let make ?(seed = 3) ~n ~h () =
  let cluster = Cluster.create ~seed ~n () in
  let s = Full_replication.create cluster in
  let batch = Helpers.entries h in
  Full_replication.place s batch;
  (cluster, s, batch)

(* A client lookup by the discipline FullReplication declares. *)
let lookup cluster s t = Probe.lookup cluster (Full_replication.Strategy.discipline s) ~t

let test_every_server_has_everything () =
  let cluster, _, batch = make ~n:4 ~h:10 () in
  for server = 0 to 3 do
    Helpers.check_int
      (Printf.sprintf "server %d full" server)
      10
      (Server_store.cardinal (Cluster.store cluster server));
    List.iter
      (fun e ->
        Alcotest.(check bool) "has entry" true (Server_store.mem (Cluster.store cluster server) e))
      batch
  done

let test_storage_cost () =
  let cluster, _, _ = make ~n:4 ~h:10 () in
  Helpers.check_int "h*n" 40 (Cluster.total_stored cluster)

let test_place_message_cost () =
  (* place = 1 client request + n broadcast deliveries. *)
  let cluster = Cluster.create ~seed:1 ~n:5 () in
  let s = Full_replication.create cluster in
  Full_replication.place s (Helpers.entries 3);
  Helpers.check_int "1 + n messages" 6 (Net.messages_received (Cluster.net cluster))

let test_lookup_always_one_server () =
  let cluster, s, _ = make ~n:4 ~h:10 () in
  for t = 1 to 10 do
    let r = lookup cluster s t in
    Helpers.check_int "cost 1" 1 r.Lookup_result.servers_contacted;
    Helpers.check_int "t entries" t (Lookup_result.count r)
  done

let test_add_reaches_all () =
  let cluster, s, _ = make ~n:3 ~h:2 () in
  Full_replication.add s (Entry.v 99);
  for server = 0 to 2 do
    Alcotest.(check bool) "added everywhere" true
      (Server_store.mem (Cluster.store cluster server) (Entry.v 99))
  done

let test_add_message_cost () =
  let cluster, s, _ = make ~n:3 ~h:2 () in
  Net.reset_counters (Cluster.net cluster);
  Full_replication.add s (Entry.v 50);
  Helpers.check_int "1 + n per add" 4 (Net.messages_received (Cluster.net cluster));
  Net.reset_counters (Cluster.net cluster);
  Full_replication.delete s (Entry.v 50);
  Helpers.check_int "1 + n per delete" 4 (Net.messages_received (Cluster.net cluster))

let test_delete_removes_everywhere () =
  let cluster, s, batch = make ~n:3 ~h:5 () in
  let victim = List.hd batch in
  Full_replication.delete s victim;
  for server = 0 to 2 do
    Alcotest.(check bool) "gone" false (Server_store.mem (Cluster.store cluster server) victim);
    Helpers.check_int "rest intact" 4 (Server_store.cardinal (Cluster.store cluster server))
  done

let test_survives_n_minus_1_failures () =
  let cluster, s, _ = make ~n:5 ~h:8 () in
  List.iter (Cluster.fail cluster) [ 0; 1; 2; 3 ];
  let r = lookup cluster s 8 in
  Alcotest.(check bool) "still satisfied" true (Lookup_result.satisfied r);
  Helpers.check_int "one survivor answers" 1 r.Lookup_result.servers_contacted

let test_lookup_skips_failed_servers () =
  let cluster, s, _ = make ~n:3 ~h:4 () in
  Cluster.fail cluster 0;
  Cluster.fail cluster 2;
  Net.reset_counters (Cluster.net cluster);
  for _ = 1 to 10 do
    ignore (lookup cluster s 2)
  done;
  Helpers.check_int "only server 1 contacted" 10 (Net.messages_received_by (Cluster.net cluster) 1);
  Helpers.check_int "no drops" 0 (Net.messages_dropped (Cluster.net cluster))

let test_place_replaces () =
  let cluster, s, _ = make ~n:2 ~h:3 () in
  let fresh = [ Entry.v 100; Entry.v 101 ] in
  Full_replication.place s fresh;
  Helpers.check_int "replaced" 2 (Server_store.cardinal (Cluster.store cluster 0));
  Alcotest.(check bool) "old gone" false (Server_store.mem (Cluster.store cluster 0) (Entry.v 0))

let test_place_dedups () =
  let cluster = Cluster.create ~seed:1 ~n:2 () in
  let s = Full_replication.create cluster in
  Full_replication.place s [ Entry.v 1; Entry.v 1; Entry.v 2 ];
  Helpers.check_int "dedup" 2 (Server_store.cardinal (Cluster.store cluster 0))

let prop_lookup_returns_placed_entries =
  Helpers.qcheck "lookups only return placed entries"
    QCheck2.Gen.(pair (int_range 1 20) (int_range 1 8))
    (fun (h, t) ->
      let cluster, s, batch = make ~n:3 ~h () in
      let r = lookup cluster s (min t h) in
      List.for_all (fun e -> List.exists (Entry.equal e) batch) r.Lookup_result.entries)

let () =
  Helpers.run "full_replication"
    [ ( "full_replication",
        [ Alcotest.test_case "replicates everywhere" `Quick test_every_server_has_everything;
          Alcotest.test_case "storage h*n" `Quick test_storage_cost;
          Alcotest.test_case "place cost" `Quick test_place_message_cost;
          Alcotest.test_case "lookup cost 1" `Quick test_lookup_always_one_server;
          Alcotest.test_case "add everywhere" `Quick test_add_reaches_all;
          Alcotest.test_case "update cost 1+n" `Quick test_add_message_cost;
          Alcotest.test_case "delete everywhere" `Quick test_delete_removes_everywhere;
          Alcotest.test_case "n-1 fault tolerance" `Quick test_survives_n_minus_1_failures;
          Alcotest.test_case "skips failed" `Quick test_lookup_skips_failed_servers;
          Alcotest.test_case "place replaces" `Quick test_place_replaces;
          Alcotest.test_case "place dedups" `Quick test_place_dedups;
          prop_lookup_returns_placed_entries ] ) ]
