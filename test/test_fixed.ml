open Plookup
open Plookup_store
module Net = Plookup_net.Net

let make ?(seed = 5) ~n ~h ~x () =
  let cluster = Cluster.create ~seed ~n () in
  let s = Fixed.create cluster ~x in
  let batch = Helpers.entries h in
  Fixed.place s batch;
  (cluster, s, batch)

(* A client lookup by the discipline Fixed-x declares. *)
let lookup cluster s t = Probe.lookup cluster (Fixed.Strategy.discipline s) ~t

let test_keeps_first_x () =
  let cluster, _, _ = make ~n:3 ~h:10 ~x:4 () in
  for server = 0 to 2 do
    Alcotest.(check (list int)) "first x entries" [ 0; 1; 2; 3 ]
      (Helpers.sorted_ids (Server_store.to_list (Cluster.store cluster server)))
  done

let test_all_servers_identical () =
  let cluster, _, _ = make ~n:5 ~h:20 ~x:7 () in
  let reference = Helpers.sorted_ids (Server_store.to_list (Cluster.store cluster 0)) in
  for server = 1 to 4 do
    Alcotest.(check (list int)) "identical" reference
      (Helpers.sorted_ids (Server_store.to_list (Cluster.store cluster server)))
  done

let test_storage_x_n () =
  let cluster, _, _ = make ~n:5 ~h:20 ~x:7 () in
  Helpers.check_int "x*n" 35 (Cluster.total_stored cluster)

let test_small_h_keeps_all () =
  let cluster, _, _ = make ~n:2 ~h:3 ~x:10 () in
  Helpers.check_int "only h entries exist" 3
    (Server_store.cardinal (Cluster.store cluster 0))

let test_lookup_cost_one_when_t_le_x () =
  let cluster, s, _ = make ~n:4 ~h:20 ~x:8 () in
  for t = 1 to 8 do
    let r = lookup cluster s t in
    Helpers.check_int "one server" 1 r.Lookup_result.servers_contacted;
    Alcotest.(check bool) "satisfied" true (Lookup_result.satisfied r)
  done

let test_lookup_beyond_x_unsatisfied () =
  let cluster, s, _ = make ~n:4 ~h:20 ~x:8 () in
  let r = lookup cluster s 9 in
  Alcotest.(check bool) "cannot satisfy t > x" false (Lookup_result.satisfied r);
  Helpers.check_int "returns the x it has" 8 (Lookup_result.count r)

let test_selective_broadcast_add () =
  (* While full (x entries), adds are absorbed at the contacted server. *)
  let cluster, s, _ = make ~n:4 ~h:10 ~x:5 () in
  Net.reset_counters (Cluster.net cluster);
  Fixed.add s (Entry.v 100);
  Helpers.check_int "full: 1 message only" 1 (Net.messages_received (Cluster.net cluster));
  Helpers.check_int "nothing stored" 5 (Server_store.cardinal (Cluster.store cluster 0))

let test_broadcast_when_below_x () =
  let cluster, s, batch = make ~n:4 ~h:10 ~x:5 () in
  (* Delete one tracked entry -> servers drop to 4 -> next add broadcasts. *)
  Fixed.delete s (List.hd batch);
  Helpers.check_int "hole" 4 (Server_store.cardinal (Cluster.store cluster 0));
  Net.reset_counters (Cluster.net cluster);
  Fixed.add s (Entry.v 100);
  Helpers.check_int "1 + n messages" 5 (Net.messages_received (Cluster.net cluster));
  for server = 0 to 3 do
    Alcotest.(check bool) "refilled everywhere" true
      (Server_store.mem (Cluster.store cluster server) (Entry.v 100))
  done

let test_delete_untracked_is_cheap () =
  let cluster, s, _ = make ~n:4 ~h:10 ~x:5 () in
  Net.reset_counters (Cluster.net cluster);
  Fixed.delete s (Entry.v 9) (* beyond the first x: not tracked *);
  Helpers.check_int "1 message only" 1 (Net.messages_received (Cluster.net cluster));
  Helpers.check_int "stores unchanged" 5 (Server_store.cardinal (Cluster.store cluster 0))

let test_delete_tracked_broadcasts () =
  let cluster, s, batch = make ~n:4 ~h:10 ~x:5 () in
  Net.reset_counters (Cluster.net cluster);
  Fixed.delete s (List.hd batch);
  Helpers.check_int "1 + n messages" 5 (Net.messages_received (Cluster.net cluster))

let test_cushion_semantics () =
  (* x = t + b: after b deletes of tracked entries with no adds, lookups
     for t still succeed; after one more they fail. *)
  let t = 3 and b = 2 in
  let cluster, s, batch = make ~n:3 ~h:10 ~x:(t + b) () in
  let tracked = List.filteri (fun i _ -> i < t + b) batch in
  List.iteri (fun i e -> if i < b then Fixed.delete s e) tracked;
  Alcotest.(check bool) "cushion holds" true
    (Lookup_result.satisfied (lookup cluster s t));
  Fixed.delete s (List.nth tracked b);
  Alcotest.(check bool) "cushion exhausted" false
    (Lookup_result.satisfied (lookup cluster s t))

let test_refill_after_delete_then_add () =
  let cluster, s, batch = make ~n:3 ~h:10 ~x:4 () in
  Fixed.delete s (List.hd batch);
  Fixed.add s (Entry.v 200);
  let r = lookup cluster s 4 in
  Alcotest.(check bool) "back to x" true (Lookup_result.satisfied r)

let test_rejects_bad_x () =
  let cluster = Cluster.create ~n:2 () in
  Alcotest.check_raises "x = 0" (Invalid_argument "Fixed.create: x must be positive")
    (fun () -> ignore (Fixed.create cluster ~x:0))

let test_fault_tolerance_n_minus_1 () =
  let cluster, s, _ = make ~n:5 ~h:10 ~x:4 () in
  List.iter (Cluster.fail cluster) [ 1; 2; 3; 4 ];
  Alcotest.(check bool) "one survivor suffices" true
    (Lookup_result.satisfied (lookup cluster s 4))

let prop_add_never_exceeds_x =
  Helpers.qcheck "server occupancy never exceeds x"
    QCheck2.Gen.(pair (int_range 1 10) (list (int_range 0 30)))
    (fun (x, ids) ->
      let cluster = Cluster.create ~seed:9 ~n:3 () in
      let s = Fixed.create cluster ~x in
      Fixed.place s (Helpers.entries 5);
      List.iter (fun i -> Fixed.add s (Entry.v (100 + i))) ids;
      List.for_all
        (fun server -> Server_store.cardinal (Cluster.store cluster server) <= x)
        [ 0; 1; 2 ])

let () =
  Helpers.run "fixed"
    [ ( "fixed",
        [ Alcotest.test_case "keeps first x" `Quick test_keeps_first_x;
          Alcotest.test_case "servers identical" `Quick test_all_servers_identical;
          Alcotest.test_case "storage x*n" `Quick test_storage_x_n;
          Alcotest.test_case "small h" `Quick test_small_h_keeps_all;
          Alcotest.test_case "lookup cost 1" `Quick test_lookup_cost_one_when_t_le_x;
          Alcotest.test_case "t > x unsatisfied" `Quick test_lookup_beyond_x_unsatisfied;
          Alcotest.test_case "selective broadcast" `Quick test_selective_broadcast_add;
          Alcotest.test_case "broadcast below x" `Quick test_broadcast_when_below_x;
          Alcotest.test_case "cheap untracked delete" `Quick test_delete_untracked_is_cheap;
          Alcotest.test_case "tracked delete broadcasts" `Quick test_delete_tracked_broadcasts;
          Alcotest.test_case "cushion semantics" `Quick test_cushion_semantics;
          Alcotest.test_case "refill" `Quick test_refill_after_delete_then_add;
          Alcotest.test_case "rejects bad x" `Quick test_rejects_bad_x;
          Alcotest.test_case "n-1 tolerance" `Quick test_fault_tolerance_n_minus_1;
          prop_add_never_exceeds_x ] ) ]
