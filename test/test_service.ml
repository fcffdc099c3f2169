open Plookup
open Plookup_store
module Net = Plookup_net.Net

let test_config_names () =
  List.iter
    (fun (config, expected) -> Helpers.check_string "name" expected (Service.config_name config))
    [ (Service.full_replication, "FullReplication");
      (Service.fixed 20, "Fixed-20");
      (Service.random_server 20, "RandomServer-20");
      (Service.random_server_replacing 5, "RandomServerReplacing-5");
      (Service.round_robin 2, "RoundRobin-2");
      (Service.round_robin_replicated 2 3, "RoundRobinHA-2x3");
      (Service.hash 2, "Hash-2") ]

let test_config_parse_roundtrip () =
  List.iter
    (fun config ->
      match Service.config_of_string (Service.config_name config) with
      | Ok parsed when parsed = config -> ()
      | Ok other ->
        Alcotest.failf "roundtrip changed %s into %s" (Service.config_name config)
          (Service.config_name other)
      | Error msg -> Alcotest.fail msg)
    [ Service.full_replication;
      Service.fixed 20;
      Service.random_server 7;
      Service.random_server_replacing 7;
      Service.round_robin 3;
      Service.round_robin_replicated 2 2;
      Service.hash 1 ]

let test_config_parse_aliases () =
  List.iter
    (fun (s, expected) ->
      match Service.config_of_string s with
      | Ok parsed when parsed = expected -> ()
      | Ok _ | Error _ -> Alcotest.failf "failed to parse %S" s)
    [ ("full", Service.full_replication);
      ("FULL", Service.full_replication);
      ("replication", Service.full_replication);
      ("fixed-20", Service.fixed 20);
      ("random-9", Service.random_server 9);
      ("randomserver-9", Service.random_server 9);
      ("round-2", Service.round_robin 2);
      ("round_robin-2", Service.round_robin 2);
      ("roundrobinha-2x3", Service.round_robin_replicated 2 3);
      ("RoundRobinHA-1x2", Service.round_robin_replicated 1 2);
      ("roundha-2x2", Service.round_robin_replicated 2 2);
      ("hash-4", Service.hash 4) ]

let test_config_parse_rejects () =
  List.iter
    (fun s ->
      match Service.config_of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "should have rejected %S" s)
    [ ""; "nope"; "fixed"; "fixed-0"; "fixed--3"; "hash-x"; "roundrobinha-2";
      "roundrobinha-0x2"; "roundrobinha-2x0"; "roundrobinha-axb" ]

let test_param () =
  Alcotest.(check (option int)) "full" None (Service.param Service.full_replication);
  Alcotest.(check (option int)) "fixed" (Some 20) (Service.param (Service.fixed 20));
  Alcotest.(check (option int)) "hash" (Some 2) (Service.param (Service.hash 2))

let test_storage_for_budget () =
  let n = 10 and h = 100 and total = 200 in
  Alcotest.(check bool) "fixed x=20" true
    (Service.storage_for_budget (Service.fixed 1) ~n ~h ~total = Service.fixed 20);
  Alcotest.(check bool) "random x=20" true
    (Service.storage_for_budget (Service.random_server 1) ~n ~h ~total
    = Service.random_server 20);
  Alcotest.(check bool) "round y=2" true
    (Service.storage_for_budget (Service.round_robin 1) ~n ~h ~total = Service.round_robin 2);
  Alcotest.(check bool) "hash y=2" true
    (Service.storage_for_budget (Service.hash 1) ~n ~h ~total = Service.hash 2);
  (* Tiny budgets floor at parameter 1. *)
  Alcotest.(check bool) "floors at 1" true
    (Service.storage_for_budget (Service.fixed 1) ~n ~h ~total:5 = Service.fixed 1)

let test_all_configs () =
  let configs = Service.all_configs ~budget:200 ~n:10 ~h:100 () in
  Helpers.check_int "eight strategies" 8 (List.length configs);
  Alcotest.(check bool) "starts with full replication" true
    (List.hd configs = Service.full_replication);
  Alcotest.(check bool) "self-registered Chord is enumerated" true
    (List.mem (Service.v ~kind:"Chord" ~params:[ 2 ]) configs);
  Alcotest.(check bool) "self-registered DxHash is enumerated" true
    (List.mem (Service.v ~kind:"DxHash" ~params:[ 2 ]) configs);
  Alcotest.(check bool) "self-registered MultiProbe is enumerated" true
    (List.mem (Service.v ~kind:"MultiProbe" ~params:[ 2; 2 ]) configs);
  let with_ablations = Service.all_configs ~ablations:true ~budget:200 ~n:10 ~h:100 () in
  Helpers.check_int "ablations add two variants" 10 (List.length with_ablations)

let all_strategies =
  [ Service.full_replication;
    Service.fixed 8;
    Service.random_server 8;
    Service.random_server_replacing 8;
    Service.round_robin 2;
    Service.round_robin_replicated 2 2;
    Service.hash 2 ]

let test_place_lookup_every_strategy () =
  List.iter
    (fun config ->
      let service, _ = Helpers.placed_service ~n:5 ~h:20 config in
      let r = Service.partial_lookup service 5 in
      if not (Lookup_result.satisfied r) then
        Alcotest.failf "%s could not satisfy t=5" (Service.config_name config);
      Helpers.check_int
        (Printf.sprintf "%s returns 5" (Service.config_name config))
        5 (Lookup_result.count r))
    all_strategies

let test_add_delete_every_strategy () =
  List.iter
    (fun config ->
      let service, batch = Helpers.placed_service ~n:5 ~h:20 config in
      Service.add service (Entry.v 100);
      Service.delete service (List.hd batch);
      (* The service still works afterwards. *)
      let r = Service.partial_lookup service 3 in
      if not (Lookup_result.satisfied r) then
        Alcotest.failf "%s broken after updates" (Service.config_name config))
    all_strategies

let test_deterministic_given_seed () =
  let run () =
    let service, _ = Helpers.placed_service ~seed:99 ~n:6 ~h:30 (Service.random_server 6) in
    let r = Service.partial_lookup service 12 in
    (Helpers.sorted_ids r.Lookup_result.entries, r.Lookup_result.servers_contacted)
  in
  Alcotest.(check bool) "identical replays" true (run () = run ())

let test_lookup_pref_returns_cheapest () =
  let service, batch = Helpers.placed_service ~n:4 ~h:12 Service.full_replication in
  (* Cost = id: the t cheapest entries are ids 0..t-1. *)
  let cost e = float_of_int (Entry.id e) in
  let r = Service.partial_lookup_pref service ~cost 4 in
  Alcotest.(check (list int)) "four cheapest" [ 0; 1; 2; 3 ]
    (Helpers.sorted_ids r.Lookup_result.entries);
  ignore batch

let test_lookup_pref_spans_servers () =
  (* Round-robin: the cheapest entries may live on specific servers; the
     preference lookup must find them anyway. *)
  let service, _ = Helpers.placed_service ~n:4 ~h:12 (Service.round_robin 1) in
  let cost e = float_of_int (Entry.id e) in
  let r = Service.partial_lookup_pref service ~cost 3 in
  Alcotest.(check (list int)) "three cheapest" [ 0; 1; 2 ]
    (Helpers.sorted_ids r.Lookup_result.entries)

let test_reachability_restriction () =
  let service, _ = Helpers.placed_service ~n:4 ~h:12 (Service.round_robin 1) in
  (* Only servers 0 and 1 reachable: entries on 2 and 3 unreachable. *)
  let reachable s = s < 2 in
  let r = Service.partial_lookup ~reachable service 12 in
  Alcotest.(check bool) "cannot reach everything" false (Lookup_result.satisfied r);
  List.iter
    (fun e ->
      let home = Entry.id e mod 4 in
      if home >= 2 then Alcotest.failf "entry %d from unreachable server" (Entry.id e))
    r.Lookup_result.entries

let test_of_cluster_rebinds () =
  let cluster = Cluster.create ~seed:1 ~n:4 () in
  let service = Service.of_cluster cluster (Service.fixed 5) in
  Service.place service (Helpers.entries 10);
  Helpers.check_int "placed through existing cluster" 20 (Cluster.total_stored cluster)

let prop_every_strategy_satisfies_within_coverage =
  Helpers.qcheck ~count:60 "any t within coverage is satisfied (no failures)"
    QCheck2.Gen.(pair (int_range 0 6) (int_range 1 15))
    (fun (strategy_index, t) ->
      let config = List.nth all_strategies strategy_index in
      let service, _ = Helpers.placed_service ~n:5 ~h:20 config in
      let coverage = Plookup_metrics.Coverage.measured (Service.cluster service) in
      let r = Service.partial_lookup service t in
      if t <= coverage then Lookup_result.satisfied r else true)

(* {2 Allocation regressions at n = 10k}

   A lookup that reaches ~18 of 10k servers must allocate in proportion
   to those contacts, and a broadcast update must not collect a reply
   list: either O(n) cost would come back as 10k+ words per call.  The
   measured values hold in the dev and the release profile alike.  Each
   bound has at least 2x headroom over the measured value. *)

let minor_words f =
  let before = Gc.minor_words () in
  let r = f () in
  (r, Gc.minor_words () -. before)

let test_lookup_allocates_o_contacts () =
  (* Measured: 26.5 words per contact (the server's answer list, the
     merge table, the cursor and its swap table).  A bare n-element
     order alone would add 10k / 18 > 550. *)
  let n = 10_000 in
  let service, _ = Helpers.placed_service ~n ~h:n (Service.hash 2) in
  let words = ref 0. and contacts = ref 0 in
  for _ = 1 to 50 do
    let r, w = minor_words (fun () -> Service.partial_lookup service 35) in
    words := !words +. w;
    contacts := !contacts + r.Lookup_result.servers_contacted
  done;
  let per_contact = !words /. float_of_int !contacts in
  if per_contact > 60. then
    Alcotest.failf "%.0f minor words per contacted server (bound 60)" per_contact

let test_broadcast_update_allocates_no_list () =
  (* The receivers' own work (reservoir draws) is O(n) by design, so it
     is measured apart: the wrapper sums the words allocated inside
     handler calls nested in another handler — the broadcast's
     deliveries — in a flat float array, which itself allocates
     nothing.  What remains is routing and the broadcast loop: measured
     0.0016 words per delivery, 32 words for the two client requests,
     the two messages the receiving server broadcasts and the options
     around them, over 20,002 deliveries.  A reply option per copy
     would add 2, a reply list 6. *)
  let n = 10_000 in
  let service, batch = Helpers.placed_service ~n ~h:100 (Service.random_server 2) in
  let net = Cluster.net (Service.cluster service) in
  let depth = ref 0 and delivered = [| 0. |] in
  Net.wrap_handler net (fun handler dst src msg ->
      incr depth;
      let before = Gc.minor_words () in
      let reply = handler dst src msg in
      if !depth > 1 then delivered.(0) <- delivered.(0) +. (Gc.minor_words () -. before);
      decr depth;
      reply);
  let victim = List.hd batch in
  Net.reset_counters net;
  let (), words =
    minor_words (fun () ->
        Service.delete service victim;
        Service.add service victim)
  in
  let per_delivery = (words -. delivered.(0)) /. float_of_int (Net.messages_received net) in
  if per_delivery > 0.5 then
    Alcotest.failf "%.3f minor words per delivery outside the handlers (bound 0.5)"
      per_delivery

let test_random_server_update_allocates_nothing () =
  (* Handlers included: a reservoir step draws against x/h without
     boxing it, so a copy allocates nothing.  Measured: 32 words for the
     20,002 deliveries (0.0016 per delivery), the routing the test above
     counts; the few stores that drop or take the entry allocate
     nothing.  h = n is the scale the broadcast runs at; the next test
     takes h = 100.  A boxed probability would add 1 per delivery. *)
  let n = 10_000 in
  let service, batch = Helpers.placed_service ~n ~h:n (Service.random_server 2) in
  let net = Cluster.net (Service.cluster service) in
  let victim = List.hd batch in
  Net.reset_counters net;
  let (), words =
    minor_words (fun () ->
        Service.delete service victim;
        Service.add service victim)
  in
  let per_delivery = words /. float_of_int (Net.messages_received net) in
  if per_delivery > 0.1 then
    Alcotest.failf "%.3f minor words per delivery (bound 0.1)" per_delivery

let test_random_server_sparse_update () =
  (* h = 100: about 2% of the 10,000 servers hold or take the entry, so
     the delete+add changes some 400 stores, whose id tables allocate
     nothing once they exist.  Measured: 32 words for the 20,002
     deliveries, the routing the test above counts.  A Hashtbl cell per
     new id and an option per removal cost 2,874. *)
  let n = 10_000 in
  let service, batch = Helpers.placed_service ~n ~h:100 (Service.random_server 2) in
  let victim = List.hd batch in
  let (), words =
    minor_words (fun () ->
        Service.delete service victim;
        Service.add service victim)
  in
  if words > 64. then Alcotest.failf "%.0f minor words (bound 64)" words

(* {2 Footprint}

   A server costs what it stores.  At n = h = 1,000 a server holds
   about 2 entries (RandomServer-2's exactly 2).  A 2-entry store is 17
   words (5 of record, a 4-cell id table and 2 slots); with its cell of
   the cluster's store array, its word of the per-server message
   counters and of the liveness arrays and, on a ring, its packed ring
   point, a server comes to 22.6-24.2 live words for the owner-function
   strategies and RandomServer-2, and 31.2 for RoundRobin-2, whose
   coordinator ledger adds about 9 words per entry.
   The entries themselves are allocated before the first reading.  A
   labelled counter cell per server (19 words) and an 8-cell table and
   8 slots per store would read 52.7-65.2, past every bound. *)

let live_words () =
  Gc.compact ();
  (Gc.stat ()).Gc.live_words

let test_live_words_per_server () =
  let n = 1_000 in
  List.iter
    (fun (spelling, bound) ->
      let config =
        match Service.config_of_string spelling with Ok c -> c | Error e -> Alcotest.fail e
      in
      let batch = Helpers.entries n in
      let before = live_words () in
      let service = Service.create ~seed:7 ~n config in
      Service.place service batch;
      let per_server = float_of_int (live_words () - before) /. float_of_int n in
      (* Both stay live through the reading. *)
      Helpers.check_bool "placed" true
        (Cluster.total_stored (Service.cluster service) > 0 && List.length batch = n);
      if per_server > bound then
        Alcotest.failf "%s: %.2f live words per server (bound %.0f)"
          (Service.config_name config) per_server bound)
    [ ("hash-2", 28.);
      ("chord-2", 28.);
      ("dxhash-2", 28.);
      ("multiprobe-2x2", 28.);
      ("randomserver-2", 28.);
      ("roundrobin-2", 36.) ]

let () =
  Helpers.run "service"
    [ ( "service",
        [ Alcotest.test_case "config names" `Quick test_config_names;
          Alcotest.test_case "parse roundtrip" `Quick test_config_parse_roundtrip;
          Alcotest.test_case "parse aliases" `Quick test_config_parse_aliases;
          Alcotest.test_case "parse rejects" `Quick test_config_parse_rejects;
          Alcotest.test_case "param" `Quick test_param;
          Alcotest.test_case "storage_for_budget" `Quick test_storage_for_budget;
          Alcotest.test_case "all_configs" `Quick test_all_configs;
          Alcotest.test_case "place+lookup all strategies" `Quick
            test_place_lookup_every_strategy;
          Alcotest.test_case "updates all strategies" `Quick test_add_delete_every_strategy;
          Alcotest.test_case "deterministic" `Quick test_deterministic_given_seed;
          Alcotest.test_case "pref cheapest" `Quick test_lookup_pref_returns_cheapest;
          Alcotest.test_case "pref spans servers" `Quick test_lookup_pref_spans_servers;
          Alcotest.test_case "reachability" `Quick test_reachability_restriction;
          Alcotest.test_case "of_cluster" `Quick test_of_cluster_rebinds;
          prop_every_strategy_satisfies_within_coverage ] );
      ( "alloc",
        [ Alcotest.test_case "lookup is O(contacts)" `Quick test_lookup_allocates_o_contacts;
          Alcotest.test_case "broadcast builds no list" `Quick
            test_broadcast_update_allocates_no_list;
          Alcotest.test_case "RandomServer update allocates nothing" `Quick
            test_random_server_update_allocates_nothing;
          Alcotest.test_case "RandomServer sparse update" `Quick
            test_random_server_sparse_update ] );
      (* No group name longer than "service": a wider name column makes
         Alcotest cut the longest test name shorter in its report. *)
      ( "memory",
        [ Alcotest.test_case "live words per server" `Quick test_live_words_per_server ] ) ]
