open Plookup
open Plookup_store
module Net = Plookup_net.Net

let make ?(seed = 7) ?replacement_on_delete ~n ~h ~x () =
  let cluster = Cluster.create ~seed ~n () in
  let s = Random_server.create ?replacement_on_delete cluster ~x in
  let batch = Helpers.entries h in
  Random_server.place s batch;
  (cluster, s, batch)

let test_each_server_has_x () =
  let cluster, _, batch = make ~n:5 ~h:30 ~x:6 () in
  for server = 0 to 4 do
    Helpers.check_int "x entries" 6 (Server_store.cardinal (Cluster.store cluster server));
    Server_store.iter
      (fun e ->
        if not (List.exists (Entry.equal e) batch) then
          Alcotest.failf "server %d stores unknown entry %s" server (Entry.to_string e))
      (Cluster.store cluster server)
  done

let test_servers_differ () =
  let cluster, _, _ = make ~n:6 ~h:60 ~x:10 () in
  let subsets =
    List.init 6 (fun s -> Helpers.sorted_ids (Server_store.to_list (Cluster.store cluster s)))
  in
  let distinct = List.sort_uniq compare subsets in
  Alcotest.(check bool) "subsets differ across servers" true (List.length distinct > 1)

let test_place_with_small_h () =
  let cluster, _, _ = make ~n:3 ~h:4 ~x:10 () in
  Helpers.check_int "keeps all h when h < x" 4
    (Server_store.cardinal (Cluster.store cluster 0))

let test_system_count_tracks () =
  let _, s, _ = make ~n:3 ~h:10 ~x:4 () in
  Helpers.check_int "after place" 10 (Random_server.system_count s ~server:0);
  Random_server.add s (Entry.v 100);
  Helpers.check_int "after add" 11 (Random_server.system_count s ~server:2);
  Random_server.delete s (Entry.v 100);
  Helpers.check_int "after delete" 10 (Random_server.system_count s ~server:1)

let test_add_below_x_always_stored () =
  let cluster = Cluster.create ~seed:1 ~n:3 () in
  let s = Random_server.create cluster ~x:5 in
  Random_server.place s (Helpers.entries 2);
  Random_server.add s (Entry.v 50);
  for server = 0 to 2 do
    Alcotest.(check bool) "stored while below x" true
      (Server_store.mem (Cluster.store cluster server) (Entry.v 50))
  done

let test_add_at_capacity_keeps_x () =
  let cluster, s, _ = make ~n:4 ~h:20 ~x:5 () in
  for i = 0 to 30 do
    Random_server.add s (Entry.v (100 + i))
  done;
  for server = 0 to 3 do
    Helpers.check_int "still x" 5 (Server_store.cardinal (Cluster.store cluster server))
  done

let test_reservoir_inclusion_rate () =
  (* After placing h entries and adding one more, a server keeps the
     newcomer with probability x/(h+1).  Measure over many seeds. *)
  let n = 1 and h = 19 and x = 5 in
  let kept = ref 0 in
  let trials = 4000 in
  for seed = 1 to trials do
    let cluster, s, _ = make ~seed ~n ~h ~x () in
    Random_server.add s (Entry.v 999);
    if Server_store.mem (Cluster.store cluster 0) (Entry.v 999) then incr kept
  done;
  Helpers.roughly ~rel:0.1 "inclusion ~ x/(h+1)"
    (float_of_int x /. float_of_int (h + 1))
    (float_of_int !kept /. float_of_int trials)

let test_uniform_membership_after_place () =
  (* Any given entry lands in a server's subset with probability x/h. *)
  let n = 1 and h = 20 and x = 5 in
  let hits = ref 0 in
  let trials = 4000 in
  for seed = 1 to trials do
    let cluster, _, _ = make ~seed ~n ~h ~x () in
    if Server_store.mem (Cluster.store cluster 0) (Entry.v 0) then incr hits
  done;
  Helpers.roughly ~rel:0.1 "membership ~ x/h" 0.25
    (float_of_int !hits /. float_of_int trials)

let test_placement_uniform_over_subsets () =
  (* Every one of the C(6,4) subsets is equally likely.  With x > h/2 the
     draw runs over the complement, the branch x <= h/2 never takes. *)
  let cluster, s, batch = make ~n:1 ~h:6 ~x:4 () in
  Helpers.uniform_over_subsets ~what:"RandomServer-4 at h = 6" ~n:6 ~k:4 ~trials:6000
    (fun () ->
      Random_server.place s batch;
      Helpers.sorted_ids (Server_store.to_list (Cluster.store cluster 0)))

let test_delete_leaves_hole () =
  (* Cushion scheme: no replacement is fetched. *)
  let cluster, s, batch = make ~n:1 ~h:10 ~x:10 () in
  Random_server.delete s (List.hd batch);
  Helpers.check_int "hole left" 9 (Server_store.cardinal (Cluster.store cluster 0))

let test_update_broadcasts () =
  let cluster, s, _ = make ~n:4 ~h:10 ~x:3 () in
  Net.reset_counters (Cluster.net cluster);
  Random_server.add s (Entry.v 100);
  Helpers.check_int "add: 1 + n" 5 (Net.messages_received (Cluster.net cluster));
  Net.reset_counters (Cluster.net cluster);
  Random_server.delete s (Entry.v 100);
  Helpers.check_int "delete: 1 + n" 5 (Net.messages_received (Cluster.net cluster))

let test_replacement_on_delete_refills () =
  let cluster, s, batch = make ~replacement_on_delete:true ~n:4 ~h:40 ~x:10 () in
  (* Find an entry stored on server 0 and delete it system-wide. *)
  let victim =
    match Server_store.to_list (Cluster.store cluster 0) with
    | e :: _ -> e
    | [] -> Alcotest.fail "server 0 empty"
  in
  Random_server.delete s victim;
  (* Server 0 should have found a replacement from a peer: back to x. *)
  Helpers.check_int "refilled" 10 (Server_store.cardinal (Cluster.store cluster 0));
  Alcotest.(check bool) "victim gone" false (Server_store.mem (Cluster.store cluster 0) victim);
  ignore batch

(* A client lookup by the discipline RandomServer-x declares. *)
let lookup cluster s t = Probe.lookup cluster (Random_server.Strategy.discipline s) ~t

let test_lookup_merges_servers () =
  let cluster, s, _ = make ~n:5 ~h:50 ~x:10 () in
  let r = lookup cluster s 25 in
  Alcotest.(check bool) "needs several servers" true (r.Lookup_result.servers_contacted >= 2);
  Alcotest.(check bool) "satisfied" true (Lookup_result.satisfied r)

let test_lookup_under_failures () =
  let cluster, s, _ = make ~n:5 ~h:50 ~x:10 () in
  Cluster.fail cluster 0;
  Cluster.fail cluster 1;
  let r = lookup cluster s 10 in
  Alcotest.(check bool) "satisfied with 3 survivors" true (Lookup_result.satisfied r)

let test_rejects_bad_x () =
  let cluster = Cluster.create ~n:2 () in
  Alcotest.check_raises "x = 0"
    (Invalid_argument "Random_server.create: x must be positive") (fun () ->
      ignore (Random_server.create cluster ~x:0))

let prop_occupancy_bounded_under_updates =
  Helpers.qcheck ~count:100 "occupancy stays <= x under random updates"
    QCheck2.Gen.(pair (int_range 1 8) (list (pair bool (int_range 0 40))))
    (fun (x, ops) ->
      let cluster = Cluster.create ~seed:13 ~n:3 () in
      let s = Random_server.create cluster ~x in
      Random_server.place s (Helpers.entries 10);
      List.iter
        (fun (is_add, i) ->
          if is_add then Random_server.add s (Entry.v (50 + i))
          else Random_server.delete s (Entry.v (50 + i)))
        ops;
      List.for_all
        (fun server -> Server_store.cardinal (Cluster.store cluster server) <= x)
        [ 0; 1; 2 ])

(* Placement allocates O(x) words per server, not O(h): each server
   draws its x-subset in one buffer the strategy reuses, never in a
   fresh copy of the batch. *)
let test_place_allocation () =
  let n = 1000 and h = 1000 in
  let cluster = Cluster.create ~seed:3 ~n () in
  let s = Random_server.create cluster ~x:2 in
  let batch = Helpers.entries h in
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  Random_server.place s batch;
  let words = (Gc.allocated_bytes () -. before) /. float_of_int (Sys.word_size / 8) in
  let per_server = words /. float_of_int n in
  if per_server >= 100. then
    Alcotest.failf "RandomServer-2 placement allocated %.0f words per server" per_server

(* {2 Placement matches a fresh copy per receiver}

   Each receiver of a [Store_batch] draws its x-subset from a buffer the
   list is copied into once per broadcast, undoing its swaps for the
   next receiver.  The reference is the handler that copied the list
   afresh for every receiver: on a copy of the cluster RNG taken when
   the [Place] arrives, each delivered copy, in delivery order (n-1
   down to 0 without faults), takes [Rng.subset_in_place] over a fresh
   array of the list and keeps the range it returns.  Every store must
   hold those entries in that slot order, every [system_count] must be
   that list's length, and the cluster RNG must stand where the
   reference's does at every later [Place] and at the end.  The cases cover h = 0, x below, above and beyond
   h/2, the same list placed twice and a different one, the replacing
   variant, a down server and a duplicating fault layer (which delivers
   some copies, and the [Place] itself, twice). *)

type delivery = Place_at of Plookup_util.Rng.t | Batch_to of int

let gen_placements =
  let open QCheck2.Gen in
  let* n = int_range 1 5 in
  let* x = int_range 1 12 in
  let* replacing = bool in
  let* duplication = bool in
  let* down = opt (int_bound (n - 1)) in
  let* seed = int_bound 10_000 in
  let+ placements = list_size (int_range 1 3) (pair bool (int_range 0 12)) in
  (n, x, replacing, duplication, down, seed, placements)

let prop_placement_matches_fresh_copies =
  Helpers.qcheck ~count:300 "placement matches a fresh copy per receiver" gen_placements
    (fun (n, x, replacing, duplication, down, seed, placements) ->
      let module Rng = Plookup_util.Rng in
      let cluster = Cluster.create ~seed ~n () in
      let (module S : Strategy_intf.S with type t = Random_server.t) =
        if replacing then (module Random_server.Strategy_replacing)
        else (module Random_server.Strategy)
      in
      let s = S.create cluster ~params:[ x ] in
      if duplication then Cluster.set_faults cluster ~duplication:0.5 ();
      Option.iter (Cluster.fail cluster) down;
      let log = ref [] in
      Net.wrap_handler (Cluster.net cluster) (fun handler dst src msg ->
          (match msg with
          | Msg.Data (Msg.Place _) -> log := Place_at (Rng.copy (Cluster.rng cluster)) :: !log
          | Msg.Strategy (Msg.Store_batch _) -> log := Batch_to dst :: !log
          | _ -> ());
          handler dst src msg);
      let stores = Array.make n [] and counts = Array.make n 0 in
      let ok = ref true in
      let check b = if not b then ok := false in
      let previous = ref [] in
      List.iteri
        (fun i (same, size) ->
          let entries =
            if same && i > 0 then !previous
            else List.init size (fun j -> Entry.v ((100 * i) + size - 1 - j))
          in
          previous := entries;
          log := [];
          S.place s entries;
          let h = List.length entries in
          let rng = ref None in
          let order = ref [] in
          List.iter
            (function
              | Place_at r -> (
                (* A duplicated [Place] arrives where the reference's
                   draws for the first one ended. *)
                match !rng with
                | None -> rng := Some r
                | Some mine -> check (Rng.bits64 (Rng.copy mine) = Rng.bits64 r))
              | Batch_to dst ->
                order := dst :: !order;
                let arr = Array.of_list entries in
                let k = Int.min x h in
                let lo = Rng.subset_in_place (Option.get !rng) arr ~n:h ~k in
                stores.(dst) <- Array.to_list (Array.sub arr lo k);
                counts.(dst) <- h)
            (List.rev !log);
          if not duplication then begin
            let up = List.filter (Cluster.is_up cluster) (List.init n (fun d -> n - 1 - d)) in
            check (List.rev !order = up)
          end;
          Option.iter
            (fun r -> check (Rng.bits64 r = Rng.bits64 (Rng.copy (Cluster.rng cluster))))
            !rng)
        placements;
      for dst = 0 to n - 1 do
        let store = Cluster.store cluster dst in
        let slots = List.init (Server_store.cardinal store) (Server_store.nth store) in
        check (List.map Entry.id slots = List.map Entry.id stores.(dst));
        check (Random_server.system_count s ~server:dst = counts.(dst))
      done;
      !ok)

let () =
  Helpers.run "random_server"
    [ ( "random_server",
        [ Alcotest.test_case "each server has x" `Quick test_each_server_has_x;
          Alcotest.test_case "servers differ" `Quick test_servers_differ;
          Alcotest.test_case "small h" `Quick test_place_with_small_h;
          Alcotest.test_case "system count" `Quick test_system_count_tracks;
          Alcotest.test_case "add below x" `Quick test_add_below_x_always_stored;
          Alcotest.test_case "capacity keeps x" `Quick test_add_at_capacity_keeps_x;
          Alcotest.test_case "reservoir rate" `Slow test_reservoir_inclusion_rate;
          Alcotest.test_case "uniform membership" `Slow test_uniform_membership_after_place;
          Alcotest.test_case "placement uniform over subsets" `Quick
            test_placement_uniform_over_subsets;
          Alcotest.test_case "cushion hole" `Quick test_delete_leaves_hole;
          Alcotest.test_case "update broadcasts" `Quick test_update_broadcasts;
          Alcotest.test_case "replacement refills" `Quick test_replacement_on_delete_refills;
          Alcotest.test_case "lookup merges" `Quick test_lookup_merges_servers;
          Alcotest.test_case "lookup under failures" `Quick test_lookup_under_failures;
          Alcotest.test_case "rejects bad x" `Quick test_rejects_bad_x;
          Alcotest.test_case "placement allocates O(x) per server" `Quick
            test_place_allocation;
          prop_occupancy_bounded_under_updates;
          prop_placement_matches_fresh_copies ] ) ]
