open Plookup
open Plookup_store

let make ?(default = Service.round_robin 2) () =
  Directory.create ~seed:5 ~n:4 ~default ()

let test_empty () =
  let d = make () in
  Helpers.check_int "no keys" 0 (Directory.key_count d);
  Alcotest.(check (list string)) "keys" [] (Directory.keys d);
  let r = Directory.partial_lookup d ~key:"missing" 3 in
  Helpers.check_int "unknown key empty" 0 (Lookup_result.count r)

let test_place_creates_key () =
  let d = make () in
  Directory.place d ~key:"song" (Helpers.entries 8);
  Alcotest.(check bool) "mem" true (Directory.mem d "song");
  Alcotest.(check (option string)) "default config" (Some "RoundRobin-2")
    (Option.map Service.config_name (Directory.config_of d "song"));
  let r = Directory.partial_lookup d ~key:"song" 3 in
  Alcotest.(check bool) "satisfied" true (Lookup_result.satisfied r)

let test_per_key_config () =
  let d = make () in
  Directory.declare ~config:(Service.fixed 3) d "hot";
  Directory.place d ~key:"hot" (Helpers.entries 10);
  Directory.place d ~key:"cold" (Helpers.entries 10);
  Alcotest.(check (option string)) "hot is fixed" (Some "Fixed-3")
    (Option.map Service.config_name (Directory.config_of d "hot"));
  Alcotest.(check (option string)) "cold uses default" (Some "RoundRobin-2")
    (Option.map Service.config_name (Directory.config_of d "cold"))

let test_redeclare_rejected () =
  let d = make () in
  Directory.declare d "k";
  Alcotest.check_raises "redeclare"
    (Invalid_argument "Directory.declare: key \"k\" already exists") (fun () ->
      Directory.declare d "k")

let test_keys_sorted () =
  let d = make () in
  List.iter (fun k -> Directory.place d ~key:k (Helpers.entries 2)) [ "b"; "a"; "c" ];
  Alcotest.(check (list string)) "sorted" [ "a"; "b"; "c" ] (Directory.keys d)

let test_keys_independent () =
  let d = make () in
  Directory.place d ~key:"x" (Helpers.entries 5);
  Directory.place d ~key:"y" (Helpers.entries 5);
  Directory.delete d ~key:"x" (Entry.v 0);
  let rx = Directory.partial_lookup d ~key:"x" 5 in
  let ry = Directory.partial_lookup d ~key:"y" 5 in
  Alcotest.(check bool) "x lost an entry" false (Lookup_result.satisfied rx);
  Alcotest.(check bool) "y unaffected" true (Lookup_result.satisfied ry)

let test_add_to_fresh_key () =
  let d = make () in
  Directory.add d ~key:"new" (Entry.v 7);
  let r = Directory.partial_lookup d ~key:"new" 1 in
  Alcotest.(check (list int)) "finds the added entry" [ 7 ]
    (Helpers.sorted_ids r.Lookup_result.entries)

let test_total_storage () =
  let d = make ~default:Service.full_replication () in
  Directory.place d ~key:"a" (Helpers.entries 3);
  Directory.place d ~key:"b" (Helpers.entries 2);
  (* Full replication on 4 servers: 3*4 + 2*4. *)
  Helpers.check_int "sum over keys" 20 (Directory.total_storage d)

let test_pref_lookup () =
  let d = make ~default:Service.full_replication () in
  Directory.place d ~key:"svc" (Helpers.entries 6);
  let r =
    Directory.partial_lookup_pref d ~key:"svc"
      ~cost:(fun e -> -.float_of_int (Entry.id e))
      2
  in
  Alcotest.(check (list int)) "two most expensive ids (negated cost)" [ 4; 5 ]
    (Helpers.sorted_ids r.Lookup_result.entries)

let test_non_positive_target_rejected () =
  (* Rejected for an unknown key too, before its empty-result shortcut. *)
  let d = make ~default:Service.full_replication () in
  Directory.place d ~key:"svc" (Helpers.entries 6);
  List.iter
    (fun key ->
      Alcotest.check_raises (key ^ " lookup 0")
        (Invalid_argument "Directory.partial_lookup: t must be positive") (fun () ->
          ignore (Directory.partial_lookup d ~key 0));
      Alcotest.check_raises (key ^ " pref lookup -3")
        (Invalid_argument "Directory.partial_lookup_pref: t must be positive") (fun () ->
          ignore (Directory.partial_lookup_pref d ~key ~cost:(fun _ -> 0.) (-3))))
    [ "svc"; "unknown" ];
  Alcotest.(check bool) "no key created" false (Directory.mem d "unknown")

let test_deterministic () =
  let run () =
    let d = make ~default:(Service.random_server 3) () in
    Directory.place d ~key:"k" (Helpers.entries 12);
    Helpers.sorted_ids (Directory.partial_lookup d ~key:"k" 6).Lookup_result.entries
  in
  Alcotest.(check (list int)) "same seed same answers" (run ()) (run ())

let test_long_keys_get_distinct_streams () =
  (* Regression: the per-key seed must digest the whole key.  A bounded
     or truncating key hash collapses long keys that share a prefix onto
     one RNG stream, making their "random" placements identical. *)
  let prefix = String.make 300 'p' in
  let key i = prefix ^ string_of_int i in
  let d = make ~default:(Service.random_server 2) () in
  let answers =
    List.init 8 (fun i ->
        let k = key i in
        (* Disjoint id ranges per key, so answers are comparable only
           through which slots the per-key rng picked. *)
        Directory.place d ~key:k (List.init 12 (fun j -> Entry.v ((1000 * i) + j)));
        List.sort compare
          (List.map
             (fun e -> Entry.id e mod 1000)
             (Directory.partial_lookup d ~key:k 4).Lookup_result.entries))
  in
  let distinct = List.sort_uniq compare answers in
  Alcotest.(check bool)
    "long shared-prefix keys draw from distinct rng streams" true
    (List.length distinct > 1)

let prop_lookup_only_returns_placed =
  Helpers.qcheck ~count:50 "directory lookups return only that key's entries"
    QCheck2.Gen.(pair (int_range 1 10) (int_range 1 10))
    (fun (ha, hb) ->
      let d = make ~default:(Service.hash 2) () in
      let ea = Helpers.entries ha in
      (* Key b entries use a disjoint id range. *)
      let eb = List.init hb (fun i -> Entry.v (1000 + i)) in
      Directory.place d ~key:"a" ea;
      Directory.place d ~key:"b" eb;
      let r = Directory.partial_lookup d ~key:"a" ha in
      List.for_all (fun e -> Entry.id e < 1000) r.Lookup_result.entries)

let () =
  Helpers.run "directory"
    [ ( "directory",
        [ Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "place creates key" `Quick test_place_creates_key;
          Alcotest.test_case "per-key config" `Quick test_per_key_config;
          Alcotest.test_case "redeclare rejected" `Quick test_redeclare_rejected;
          Alcotest.test_case "keys sorted" `Quick test_keys_sorted;
          Alcotest.test_case "keys independent" `Quick test_keys_independent;
          Alcotest.test_case "add to fresh key" `Quick test_add_to_fresh_key;
          Alcotest.test_case "total storage" `Quick test_total_storage;
          Alcotest.test_case "pref lookup" `Quick test_pref_lookup;
          Alcotest.test_case "non-positive target rejected" `Quick
            test_non_positive_target_rejected;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "long keys distinct" `Quick
            test_long_keys_get_distinct_streams;
          prop_lookup_only_returns_placed ] ) ]
