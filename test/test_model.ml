(* Model-based testing across all strategies: drive a random sequence of
   add/delete operations (no failures) against each strategy and check
   the strategy-specific global invariants against a simple reference
   model of the live entry set. *)

open Plookup
open Plookup_store
module IntMap = Map.Make (Int)

type op = Add of int | Delete of int

let gen_ops =
  QCheck2.Gen.(
    list_size (int_range 0 120)
      (map2 (fun is_add id -> if is_add then Add id else Delete id) bool (int_range 0 60)))

(* The reference model: which entry ids are live after the ops, given an
   initial population. *)
let live_after ~initial ops =
  let live = ref IntMap.empty in
  List.iter (fun e -> live := IntMap.add (Entry.id e) e !live) initial;
  List.iter
    (fun op ->
      match op with
      | Add id ->
        let e = Entry.v (1000 + id) in
        live := IntMap.add (Entry.id e) e !live
      | Delete id ->
        (* Deletes target both initial and added id spaces. *)
        let target = if id mod 2 = 0 then id / 2 else 1000 + id in
        live := IntMap.remove target !live)
    ops;
  !live

let apply_ops service ops =
  List.iter
    (fun op ->
      match op with
      | Add id -> Service.add service (Entry.v (1000 + id))
      | Delete id ->
        let target = if id mod 2 = 0 then id / 2 else 1000 + id in
        Service.delete service (Entry.v target))
    ops

let run_scenario config ops ~check =
  let h = 20 in
  let service = Service.create ~seed:77 ~n:5 config in
  let initial = Helpers.entries h in
  Service.place service initial;
  apply_ops service ops;
  let live = live_after ~initial ops in
  check service live

let store_ids store = List.sort compare (Server_store.ids store)
let live_ids live = List.map fst (IntMap.bindings live)

let prop_full_replication_tracks_live =
  Helpers.qcheck ~count:100 "full replication: every server holds exactly the live set"
    gen_ops
    (fun ops ->
      run_scenario Service.full_replication ops ~check:(fun service live ->
          let cluster = Service.cluster service in
          List.for_all
            (fun s -> store_ids (Cluster.store cluster s) = live_ids live)
            (List.init 5 Fun.id)))

let prop_fixed_servers_identical_and_live =
  Helpers.qcheck ~count:100 "fixed: servers identical, bounded by x, subset of live"
    gen_ops
    (fun ops ->
      let x = 6 in
      run_scenario (Service.fixed x) ops ~check:(fun service live ->
          let cluster = Service.cluster service in
          let reference = store_ids (Cluster.store cluster 0) in
          List.length reference <= x
          && List.for_all (fun id -> IntMap.mem id live) reference
          && List.for_all
               (fun s -> store_ids (Cluster.store cluster s) = reference)
               (List.init 5 Fun.id)))

let prop_random_server_bounded_and_live =
  Helpers.qcheck ~count:100 "randomserver: occupancy <= x and stores subset of live"
    gen_ops
    (fun ops ->
      let x = 6 in
      run_scenario (Service.random_server x) ops ~check:(fun service live ->
          let cluster = Service.cluster service in
          List.for_all
            (fun s ->
              let ids = store_ids (Cluster.store cluster s) in
              List.length ids <= x && List.for_all (fun id -> IntMap.mem id live) ids)
            (List.init 5 Fun.id)))

(* The strategies with an assigned placement: after any add/delete
   stream without failures, the stores cover exactly the live set. *)
let coverage_is_live config ops =
  run_scenario config ops ~check:(fun service live ->
      let cluster = Service.cluster service in
      let coverage = Entry.Set.elements (Cluster.coverage cluster) |> List.map Entry.id in
      coverage = live_ids live)

let prop_round_robin_exactly_live =
  Helpers.qcheck ~count:100 "round robin: placement invariant + coverage = live set"
    gen_ops
    (coverage_is_live (Service.round_robin 2))

let prop_hash_exactly_live =
  Helpers.qcheck ~count:100 "hash: coverage = live set and copies at hashed servers"
    gen_ops
    (coverage_is_live (Service.hash 2))

let assigned =
  [ Service.v ~kind:"Chord" ~params:[ 2 ];
    Service.v ~kind:"DxHash" ~params:[ 2 ];
    Service.v ~kind:"MultiProbe" ~params:[ 2; 2 ];
    Service.round_robin_replicated 2 2 ]

let prop_assigned_exactly_live =
  Helpers.qcheck ~count:200 "assigned strategies: coverage = live set"
    QCheck2.Gen.(pair (int_range 0 (List.length assigned - 1)) gen_ops)
    (fun (strategy_index, ops) -> coverage_is_live (List.nth assigned strategy_index) ops)

(* Every registered strategy, ablations included, at one storage
   budget: a lookup returns distinct live entries, at most t of them,
   and satisfies t whenever the up servers cover t distinct entries. *)
let prop_lookups_return_live_entries =
  let configs = Service.all_configs ~ablations:true ~budget:40 ~n:5 ~h:20 () in
  Helpers.qcheck ~count:100 "all strategies: lookups only return live entries"
    QCheck2.Gen.(triple (int_range 0 (List.length configs - 1)) (int_range 1 25) gen_ops)
    (fun (strategy_index, t, ops) ->
      run_scenario (List.nth configs strategy_index) ops ~check:(fun service live ->
          let r = Service.partial_lookup service t in
          let ids = List.map Entry.id r.Lookup_result.entries in
          let coverage = Entry.Set.cardinal (Cluster.coverage (Service.cluster service)) in
          List.for_all (fun id -> IntMap.mem id live) ids
          && List.length (List.sort_uniq compare ids) = List.length ids
          && List.length ids <= t
          && (coverage < t || Lookup_result.satisfied r)))

(* The storage law of each strategy: exact where placement is
   deterministic and complete (one copy per owner, or per server), an
   upper bound where collisions (Hash-y) or sampling and the cushion
   (Fixed-x, RandomServer-x) can leave fewer copies. *)
let prop_storage_conservation =
  let n = 5 in
  let exact config copies = (config, fun ~live ~stored -> stored = live * copies) in
  let at_most config bound = (config, fun ~live ~stored -> stored <= bound live) in
  let laws =
    [ exact Service.full_replication n;
      at_most (Service.fixed 6) (fun _ -> 6 * n);
      at_most (Service.random_server 6) (fun _ -> 6 * n);
      exact (Service.round_robin 2) 2;
      exact (Service.round_robin_replicated 2 2) 2;
      at_most (Service.hash 2) (fun live -> live * 2);
      exact (Service.v ~kind:"Chord" ~params:[ 2 ]) 2;
      exact (Service.v ~kind:"DxHash" ~params:[ 2 ]) 2;
      exact (Service.v ~kind:"MultiProbe" ~params:[ 2; 2 ]) 2 ]
  in
  Helpers.qcheck ~count:300 "all strategies: total storage bounded by strategy law"
    QCheck2.Gen.(pair (int_range 0 (List.length laws - 1)) gen_ops)
    (fun (strategy_index, ops) ->
      let config, law = List.nth laws strategy_index in
      run_scenario config ops ~check:(fun service live ->
          law ~live:(IntMap.cardinal live)
            ~stored:(Cluster.total_stored (Service.cluster service))))

let () =
  Helpers.run "model"
    [ ( "model",
        [ prop_full_replication_tracks_live;
          prop_fixed_servers_identical_and_live;
          prop_random_server_bounded_and_live;
          prop_round_robin_exactly_live;
          prop_hash_exactly_live;
          prop_assigned_exactly_live;
          prop_lookups_return_live_entries;
          prop_storage_conservation ] ) ]
