open Plookup
open Plookup_store
module Engine = Plookup_sim.Engine
module Net = Plookup_net.Net

(* A satisfied one-entry result whose entry id encodes the key, so any
   cross-key mixup is visible in the payload itself. *)
let result_for key =
  { Lookup_result.entries = [ Entry.v key ]; servers_contacted = 1; target = 1 }

let sorted_ids (r : Lookup_result.t) =
  List.sort compare (List.map Entry.id r.Lookup_result.entries)

(* --- unit tests on the bare cache ----------------------------------- *)

let test_verdict_lifecycle () =
  let c = Client_cache.create ~ttl:10. ~capacity:4 () in
  let waiter _ ~now:_ = Alcotest.fail "no probe in flight" in
  (match Client_cache.lookup c ~key:7 ~now:0. ~waiter with
  | Client_cache.Lead -> ()
  | _ -> Alcotest.fail "cold cache must Lead");
  Client_cache.complete c ~key:7 ~now:1. ~ok:true ~attempts:2 (result_for 7);
  (match Client_cache.lookup c ~key:7 ~now:5. ~waiter with
  | Client_cache.Hit r -> Helpers.check_int "hit payload" 7 (List.hd (sorted_ids r))
  | _ -> Alcotest.fail "fresh entry must Hit");
  (* Past ttl with swr = 0 the entry is dead: a plain miss again. *)
  (match Client_cache.lookup c ~key:7 ~now:12. ~waiter with
  | Client_cache.Lead -> ()
  | _ -> Alcotest.fail "expired entry must Lead");
  Client_cache.complete c ~key:7 ~now:12. ~ok:true ~attempts:1 (result_for 7);
  let s = Client_cache.stats c in
  Helpers.check_int "one hit" 1 s.Client_cache.hits;
  Helpers.check_int "two misses" 2 s.Client_cache.misses

let test_swr_serves_stale_and_refreshes_once () =
  let c = Client_cache.create ~ttl:10. ~swr:20. ~capacity:4 () in
  let waiter _ ~now:_ = Alcotest.fail "no probe in flight" in
  (match Client_cache.lookup c ~key:3 ~now:0. ~waiter with
  | Client_cache.Lead -> Client_cache.complete c ~key:3 ~now:0. ~ok:true ~attempts:1 (result_for 3)
  | _ -> Alcotest.fail "cold cache must Lead");
  (* Inside (ttl, ttl+swr]: served stale, caller owns the refresh. *)
  (match Client_cache.lookup c ~key:3 ~now:15. ~waiter with
  | Client_cache.Stale r -> Helpers.check_int "stale payload" 3 (List.hd (sorted_ids r))
  | _ -> Alcotest.fail "swr window must serve Stale");
  (* Second stale reader while that refresh is in flight: no second probe. *)
  (match Client_cache.lookup c ~key:3 ~now:16. ~waiter with
  | Client_cache.Stale_wait _ -> ()
  | _ -> Alcotest.fail "refresh in flight must Stale_wait");
  Client_cache.complete c ~key:3 ~now:17. ~ok:true ~attempts:4 (result_for 3);
  (match Client_cache.lookup c ~key:3 ~now:18. ~waiter with
  | Client_cache.Hit _ -> ()
  | _ -> Alcotest.fail "refreshed entry must Hit");
  let s = Client_cache.stats c in
  Helpers.check_int "two stale serves" 2 s.Client_cache.stale_served;
  Helpers.check_int "one refresh" 1 s.Client_cache.refreshes;
  Helpers.check_int "refresh traffic accounted" 4 s.Client_cache.refresh_sends;
  (* Past ttl + swr the entry is dead outright. *)
  match Client_cache.lookup c ~key:3 ~now:50. ~waiter with
  | Client_cache.Lead -> ()
  | _ -> Alcotest.fail "beyond swr must Lead"

let test_join_waiters_fire_in_order () =
  let c = Client_cache.create ~capacity:4 () in
  let served = ref [] in
  let waiter tag r ~now = served := (tag, sorted_ids r, now) :: !served in
  (match Client_cache.lookup c ~key:1 ~now:0. ~waiter:(waiter "leader") with
  | Client_cache.Lead -> ()
  | _ -> Alcotest.fail "first lookup leads");
  (match Client_cache.lookup c ~key:1 ~now:1. ~waiter:(waiter "w1") with
  | Client_cache.Join -> ()
  | _ -> Alcotest.fail "second lookup joins");
  (match Client_cache.lookup c ~key:1 ~now:2. ~waiter:(waiter "w2") with
  | Client_cache.Join -> ()
  | _ -> Alcotest.fail "third lookup joins");
  Client_cache.complete c ~key:1 ~now:5. ~ok:true ~attempts:1 (result_for 1);
  (match List.rev !served with
  | [ ("w1", [ 1 ], 5.); ("w2", [ 1 ], 5.) ] -> ()
  | _ -> Alcotest.fail "waiters must get the leader's result in arrival order");
  Helpers.check_int "coalesced" 2 (Client_cache.stats c).Client_cache.coalesced

let test_negative_caching () =
  (* Failures are never cached. *)
  let waiter _ ~now:_ = Alcotest.fail "no probe in flight" in
  let failed = Lookup_result.empty ~target:5 in
  let c = Client_cache.create ~capacity:4 () in
  ignore (Client_cache.lookup c ~key:9 ~now:0. ~waiter);
  Client_cache.complete c ~key:9 ~now:0. ~ok:false ~attempts:3 failed;
  (match Client_cache.lookup c ~key:9 ~now:1. ~waiter with
  | Client_cache.Lead -> ()
  | _ -> Alcotest.fail "failure is not cached");
  Client_cache.complete c ~key:9 ~now:1. ~ok:true ~attempts:1 (result_for 9);
  (* A later failure leaves the previous good entry in place. *)
  Client_cache.complete c ~key:9 ~now:2. ~ok:false ~attempts:3 failed;
  match Client_cache.lookup c ~key:9 ~now:3. ~waiter with
  | Client_cache.Hit r -> Alcotest.(check (list int)) "good entry kept" [ 9 ] (sorted_ids r)
  | _ -> Alcotest.fail "a failure must not evict the good entry"

let test_lru_evicts_least_recently_used () =
  let c = Client_cache.create ~capacity:2 () in
  let waiter _ ~now:_ = () in
  let fill key now =
    ignore (Client_cache.lookup c ~key ~now ~waiter);
    Client_cache.complete c ~key ~now ~ok:true ~attempts:1 (result_for key)
  in
  fill 0 0.;
  fill 1 1.;
  (* Touch key 0 so key 1 is the LRU victim when 2 arrives. *)
  (match Client_cache.lookup c ~key:0 ~now:2. ~waiter with
  | Client_cache.Hit _ -> ()
  | _ -> Alcotest.fail "key 0 still cached");
  fill 2 3.;
  Helpers.check_int "bounded" 2 (Client_cache.cardinal c);
  Helpers.check_int "one eviction" 1 (Client_cache.stats c).Client_cache.evictions;
  (match Client_cache.lookup c ~key:1 ~now:4. ~waiter with
  | Client_cache.Lead -> ()
  | _ -> Alcotest.fail "key 1 was the LRU victim");
  Client_cache.complete c ~key:1 ~now:4. ~ok:true ~attempts:1 (result_for 1);
  match Client_cache.lookup c ~key:0 ~now:5. ~waiter with
  | Client_cache.Hit _ -> Alcotest.fail "touching key 0 must have protected... key 2"
  | Client_cache.Lead -> ()
  | _ -> Alcotest.fail "key 0 evicted by key 1's re-insert"

(* Model check: under arbitrary op sequences the LRU never exceeds its
   capacity, every Hit carries its own key's payload, and every Lead is
   balanced by a complete (so no op sequence can wedge the flight
   table). *)
let model_ops_gen =
  QCheck2.Gen.(
    pair
      (int_range 1 6)
      (list_size (int_range 0 200) (triple (int_range 0 9) (float_bound_exclusive 5.) bool)))

let test_model_lru_bound_and_key_fidelity =
  Helpers.qcheck ~count:150 "lru bound and key fidelity" model_ops_gen
    (fun (capacity, ops) ->
      let c = Client_cache.create ~ttl:8. ~capacity () in
      let now = ref 0. in
      let ok = ref true in
      let check_key key r =
        if sorted_ids r <> [ key ] then ok := false
      in
      List.iter
        (fun (key, dt, invalidate) ->
          now := !now +. dt;
          if invalidate then Client_cache.invalidate c ~key
          else begin
            (match Client_cache.lookup c ~key ~now:!now ~waiter:(fun r ~now:_ -> check_key key r) with
            | Client_cache.Hit r | Client_cache.Stale_wait r -> check_key key r
            | Client_cache.Stale r ->
              check_key key r;
              Client_cache.complete c ~key ~now:!now ~ok:true ~attempts:1 (result_for key)
            | Client_cache.Join -> ()
            | Client_cache.Lead ->
              Client_cache.complete c ~key ~now:!now ~ok:true ~attempts:1 (result_for key));
            if Client_cache.cardinal c > Client_cache.capacity c then ok := false
          end)
        ops;
      !ok)

(* Model check of LRU order against a list of keys, most recently used
   first.  Each op is (kind, key): 0 reads [key] (a hit moves it to the
   front, a miss is filled and evicts the model's last key when full),
   1 completes [key] with no read before it, 2 reads the most recently
   used key twice, 3 invalidates [key].  Nothing expires, so a read must
   hit exactly when the model holds its key, and after the schedule the
   cache must hold exactly the model's keys. *)
let lru_ops_gen =
  QCheck2.Gen.(
    pair (int_range 1 5) (list_size (int_range 0 200) (pair (int_range 0 3) (int_range 0 9))))

let test_model_lru_order =
  Helpers.qcheck ~count:200 "lru order matches a list model" lru_ops_gen
    (fun (capacity, ops) ->
      let c = Client_cache.create ~ttl:1e9 ~capacity () in
      let model = ref [] in
      let to_front key =
        let rest = List.filter (( <> ) key) !model in
        let rest =
          if List.length rest = capacity then List.filteri (fun i _ -> i < capacity - 1) rest
          else rest
        in
        model := key :: rest
      in
      let fill key = Client_cache.complete c ~key ~now:0. ~ok:true ~attempts:1 (result_for key) in
      (* Whether the cache's verdict on [key] agrees with the model. *)
      let read key =
        match Client_cache.lookup c ~key ~now:0. ~waiter:(fun _ ~now:_ -> ()) with
        | Client_cache.Hit _ -> List.mem key !model
        | Client_cache.Lead ->
          fill key;
          not (List.mem key !model)
        | Client_cache.Stale _ | Client_cache.Stale_wait _ | Client_cache.Join -> false
      in
      let agrees =
        List.for_all
          (fun (kind, key) ->
            match kind with
            | 0 ->
              let agrees = read key in
              to_front key;
              agrees
            | 1 ->
              fill key;
              to_front key;
              true
            | 2 -> ( match !model with mru :: _ -> read mru && read mru | [] -> true)
            | _ ->
              Client_cache.invalidate c ~key;
              model := List.filter (( <> ) key) !model;
              true)
          ops
      in
      agrees
      && Client_cache.cardinal c = List.length !model
      && List.for_all
           (fun key ->
             match Client_cache.lookup c ~key ~now:0. ~waiter:(fun _ ~now:_ -> ()) with
             | Client_cache.Hit _ -> List.mem key !model
             | _ -> not (List.mem key !model))
           (List.init 10 Fun.id))

(* --- integration with Async_client ---------------------------------- *)

(* Four servers, each holding a private pair of entries; key [k] probes
   only server [k mod 4] for both of that server's entries, so a result
   served for the wrong key is visible in its entry ids. *)
let n_servers = 4

let private_cluster () =
  let cluster = Cluster.create ~seed:19 ~n:n_servers () in
  for s = 0 to n_servers - 1 do
    ignore (Server_store.add (Cluster.store cluster s) (Entry.v (100 * s)));
    ignore (Server_store.add (Cluster.store cluster s) (Entry.v ((100 * s) + 1)))
  done;
  Net.set_handler (Cluster.net cluster) (fun dst _src msg ->
      match (msg : Msg.t) with
      | Msg.Data (Msg.Lookup t) ->
        Msg.Entries
          (Cluster.pick cluster dst t)
      | _ -> Msg.Ack);
  cluster

let expected_ids k =
  let s = k mod n_servers in
  [ 100 * s; (100 * s) + 1 ]

let run_cached_schedule ?(ttl = 10.) ?(capacity = 8) ~cache ops =
  let cluster = private_cluster () in
  let engine = Engine.create () in
  let c =
    if cache then Some (Client_cache.create ~ttl ~capacity ()) else None
  in
  let outcomes = ref [] in
  List.iteri
    (fun i (key, time) ->
      ignore
        (Engine.schedule_at engine ~time (fun _ ->
             Async_client.lookup cluster engine
               ~latency:(fun () -> 10.)
               ~timeout:100.
               ?cache:(Option.map (fun c -> (c, key)) c)
               ~order:[ key mod n_servers ] ~t:2
               (fun o -> outcomes := (i, key, o) :: !outcomes))))
    ops;
  ignore (Engine.run engine);
  Helpers.check_int "every lookup completed" (List.length ops) (List.length !outcomes);
  (List.sort compare !outcomes, c)

let test_cache_hit_skips_the_network () =
  let ops = [ (5, 0.); (5, 50.) ] in
  let outcomes, c = run_cached_schedule ~ttl:100. ~cache:true ops in
  (match outcomes with
  | [ (0, _, first); (1, _, second) ] ->
    Alcotest.(check bool) "leader probed" true (first.Async_client.attempts > 0);
    Helpers.check_int "hit sent nothing" 0 second.Async_client.attempts;
    Alcotest.(check (list int)) "same entries" (sorted_ids first.Async_client.result)
      (sorted_ids second.Async_client.result)
  | _ -> Alcotest.fail "two outcomes expected");
  match c with
  | Some c -> Helpers.check_int "one hit" 1 (Client_cache.stats c).Client_cache.hits
  | None -> assert false

let test_singleflight_coalesces_concurrent_misses () =
  (* Both lookups launch before the 20ms round trip completes: the
     second must join the first probe, not start its own. *)
  let ops = [ (5, 0.); (5, 1.) ] in
  let outcomes, c = run_cached_schedule ~cache:true ops in
  (match outcomes with
  | [ (0, _, leader); (1, _, joiner) ] ->
    Alcotest.(check bool) "leader probed" true (leader.Async_client.attempts > 0);
    Helpers.check_int "joiner sent nothing" 0 joiner.Async_client.attempts;
    Alcotest.(check (list int)) "joiner got the leader's result"
      (sorted_ids leader.Async_client.result)
      (sorted_ids joiner.Async_client.result);
    Alcotest.(check bool) "joiner completed when the probe landed" true
      (joiner.Async_client.completed_at >= leader.Async_client.completed_at)
  | _ -> Alcotest.fail "two outcomes expected");
  match c with
  | Some c -> Helpers.check_int "coalesced" 1 (Client_cache.stats c).Client_cache.coalesced
  | None -> assert false

let test_staleness_bounded_by_ttl () =
  (* Delete one of server 0's entries at t=5.  A cached lookup inside
     the TTL still serves the deleted entry (the documented staleness
     window); past the TTL the client re-probes and sees the truth. *)
  let cluster = private_cluster () in
  let engine = Engine.create () in
  let c = Client_cache.create ~ttl:10. ~capacity:8 () in
  let results = ref [] in
  let look ~time = ignore
      (Engine.schedule_at engine ~time (fun _ ->
           Async_client.lookup cluster engine
             ~latency:(fun () -> 1.)
             ~timeout:100. ~cache:(c, 0) ~order:[ 0 ] ~t:2
             (fun o -> results := (time, o) :: !results)))
  in
  look ~time:0.;
  ignore
    (Engine.schedule_at engine ~time:5. (fun _ ->
         ignore (Server_store.remove (Cluster.store cluster 0) (Entry.v 1))));
  look ~time:8.;
  look ~time:20.;
  ignore (Engine.run engine);
  match List.sort compare (List.rev !results) with
  | [ (0., first); (8., stale); (20., fresh) ] ->
    Alcotest.(check (list int)) "initial probe sees both" [ 0; 1 ]
      (sorted_ids first.Async_client.result);
    Alcotest.(check (list int)) "within ttl: deleted entry still served" [ 0; 1 ]
      (sorted_ids stale.Async_client.result);
    Helpers.check_int "and served locally" 0 stale.Async_client.attempts;
    Alcotest.(check (list int)) "past ttl: re-probe sees the delete" [ 0 ]
      (sorted_ids fresh.Async_client.result)
  | _ -> Alcotest.fail "three outcomes expected"

(* The headline model property: over an arbitrary schedule against a
   static cluster, cache-on lookups return exactly the cache-off
   results (the staleness window can only show through when servers
   change), never a result for another key, and never more traffic. *)
let schedule_gen =
  QCheck2.Gen.(
    triple (int_range 1 8) (float_range 5. 60.)
      (list_size (int_range 1 60) (pair (int_range 0 11) (float_bound_exclusive 8.))))

let test_model_cache_transparent_when_static =
  Helpers.qcheck ~count:75 "cache-on equals cache-off on a static cluster" schedule_gen
    (fun (capacity, ttl, gaps) ->
      let _, ops =
        List.fold_left
          (fun (now, acc) (key, dt) -> (now +. dt, (key, now +. dt) :: acc))
          (0., []) gaps
      in
      let ops = List.rev ops in
      let on, _ = run_cached_schedule ~ttl ~capacity ~cache:true ops in
      let off, _ = run_cached_schedule ~cache:false ops in
      List.for_all2
        (fun (i, key, (on : Async_client.outcome)) (i', _, (off : Async_client.outcome)) ->
          i = i' && sorted_ids on.Async_client.result = expected_ids key
          && sorted_ids on.Async_client.result = sorted_ids off.Async_client.result
          && (not on.Async_client.gave_up)
          && on.Async_client.attempts <= off.Async_client.attempts)
        on off
      && List.fold_left (fun a (_, _, o) -> a + o.Async_client.attempts) 0 on
         <= List.fold_left (fun a (_, _, o) -> a + o.Async_client.attempts) 0 off)

let () =
  Helpers.run "client_cache"
    [
      ( "cache",
        [
          Alcotest.test_case "verdict lifecycle" `Quick test_verdict_lifecycle;
          Alcotest.test_case "swr stale + refresh" `Quick test_swr_serves_stale_and_refreshes_once;
          Alcotest.test_case "join waiters" `Quick test_join_waiters_fire_in_order;
          Alcotest.test_case "negative caching" `Quick test_negative_caching;
          Alcotest.test_case "lru eviction" `Quick test_lru_evicts_least_recently_used;
          test_model_lru_bound_and_key_fidelity;
          test_model_lru_order;
        ] );
      ( "async_client integration",
        [
          Alcotest.test_case "hit skips the network" `Quick test_cache_hit_skips_the_network;
          Alcotest.test_case "singleflight coalesces" `Quick
            test_singleflight_coalesces_concurrent_misses;
          Alcotest.test_case "staleness bounded by ttl" `Quick test_staleness_bounded_by_ttl;
          test_model_cache_transparent_when_static;
        ] );
    ]
