open Plookup
open Plookup_store
module Engine = Plookup_sim.Engine
module Net = Plookup_net.Net

(* Hand-built cluster with per-server entry lists and a plain lookup
   handler, mirroring test_probe. *)
let manual_cluster ?obs ~n placement =
  let cluster = Cluster.create ~seed:19 ?obs ~n () in
  List.iteri
    (fun server ids ->
      List.iter
        (fun i -> ignore (Server_store.add (Cluster.store cluster server) (Entry.v i)))
        ids)
    placement;
  Net.set_handler (Cluster.net cluster) (fun dst _src msg ->
      match (msg : Msg.t) with
      | Msg.Data (Msg.Lookup t) ->
        Msg.Entries
          (Server_store.random_pick (Cluster.store cluster dst) (Cluster.rng cluster) t)
      | _ -> Msg.Ack);
  cluster

let run_lookup ?wave ?retries ?deadline ?hedge ?breaker ?jitter ?(timeout = 100.)
    ?(latency = fun () -> 10.) ?(engine = Engine.create ()) ~order ~t cluster =
  let outcome = ref None in
  Async_client.lookup cluster engine ~latency ~timeout ?retries ?deadline ?hedge
    ?breaker ?jitter ~order ?wave ~t
    (fun o -> outcome := Some o);
  ignore (Engine.run engine);
  match !outcome with Some o -> o | None -> Alcotest.fail "lookup never completed"

let test_sequential_latency_is_sum () =
  (* Two disjoint servers needed for t=4; sequential: 2 round trips of
     2 x 10ms each. *)
  let cluster = manual_cluster ~n:3 [ [ 0; 1 ]; [ 2; 3 ]; [ 4 ] ] in
  let o = run_lookup ~order:[ 0; 1; 2 ] ~t:4 cluster in
  Alcotest.(check bool) "satisfied" true (Lookup_result.satisfied o.Async_client.result);
  Helpers.check_int "two contacts" 2 o.Async_client.result.Lookup_result.servers_contacted;
  Helpers.close "40ms = 2 sequential round trips" 40. (Async_client.elapsed o)

let test_parallel_wave_latency_is_max () =
  let cluster = manual_cluster ~n:3 [ [ 0; 1 ]; [ 2; 3 ]; [ 4 ] ] in
  let o = run_lookup ~wave:2 ~order:[ 0; 1; 2 ] ~t:4 cluster in
  (* Contacts are counted at send time: server 0's reply lands first and
     refills the wave with a (real, server-received) request to server 2
     before server 1's reply completes the target — three sends. *)
  Helpers.check_int "three contacts" 3 o.Async_client.result.Lookup_result.servers_contacted;
  Helpers.check_int "three attempts" 3 o.Async_client.attempts;
  Helpers.close "20ms = 1 concurrent round trip" 20. (Async_client.elapsed o)

let test_timeout_masks_failure () =
  (* Server 0 is down: its contact times out after 50ms, then server 1
     answers in 20ms. *)
  let cluster = manual_cluster ~n:2 [ [ 0; 1 ]; [ 0; 1 ] ] in
  Cluster.fail cluster 0;
  let o = run_lookup ~timeout:50. ~order:[ 0; 1 ] ~t:2 cluster in
  Alcotest.(check bool) "satisfied despite failure" true
    (Lookup_result.satisfied o.Async_client.result);
  Helpers.check_int "one timeout" 1 o.Async_client.timeouts;
  Helpers.close "70ms = timeout + retry round trip" 70. (Async_client.elapsed o)

let test_exhausted_order_reports_short () =
  let cluster = manual_cluster ~n:2 [ [ 0 ]; [ 0 ] ] in
  let o = run_lookup ~order:[ 0; 1 ] ~t:5 cluster in
  Alcotest.(check bool) "unsatisfied" false (Lookup_result.satisfied o.Async_client.result);
  Helpers.check_int "found the one distinct entry" 1
    (Lookup_result.count o.Async_client.result)

let test_stops_as_soon_as_satisfied () =
  let cluster = manual_cluster ~n:3 [ [ 0; 1; 2 ]; [ 3 ]; [ 4 ] ] in
  let o = run_lookup ~order:[ 0; 1; 2 ] ~t:3 cluster in
  Helpers.check_int "first server sufficed" 1
    o.Async_client.result.Lookup_result.servers_contacted;
  Helpers.close "one round trip" 20. (Async_client.elapsed o)

let test_truncates_to_target () =
  let cluster = manual_cluster ~n:2 [ [ 0; 1; 2; 3 ]; [ 4; 5; 6; 7 ] ] in
  let o = run_lookup ~wave:2 ~order:[ 0; 1 ] ~t:5 cluster in
  Helpers.check_int "exactly t" 5 (Lookup_result.count o.Async_client.result)

let test_callback_fires_once () =
  let cluster = manual_cluster ~n:3 [ [ 0 ]; [ 1 ]; [ 2 ] ] in
  let engine = Engine.create () in
  let calls = ref 0 in
  Async_client.lookup cluster engine
    ~latency:(fun () -> 5.)
    ~timeout:100. ~order:[ 0; 1; 2 ] ~wave:3 ~t:2
    (fun _ -> incr calls);
  ignore (Engine.run engine);
  Helpers.check_int "exactly one completion" 1 !calls

let test_late_reply_dropped () =
  (* Latency above the timeout: the reply arrives after the client gave
     up on that contact; it must not double-complete or corrupt state. *)
  let cluster = manual_cluster ~n:2 [ [ 0; 1 ]; [ 0; 1 ] ] in
  (* Draw order is chronological: request to server 0 at t=0 (40ms,
     outliving the 30ms timeout), request to server 1 at t=30 (5ms), its
     reply at t=35 (5ms, arriving t=40), then server 0's late reply. *)
  let latencies = ref [ 40.; 5.; 5.; 5. ] in
  let latency () =
    match !latencies with
    | l :: rest ->
      latencies := rest;
      l
    | [] -> 5.
  in
  let o = run_lookup ~timeout:30. ~latency ~order:[ 0; 1 ] ~t:2 cluster in
  Alcotest.(check bool) "eventually satisfied" true
    (Lookup_result.satisfied o.Async_client.result);
  Helpers.check_int "first contact timed out" 1 o.Async_client.timeouts

let test_timed_out_contact_counts_toward_cost () =
  (* Regression: a contact that never answered was invisible in
     servers_contacted, under-reporting lookup cost exactly when
     failures made lookups expensive. *)
  let cluster = manual_cluster ~n:2 [ [ 0; 1 ]; [ 0; 1 ] ] in
  Cluster.fail cluster 0;
  let o = run_lookup ~timeout:50. ~order:[ 0; 1 ] ~t:2 cluster in
  Helpers.check_int "both sends counted" 2
    o.Async_client.result.Lookup_result.servers_contacted;
  Helpers.check_int "two attempts" 2 o.Async_client.attempts;
  Helpers.check_int "no retries configured" 0 o.Async_client.retries

let test_retry_masks_transient_failure () =
  (* Server 0 is down for the first attempt and back for the retry: one
     retry to the *same* server recovers the lookup without moving on. *)
  let cluster = manual_cluster ~n:2 [ [ 0; 1 ]; [ 0; 1 ] ] in
  Cluster.fail cluster 0;
  let engine = Engine.create () in
  ignore (Engine.schedule_at engine ~time:55. (fun _ -> Cluster.recover cluster 0));
  (* Attempt 1 at t=0 dies at the down server; timeout at 50; retry at
     t=50 is delivered at t=60 (after the recovery), reply at t=70. *)
  let o = run_lookup ~engine ~timeout:50. ~retries:1 ~order:[ 0 ] ~t:2 cluster in
  Alcotest.(check bool) "satisfied" true (Lookup_result.satisfied o.Async_client.result);
  Helpers.check_int "one server contacted" 1
    o.Async_client.result.Lookup_result.servers_contacted;
  Helpers.check_int "two attempts" 2 o.Async_client.attempts;
  Helpers.check_int "one retry" 1 o.Async_client.retries;
  Helpers.check_int "one timeout" 1 o.Async_client.timeouts;
  Helpers.close "70ms = timeout + retry round trip" 70. (Async_client.elapsed o)

let test_backoff_stretches_timeouts () =
  (* Dead server, retries 2: each retry doubles the timeout, so waits of
     10, 20, 40 then give up — the order is exhausted at t = 70. *)
  let obs = Plookup_obs.Obs.create () in
  let tr = obs.Plookup_obs.Obs.trace in
  let cluster = manual_cluster ~obs ~n:1 [ [ 0 ] ] in
  Plookup_obs.Trace.set_enabled tr true;
  Cluster.fail cluster 0;
  let o = run_lookup ~timeout:10. ~retries:2 ~order:[ 0 ] ~t:1 cluster in
  Alcotest.(check bool) "unsatisfied" false (Lookup_result.satisfied o.Async_client.result);
  Helpers.check_int "three attempts" 3 o.Async_client.attempts;
  Helpers.check_int "two retries" 2 o.Async_client.retries;
  let timeouts =
    List.filter_map
      (fun (sp : Plookup_obs.Span.t) ->
        match sp.kind with Plookup_obs.Span.Timeout { after; _ } -> Some after | _ -> None)
      (Plookup_obs.Trace.spans tr)
  in
  Alcotest.(check (list (float 1e-9))) "timeouts of 10, 20, 40" [ 10.; 20.; 40. ] timeouts;
  Helpers.close "10 + 20 + 40" 70. (Async_client.elapsed o)

let test_duplicate_replies_suppressed () =
  (* Duplication 1.0 doubles the request (handler runs twice) and each
     reply transmission, so the callback fires 4 times per contact.  The
     target needs both servers, so server 0's three extra replies arrive
     while the lookup is still running: merged once, counted thrice. *)
  let cluster = manual_cluster ~n:2 [ [ 0 ]; [ 1 ] ] in
  Net.set_faults (Cluster.net cluster) ~seed:1 ~duplication:1.0 ();
  let o = run_lookup ~order:[ 0; 1 ] ~t:2 cluster in
  Alcotest.(check bool) "satisfied" true (Lookup_result.satisfied o.Async_client.result);
  Helpers.check_int "two contacts" 2 o.Async_client.result.Lookup_result.servers_contacted;
  Helpers.check_int "two attempts" 2 o.Async_client.attempts;
  Helpers.check_int "three duplicates suppressed" 3 o.Async_client.duplicates

let test_lookup_over_lossy_jittered_network () =
  (* Acceptance: with a fixed seed, 10% loss and jitter, retrying
     lookups still deliver t distinct entries for Fixed-x and
     RoundRobin-y placements. *)
  let check_config name config order =
    let service = Plookup.Service.create ~seed:5 ~n:10 config in
    Plookup.Service.place service (Helpers.entries 100);
    let cluster = Plookup.Service.cluster service in
    Cluster.set_faults cluster ~seed:99 ~loss:0.1 ~jitter:5. ();
    let engine = Engine.create () in
    let t = 35 in
    let o = run_lookup ~engine ~timeout:60. ~retries:3 ~order ~t cluster in
    Alcotest.(check bool) (name ^ " satisfied") true
      (Lookup_result.satisfied o.Async_client.result);
    let ids = Helpers.sorted_ids o.Async_client.result.Lookup_result.entries in
    Helpers.check_int (name ^ " t entries") t (List.length ids);
    Helpers.check_int (name ^ " distinct") t
      (List.length (List.sort_uniq compare ids))
  in
  check_config "Fixed-40" (Plookup.Service.fixed 40) [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ];
  (* RoundRobin-2's strided order from server 3. *)
  check_config "RoundRobin-2" (Plookup.Service.round_robin 2)
    [ 3; 5; 7; 9; 1; 0; 2; 4; 6; 8 ]

let test_lossy_lookup_deterministic () =
  (* Same seeds end to end => byte-identical outcome, faults included. *)
  let one () =
    let service = Plookup.Service.create ~seed:5 ~n:10 (Plookup.Service.round_robin 2) in
    Plookup.Service.place service (Helpers.entries 100);
    let cluster = Plookup.Service.cluster service in
    Cluster.set_faults cluster ~seed:7 ~loss:0.2 ~duplication:0.1 ~jitter:8. ();
    let o =
      run_lookup ~timeout:40. ~retries:2 ~order:[ 0; 2; 4; 6; 8; 1; 3; 5; 7; 9 ] ~t:30
        cluster
    in
    ( Async_client.elapsed o,
      o.Async_client.attempts,
      o.Async_client.retries,
      o.Async_client.timeouts,
      o.Async_client.duplicates,
      Helpers.sorted_ids o.Async_client.result.Lookup_result.entries )
  in
  Alcotest.(check bool) "identical replay" true (one () = one ())

(* {2 Tail tolerance: deadline, hedging, breaker, jitter, Busy} *)

let test_deadline_gives_up_with_partial_result () =
  (* Dead server, generous retries: without a deadline the lookup would
     grind through 50 + 100 + 200 of backoff; the 60ms budget cuts it. *)
  let cluster = manual_cluster ~n:2 [ [ 0; 1 ]; [ 2 ] ] in
  Cluster.fail cluster 0;
  let engine = Engine.create () in
  let outcome = ref None in
  Async_client.lookup cluster engine
    ~latency:(fun () -> 10.)
    ~timeout:50. ~retries:2 ~deadline:60. ~order:[ 0 ] ~t:2
    (fun o -> outcome := Some o);
  ignore (Engine.run engine);
  match !outcome with
  | None -> Alcotest.fail "never completed"
  | Some o ->
    Alcotest.(check bool) "gave up" true o.Async_client.gave_up;
    Alcotest.(check bool) "unsatisfied" false
      (Lookup_result.satisfied o.Async_client.result);
    Helpers.close "finished exactly at the budget" 60. (Async_client.elapsed o)

let test_hedge_first_reply_wins () =
  (* Server 0 answers in 200ms round trip; the 15ms hedge launches a
     backup to server 1 (10ms round trip) which wins.  The straggler's
     eventual reply is ignored like any late datagram. *)
  let cluster = manual_cluster ~n:2 [ [ 0; 1 ]; [ 0; 1 ] ] in
  let latencies = ref [ 100. ] in
  let latency () =
    match !latencies with
    | l :: rest ->
      latencies := rest;
      l
    | [] -> 5.
  in
  let o = run_lookup ~latency ~timeout:500. ~hedge:15. ~order:[ 0; 1 ] ~t:2 cluster in
  Alcotest.(check bool) "satisfied" true (Lookup_result.satisfied o.Async_client.result);
  Helpers.check_int "one hedge launched" 1 o.Async_client.hedges;
  Helpers.check_int "both servers contacted" 2
    o.Async_client.result.Lookup_result.servers_contacted;
  Helpers.close "hedge delay + backup round trip" 25. (Async_client.elapsed o);
  Helpers.check_int "no timeouts" 0 o.Async_client.timeouts

let test_hedge_is_neutral_when_replies_are_fast () =
  (* All replies beat the hedge delay: same outcome fields as the
     hedge-free run — the feature is draw-sequence-neutral when idle. *)
  let run hedge =
    let cluster = manual_cluster ~n:3 [ [ 0; 1 ]; [ 2; 3 ]; [ 4 ] ] in
    let o = run_lookup ?hedge ~order:[ 0; 1; 2 ] ~t:4 cluster in
    ( Async_client.elapsed o,
      o.Async_client.attempts,
      o.Async_client.hedges,
      Helpers.sorted_ids o.Async_client.result.Lookup_result.entries )
  in
  Alcotest.(check bool) "identical outcomes" true (run None = run (Some 90.))

let test_breaker_opens_after_threshold_and_skips () =
  let cluster = manual_cluster ~n:2 [ [ 0; 1 ]; [ 0; 1 ] ] in
  Cluster.fail cluster 0;
  let engine = Engine.create () in
  let breaker = Async_client.Breaker.create ~threshold:2 ~cooldown:1000. ~n:2 () in
  let one () =
    let outcome = ref None in
    Async_client.lookup cluster engine
      ~latency:(fun () -> 5.)
      ~timeout:20. ~retries:1 ~breaker ~order:[ 0; 1 ] ~t:2
      (fun o -> outcome := Some o);
    ignore (Engine.run engine);
    Option.get !outcome
  in
  (* First lookup: two timeouts against the dead server 0 trip its
     breaker; the lookup still completes via server 1. *)
  let o1 = one () in
  Alcotest.(check bool) "first satisfied" true
    (Lookup_result.satisfied o1.Async_client.result);
  Helpers.check_int "two timeouts tripped the breaker" 2 o1.Async_client.timeouts;
  Helpers.check_int "no skips yet" 0 o1.Async_client.breaker_skips;
  Alcotest.(check bool) "circuit open" true
    (Async_client.Breaker.is_open breaker 0 ~now:(Engine.now engine));
  (* Second lookup skips server 0 outright: no timeouts at all. *)
  let o2 = one () in
  Helpers.check_int "server 0 skipped" 1 o2.Async_client.breaker_skips;
  Helpers.check_int "no timeouts" 0 o2.Async_client.timeouts;
  Helpers.check_int "one contact" 1
    o2.Async_client.result.Lookup_result.servers_contacted

let test_breaker_half_open_probe () =
  let b = Async_client.Breaker.create ~threshold:3 ~cooldown:50. ~n:1 () in
  for _ = 1 to 3 do
    Async_client.Breaker.record b 0 ~now:0. ~ok:false
  done;
  Alcotest.(check bool) "open after threshold" true
    (Async_client.Breaker.is_open b 0 ~now:10.);
  Alcotest.(check bool) "half-open after cooldown" true
    (Async_client.Breaker.allow b 0 ~now:60.);
  (* One failed probe re-opens for a full cooldown (the count stays
     saturated); one success closes the circuit entirely. *)
  Async_client.Breaker.record b 0 ~now:60. ~ok:false;
  Alcotest.(check bool) "re-opened by one bad probe" true
    (Async_client.Breaker.is_open b 0 ~now:100.);
  Async_client.Breaker.record b 0 ~now:111. ~ok:true;
  Alcotest.(check bool) "closed by a good probe" true
    (Async_client.Breaker.allow b 0 ~now:111.)

let test_busy_nack_abandons_contact () =
  (* Server 0 sheds with Busy: no retry against it — straight to server
     1, with generous retries configured. *)
  let cluster = manual_cluster ~n:2 [ [ 0; 1 ]; [ 0; 1 ] ] in
  Net.set_handler (Cluster.net cluster) (fun dst _src msg ->
      if dst = 0 then Msg.Busy
      else
        match (msg : Msg.t) with
        | Msg.Data (Msg.Lookup t) ->
          Msg.Entries
            (Server_store.random_pick (Cluster.store cluster dst) (Cluster.rng cluster) t)
        | _ -> Msg.Ack);
  let o = run_lookup ~retries:3 ~order:[ 0; 1 ] ~t:2 cluster in
  Alcotest.(check bool) "satisfied" true (Lookup_result.satisfied o.Async_client.result);
  Helpers.check_int "one busy" 1 o.Async_client.busies;
  Helpers.check_int "no retries against the shedding server" 0 o.Async_client.retries;
  Helpers.check_int "no timeouts" 0 o.Async_client.timeouts;
  Helpers.close "two back-to-back round trips" 40. (Async_client.elapsed o)

let test_jitter_bounds_and_pins_both_modes () =
  (* Dead server, retries 2, base timeout 10.  Without jitter the
     backoff is exactly 10 + 20 + 40.  With jitter each retry timeout
     is a decorrelated draw in [base, 3 * previous]; the total is
     bounded, reproducible for a fixed seed, and differs from the
     deterministic schedule. *)
  let run jitter =
    let cluster = manual_cluster ~n:1 [ [ 0 ] ] in
    Cluster.fail cluster 0;
    let o = run_lookup ?jitter ~timeout:10. ~retries:2 ~order:[ 0 ] ~t:1 cluster in
    Async_client.elapsed o
  in
  Helpers.close "deterministic backoff off" 70. (run None);
  let jittered = run (Some (Plookup_util.Rng.create 11)) in
  Alcotest.(check bool) "within decorrelated bounds" true
    (jittered >= 10. +. 10. +. 10. && jittered <= 10. +. 30. +. 90.);
  Helpers.close "same seed, same schedule" jittered
    (run (Some (Plookup_util.Rng.create 11)))

(* With the engine as the network's clock, a traced lookup launched at
   engine time T0 sends at T0 and is received one hop (L) later. *)
let test_spans_carry_engine_time () =
  let obs = Plookup_obs.Obs.create () in
  let tr = obs.Plookup_obs.Obs.trace in
  let service = Service.create ~seed:5 ~obs ~n:3 Service.full_replication in
  Service.place service (Entry.Gen.batch (Entry.Gen.create ()) 4);
  let cluster = Service.cluster service in
  let engine = Engine.create () in
  Net.attach_engine (Cluster.net cluster) engine;
  Plookup_obs.Trace.set_enabled tr true;
  ignore
    (Engine.schedule_at engine ~time:7. (fun _ ->
         Async_client.lookup cluster engine
           ~latency:(fun () -> 10.)
           ~timeout:100. ~order:[ 0 ] ~t:2 ignore));
  ignore (Engine.run engine);
  let lookup_spans =
    List.filter_map
      (fun (sp : Plookup_obs.Span.t) ->
        match sp.kind with
        | Plookup_obs.Span.Send { msg = "lookup"; _ } -> Some ("send", sp.time)
        | Plookup_obs.Span.Recv { msg = "lookup"; _ } -> Some ("recv", sp.time)
        | _ -> None)
      (Plookup_obs.Trace.spans tr)
  in
  Alcotest.(check (list (pair string (float 1e-9))))
    "send at T0, recv at T0 + L" [ ("send", 7.); ("recv", 17.) ] lookup_spans

let test_validation () =
  let cluster = manual_cluster ~n:1 [ [ 0 ] ] in
  let engine = Engine.create () in
  Alcotest.check_raises "t = 0" (Invalid_argument "Async_client.lookup: t must be positive")
    (fun () ->
      Async_client.lookup cluster engine
        ~latency:(fun () -> 1.)
        ~timeout:1. ~order:[ 0 ] ~t:0 ignore)

let prop_async_agrees_with_sync_on_answers =
  Helpers.qcheck ~count:60 "async lookups return live distinct entries, at most t"
    QCheck2.Gen.(triple (int_range 1 10) (int_range 1 3) int)
    (fun (t, wave, _seed) ->
      let cluster = manual_cluster ~n:3 [ [ 0; 1; 2 ]; [ 3; 4; 5 ]; [ 6; 7 ] ] in
      let o = run_lookup ~wave ~order:[ 0; 1; 2 ] ~t cluster in
      let ids = Helpers.sorted_ids o.Async_client.result.Lookup_result.entries in
      List.length ids <= t
      && List.length (List.sort_uniq compare ids) = List.length ids
      && List.for_all (fun id -> id >= 0 && id <= 7) ids)

(* {2 The answer set} *)

let prop_results_come_from_answers =
  Helpers.qcheck ~count:200 "results are distinct answered entries, min(t, merged) of them"
    QCheck2.Gen.(
      triple (list_size (int_range 1 6) (list_size (int_range 0 12) (int_bound 19)))
        (int_range 1 15) (int_range 1 3))
    (fun (placement, t, wave) ->
      let n = List.length placement in
      let cluster = manual_cluster ~n placement in
      let heard = Hashtbl.create 32 in
      Net.set_handler (Cluster.net cluster) (fun dst _src msg ->
          match (msg : Msg.t) with
          | Msg.Data (Msg.Lookup t) ->
            let answer =
              Server_store.random_pick (Cluster.store cluster dst) (Cluster.rng cluster) t
            in
            List.iter (fun e -> Hashtbl.replace heard (Entry.id e) ()) answer;
            Msg.Entries answer
          | _ -> Msg.Ack);
      let o = run_lookup ~wave ~order:(List.init n Fun.id) ~t cluster in
      let ids = List.map Entry.id o.Async_client.result.Lookup_result.entries in
      List.length (List.sort_uniq compare ids) = List.length ids
      && List.for_all (Hashtbl.mem heard) ids
      && List.length ids = min t (Hashtbl.length heard))

let test_kept_set_uniform () =
  (* Both stores hold fewer than t entries, so both answers are whole
     stores and the merged union is always ids 0..5: only the truncation
     draws. *)
  let cluster = manual_cluster ~n:2 [ [ 0; 1; 2 ]; [ 3; 4; 5 ] ] in
  Helpers.uniform_over_subsets ~what:"6 choose 4" ~n:6 ~k:4 ~trials:6000 (fun () ->
      let o = run_lookup ~order:[ 0; 1 ] ~t:4 cluster in
      List.map Entry.id o.Async_client.result.Lookup_result.entries)

let test_target_above_set_size () =
  (* The per-lookup set is sized for min(t, 64) entries; t = 100 makes it
     grow while merging 120 distinct entries. *)
  let cluster =
    manual_cluster ~n:2 [ List.init 60 Fun.id; List.init 60 (fun i -> 60 + i) ]
  in
  let o = run_lookup ~order:[ 0; 1 ] ~t:100 cluster in
  let ids = Helpers.sorted_ids o.Async_client.result.Lookup_result.entries in
  Helpers.check_int "exactly t distinct" 100 (List.length (List.sort_uniq compare ids));
  Alcotest.(check bool) "all stored" true (List.for_all (fun id -> id < 120) ids)

let test_sync_and_async_agree () =
  (* Differential: two identically seeded and placed fault-free
     clusters, one probed by Probe.stride, the other by the async client
     walking the same stride as an explicit order at zero latency.  Both
     merge the same answers in the same order through the same draws, so
     they return the same entries, for every registered strategy. *)
  let n = 10 and h = 100 in
  let configs = Service.all_configs ~ablations:true ~budget:200 ~n ~h () in
  Alcotest.(check bool) "every registered strategy" true
    (List.length configs >= List.length (Strategy_registry.all ()));
  List.iter
    (fun config ->
      let make () = fst (Helpers.placed_service ~seed:23 ~n ~h config) in
      let sync = make () and async = make () in
      List.iter
        (fun (start, step, t) ->
          let order = Probe_order.to_list (Probe_order.stride ~n ~start ~step) in
          let r = Probe.stride (Service.cluster sync) ~start ~step ~t in
          let o =
            run_lookup ~latency:(fun () -> 0.) ~timeout:1. ~order ~t (Service.cluster async)
          in
          Alcotest.(check (list int))
            (Printf.sprintf "%s start=%d step=%d t=%d" (Service.name sync) start step t)
            (Helpers.sorted_ids r.Lookup_result.entries)
            (Helpers.sorted_ids o.Async_client.result.Lookup_result.entries))
        [ (0, 1, 35); (3, 2, 35); (7, 3, 10); (1, 1, 60); (5, 2, 100) ])
    configs

let () =
  Helpers.run "async_client"
    [ ( "async_client",
        [ Alcotest.test_case "sequential sum" `Quick test_sequential_latency_is_sum;
          Alcotest.test_case "parallel max" `Quick test_parallel_wave_latency_is_max;
          Alcotest.test_case "timeout masking" `Quick test_timeout_masks_failure;
          Alcotest.test_case "exhausted order" `Quick test_exhausted_order_reports_short;
          Alcotest.test_case "stops when satisfied" `Quick test_stops_as_soon_as_satisfied;
          Alcotest.test_case "truncates" `Quick test_truncates_to_target;
          Alcotest.test_case "fires once" `Quick test_callback_fires_once;
          Alcotest.test_case "late reply dropped" `Quick test_late_reply_dropped;
          Alcotest.test_case "timed-out contact counted" `Quick
            test_timed_out_contact_counts_toward_cost;
          Alcotest.test_case "retry masks transient failure" `Quick
            test_retry_masks_transient_failure;
          Alcotest.test_case "backoff stretches timeouts" `Quick
            test_backoff_stretches_timeouts;
          Alcotest.test_case "duplicate replies suppressed" `Quick
            test_duplicate_replies_suppressed;
          Alcotest.test_case "lossy jittered lookup" `Quick
            test_lookup_over_lossy_jittered_network;
          Alcotest.test_case "lossy lookup deterministic" `Quick
            test_lossy_lookup_deterministic;
          Alcotest.test_case "deadline gives up" `Quick
            test_deadline_gives_up_with_partial_result;
          Alcotest.test_case "hedge first reply wins" `Quick test_hedge_first_reply_wins;
          Alcotest.test_case "hedge neutral when fast" `Quick
            test_hedge_is_neutral_when_replies_are_fast;
          Alcotest.test_case "breaker opens and skips" `Quick
            test_breaker_opens_after_threshold_and_skips;
          Alcotest.test_case "breaker half-open probe" `Quick test_breaker_half_open_probe;
          Alcotest.test_case "busy nack abandons contact" `Quick
            test_busy_nack_abandons_contact;
          Alcotest.test_case "jitter bounds and pins" `Quick
            test_jitter_bounds_and_pins_both_modes;
          Alcotest.test_case "spans at engine time" `Quick test_spans_carry_engine_time;
          Alcotest.test_case "validation" `Quick test_validation;
          prop_async_agrees_with_sync_on_answers;
          prop_results_come_from_answers;
          Alcotest.test_case "kept set uniform over union" `Quick test_kept_set_uniform;
          Alcotest.test_case "target above set size" `Quick test_target_above_set_size;
          Alcotest.test_case "sync and async agree per strategy" `Quick
            test_sync_and_async_agree ] ) ]
