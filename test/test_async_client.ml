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
          (Cluster.pick cluster dst t)
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
            (Cluster.pick cluster dst t)
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
              Cluster.pick cluster dst t
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
     clusters, one probed by a [Stride] lookup, the other by the async
     client walking the same stride as an explicit order at zero
     latency, its start drawn from its own cluster's generator as the
     lookup draws it.  Both merge the same answers in the same order
     through the same draws, so they return the same entries, for every
     registered strategy. *)
  let n = 10 and h = 100 in
  let configs = Service.all_configs ~ablations:true ~budget:200 ~n ~h () in
  Alcotest.(check bool) "every registered strategy" true
    (List.length configs >= List.length (Strategy_registry.all ()));
  List.iter
    (fun config ->
      let make () = fst (Helpers.placed_service ~seed:23 ~n ~h config) in
      let sync = make () and async = make () in
      List.iter
        (fun (step, t) ->
          let start = Plookup_util.Rng.int (Cluster.rng (Service.cluster async)) n in
          let order = Probe_order.to_list (Probe_order.stride ~n ~start ~step) in
          let r = Probe.lookup (Service.cluster sync) (Strategy_intf.Stride step) ~t in
          let o =
            run_lookup ~latency:(fun () -> 0.) ~timeout:1. ~order ~t (Service.cluster async)
          in
          Alcotest.(check (list int))
            (Printf.sprintf "%s start=%d step=%d t=%d" (Service.name sync) start step t)
            (Helpers.sorted_ids r.Lookup_result.entries)
            (Helpers.sorted_ids o.Async_client.result.Lookup_result.entries))
        [ (1, 35); (2, 35); (3, 10); (1, 60); (2, 100) ])
    configs

(* {2 One timer per lookup}

   [Reference] is the client as it was when every expiry was its own
   engine event: a closure per deadline, per hedge and per attempt
   timeout, and a pair of flags per attempt that turns the loser of each
   reply/timeout race into a no-op.  Expiries, replies and draws must
   interleave exactly as they did, so both clients give the same
   outcomes and spans. *)
module Reference = struct
  module Trace = Plookup_obs.Trace
  module Breaker = Async_client.Breaker

  type state = {
    cluster : Cluster.t;
    engine : Engine.t;
    latency : unit -> float;
    timeout : float;
    retries_allowed : int;
    wave : int;
    target : int;
    hedge : float option;
    breaker : Breaker.t option;
    jitter : Plookup_util.Rng.t option;
    seen : Answer_set.Buffer.t;
    order : Probe_order.t;
    mutable inflight : int;
    mutable contacted : int;
    mutable attempts : int;
    mutable retries : int;
    mutable timeouts : int;
    mutable duplicates : int;
    mutable busies : int;
    mutable hedges : int;
    mutable breaker_skips : int;
    mutable gave_up : bool;
    mutable finished : bool;
    started_at : float;
    k : Async_client.outcome -> unit;
  }

  let finish st =
    if not st.finished then begin
      st.finished <- true;
      let entries =
        Answer_set.Buffer.pick st.seen ~rng:(Cluster.rng st.cluster) ~target:st.target
      in
      st.k
        { Async_client.result =
            { Lookup_result.entries; servers_contacted = st.contacted; target = st.target };
          started_at = st.started_at;
          completed_at = Engine.now st.engine;
          attempts = st.attempts;
          retries = st.retries;
          timeouts = st.timeouts;
          duplicates = st.duplicates;
          busies = st.busies;
          hedges = st.hedges;
          breaker_skips = st.breaker_skips;
          gave_up = st.gave_up }
    end

  let satisfied st = Answer_set.Buffer.length st.seen >= st.target

  let rec next_candidate st =
    match Probe_order.next st.order with
    | None -> None
    | Some server -> (
      match st.breaker with
      | Some b when not (Breaker.allow b server ~now:(Engine.now st.engine)) ->
        st.breaker_skips <- st.breaker_skips + 1;
        next_candidate st
      | _ -> Some server)

  let record_breaker st server ~ok =
    Option.iter (fun b -> Breaker.record b server ~now:(Engine.now st.engine) ~ok) st.breaker

  let rec pump st =
    if not st.finished then begin
      if satisfied st then finish st
      else if st.inflight < st.wave then begin
        match next_candidate st with
        | Some server ->
          contact st server;
          pump st
        | None -> if st.inflight = 0 then finish st
      end
    end

  and contact st server =
    st.contacted <- st.contacted + 1;
    st.inflight <- st.inflight + 1;
    let live = ref true in
    Option.iter
      (fun delay ->
        ignore
          (Engine.schedule_after st.engine ~delay (fun _ ->
               if !live && (not st.finished) && not (satisfied st) then begin
                 match next_candidate st with
                 | Some backup ->
                   st.hedges <- st.hedges + 1;
                   contact st backup
                 | None -> ()
               end)))
      st.hedge;
    attempt st server ~live ~tries_left:st.retries_allowed ~timeout:st.timeout

  and attempt st server ~live ~tries_left ~timeout =
    st.attempts <- st.attempts + 1;
    let answered = ref false and timed_out = ref false in
    let tr = (Cluster.obs st.cluster).Plookup_obs.Obs.trace in
    ignore
      (Engine.schedule_after st.engine ~delay:timeout (fun _ ->
           if (not !answered) && not st.finished then begin
             timed_out := true;
             st.timeouts <- st.timeouts + 1;
             record_breaker st server ~ok:false;
             let tid =
               if Trace.enabled tr then
                 Trace.emit_timeout tr ~time:(Engine.now st.engine) ~dst:server ~after:timeout
               else 0
             in
             if tries_left > 0 then begin
               st.retries <- st.retries + 1;
               if Trace.enabled tr then
                 Trace.emit_retry tr ~time:(Engine.now st.engine) ~cause:tid ~dst:server
                   ~attempt:(st.retries_allowed - tries_left + 2);
               let next_timeout =
                 match st.jitter with
                 | Some rng -> Plookup_util.Dist.uniform_in rng ~lo:st.timeout ~hi:(timeout *. 3.)
                 | None -> timeout *. 2.
               in
               attempt st server ~live ~tries_left:(tries_left - 1) ~timeout:next_timeout
             end
             else begin
               live := false;
               st.inflight <- st.inflight - 1;
               pump st
             end
           end));
    Net.call_async (Cluster.net st.cluster) st.engine
      ~latency:(fun ~src:_ ~dst:_ -> st.latency ())
      ~src:Net.Client ~dst:server (Msg.lookup st.target)
      (fun reply ->
        if (not !timed_out) && not st.finished then begin
          if !answered then st.duplicates <- st.duplicates + 1
          else begin
            answered := true;
            live := false;
            st.inflight <- st.inflight - 1;
            (match reply with
            | Msg.Busy ->
              st.busies <- st.busies + 1;
              record_breaker st server ~ok:false
            | Msg.Entries entries ->
              record_breaker st server ~ok:true;
              Answer_set.Buffer.merge (Cluster.answers st.cluster) st.seen entries
            | Msg.Ack | Msg.Candidate _ | Msg.Digest _ -> record_breaker st server ~ok:true);
            pump st
          end
        end)

  let make_state cluster engine ~latency ~timeout ~retries ~wave ~t ~hedge ~breaker ~jitter
      ~order k =
    { cluster;
      engine;
      latency;
      timeout;
      retries_allowed = retries;
      wave;
      target = t;
      hedge;
      breaker;
      jitter;
      seen = Answer_set.Buffer.create ~expect:(min t 64);
      order = Probe_order.of_list order;
      inflight = 0;
      contacted = 0;
      attempts = 0;
      retries = 0;
      timeouts = 0;
      duplicates = 0;
      busies = 0;
      hedges = 0;
      breaker_skips = 0;
      gave_up = false;
      finished = false;
      started_at = Engine.now engine;
      k }

  let schedule_deadline st =
    Option.iter (fun budget ->
        ignore
          (Engine.schedule_after st.engine ~delay:budget (fun _ ->
               if not st.finished then begin
                 st.gave_up <- true;
                 finish st
               end)))

  let lookup cluster engine ~latency ~timeout ?(retries = 0) ?deadline ?hedge ?breaker
      ?jitter ?cache ~order ?(wave = 1) ~t k =
    let state k =
      make_state cluster engine ~latency ~timeout ~retries ~wave ~t ~hedge ~breaker ~jitter
        ~order k
    in
    match cache with
    | None ->
      let st = state k in
      schedule_deadline st deadline;
      ignore (Engine.schedule_after engine ~delay:0. (fun _ -> pump st))
    | Some (c, key) ->
      ignore
        (Engine.schedule_after engine ~delay:0. (fun _ ->
             let started_at = Engine.now engine in
             let served result ~now =
               k
                 { Async_client.result;
                   started_at;
                   completed_at = now;
                   attempts = 0;
                   retries = 0;
                   timeouts = 0;
                   duplicates = 0;
                   busies = 0;
                   hedges = 0;
                   breaker_skips = 0;
                   gave_up = false }
             in
             let probe k =
               let st = state k in
               schedule_deadline st deadline;
               pump st
             in
             let complete (o : Async_client.outcome) =
               Client_cache.complete c ~key ~now:(Engine.now engine)
                 ~ok:((not o.gave_up) && Lookup_result.satisfied o.result)
                 ~attempts:o.attempts o.result
             in
             match Client_cache.lookup c ~key ~now:started_at ~waiter:served with
             | Client_cache.Hit r | Client_cache.Stale_wait r -> served r ~now:started_at
             | Client_cache.Join -> ()
             | Client_cache.Lead ->
               probe (fun o ->
                   complete o;
                   k o)
             | Client_cache.Stale r ->
               served r ~now:started_at;
               probe complete))
end

(* How a world draws each hop's latency: continuous in [1, 20], a
   whole number in 1 .. 20, or always 10.  The last two, with launch
   and status times in whole numbers too, make events of different
   lookups, hops and expiries fall due at the same instant. *)
type latency = Uniform | Whole | Fixed of float

(* One randomly drawn world: servers, faults, client options and a few
   lookups on one engine.  Ties within one lookup (a hedge equal to the
   timeout, a deadline at a multiple of it) are drawn on purpose, and
   whole-number worlds tie events across lookups as well. *)
type world = {
  placement : int list list;
  t : int;
  wave : int;
  retries : int;
  timeout : float;
  hedge : float option;
  deadline : float option;
  breaker : bool;
  jitter : bool;
  cache : bool;
  faults : (float * float * float) option; (* loss, duplication, jitter *)
  capacity : (float * int) option; (* service rate, queue limit *)
  status : (bool * int * float) option; (* recover?, server, time *)
  lookups : (float * int list * int) list; (* start, order, cache key *)
  latency : latency;
  seed : int;
}

let gen_world =
  let open QCheck2.Gen in
  let* latency =
    frequency [ (2, return Uniform); (1, return Whole); (1, return (Fixed 10.)) ]
  in
  let time lo hi =
    if latency = Uniform then float_range lo hi
    else map float_of_int (int_range (int_of_float lo) (int_of_float hi))
  in
  let* n = int_range 2 5 in
  let* placement = list_repeat n (list_size (int_range 0 8) (int_bound 15)) in
  let* t = int_range 1 10 in
  let* wave = int_range 1 3 in
  let* retries = int_range 0 2 in
  let* timeout = map float_of_int (int_range 10 40) in
  let* hedge =
    frequency
      [ (2, return None);
        (1, return (Some timeout));
        (2, map (fun h -> Some (float_of_int h)) (int_range 3 50)) ]
  in
  let* deadline =
    frequency
      [ (2, return None);
        (1, map (fun m -> Some (float_of_int m *. timeout)) (int_range 1 4));
        (2, map (fun d -> Some (float_of_int d)) (int_range 10 200)) ]
  in
  let* breaker = bool and* jitter = bool and* cache = bool in
  let* faults =
    option
      (triple (float_range 0. 0.3) (float_range 0. 0.3)
         (frequency [ (1, return 0.); (1, float_range 0. 5.) ]))
  in
  let* capacity =
    option
      (pair
         (if latency = Uniform then float_range 0.2 2. else oneofl [ 0.25; 0.5; 1.; 2. ])
         (int_range 1 3))
  in
  let* status = option (triple bool (int_bound (n - 1)) (time 0. 80.)) in
  let* lookups =
    list_size (int_range 1 5)
      (triple (time 0. 60.)
         (frequency
            [ (3, shuffle_l (List.init n Fun.id));
              (1, list_size (int_range 1 7) (int_bound (n - 1))) ])
         (int_bound 2))
  in
  let* seed = int_bound 10_000 in
  return
    { placement; t; wave; retries; timeout; hedge; deadline; breaker; jitter; cache; faults;
      capacity; status; lookups; latency; seed }

(* Run [w] with the client, or with [Reference], and return the
   outcomes, in callback order, and every span. *)
let play ~reference w =
  let n = List.length w.placement in
  let obs = Plookup_obs.Obs.create ~trace_capacity:100_000 () in
  let cluster = manual_cluster ~obs ~n w.placement in
  let engine = Engine.create () in
  Net.attach_engine (Cluster.net cluster) engine;
  Plookup_obs.Trace.set_enabled obs.Plookup_obs.Obs.trace true;
  Option.iter
    (fun (loss, duplication, jitter) ->
      Cluster.set_faults cluster ~seed:w.seed ~loss ~duplication ~jitter ())
    w.faults;
  Option.iter
    (fun (service_rate, queue_limit) ->
      Cluster.set_capacity cluster ~service_rate ~queue_limit ~nack:true ())
    w.capacity;
  Option.iter
    (fun (recover, server, time) ->
      if recover then Cluster.fail cluster server;
      ignore
        (Engine.schedule_at engine ~time (fun _ ->
             if recover then Cluster.recover cluster server else Cluster.fail cluster server)))
    w.status;
  let latency_rng = Plookup_util.Rng.create w.seed in
  let latency () =
    match w.latency with
    | Uniform -> Plookup_util.Dist.uniform_in latency_rng ~lo:1. ~hi:20.
    | Whole -> float_of_int (1 + Plookup_util.Rng.int latency_rng 20)
    | Fixed l -> l
  in
  let breaker =
    if w.breaker then Some (Async_client.Breaker.create ~threshold:2 ~cooldown:30. ~n ())
    else None
  in
  let jitter = if w.jitter then Some (Plookup_util.Rng.create (w.seed + 1)) else None in
  let cache =
    if w.cache then Some (Client_cache.create ~obs ~ttl:25. ~swr:15. ~capacity:2 ()) else None
  in
  let outcomes = ref [] in
  List.iteri
    (fun i (start, order, key) ->
      ignore
        (Engine.schedule_at engine ~time:start (fun _ ->
             let cache = Option.map (fun c -> (c, key)) cache in
             let k o = outcomes := (i, o) :: !outcomes in
             if reference then
               Reference.lookup cluster engine ~latency ~timeout:w.timeout ~retries:w.retries
                 ?deadline:w.deadline ?hedge:w.hedge ?breaker ?jitter ?cache ~order
                 ~wave:w.wave ~t:w.t k
             else
               Async_client.lookup cluster engine ~latency ~timeout:w.timeout
                 ~retries:w.retries ?deadline:w.deadline ?hedge:w.hedge ?breaker ?jitter
                 ?cache ~order ~wave:w.wave ~t:w.t k)))
    w.lookups;
  ignore (Engine.run engine);
  let fields (i, (o : Async_client.outcome)) =
    ( (i, List.map Entry.id o.result.Lookup_result.entries, o.result.servers_contacted),
      (o.started_at, o.completed_at),
      (o.attempts, o.retries, o.timeouts, o.duplicates),
      (o.busies, o.hedges, o.breaker_skips, o.gave_up) )
  in
  (List.rev_map fields !outcomes, Plookup_obs.Trace.spans obs.Plookup_obs.Obs.trace)

let prop_one_timer_matches_reference =
  Helpers.qcheck ~count:300 "one timer per lookup matches the closure-per-timer client"
    gen_world (fun w ->
      let got = play ~reference:false w and want = play ~reference:true w in
      if fst got <> fst want then Alcotest.fail "outcomes differ";
      if snd got <> snd want then Alcotest.fail "spans differ";
      List.length (fst got) = List.length w.lookups)

let test_expiry_before_tied_reply () =
  (* The first attempt's reply and its timeout both fall due at 20; the
     backup hedged at 15 likewise at 35.  Each timeout was registered
     before its request went out, so it goes first and both replies
     come too late. *)
  let cluster = manual_cluster ~n:2 [ [ 0; 1 ]; [ 0; 1 ] ] in
  let o = run_lookup ~timeout:20. ~hedge:15. ~order:[ 0; 1 ] ~t:2 cluster in
  Alcotest.(check bool) "unsatisfied" false (Lookup_result.satisfied o.Async_client.result);
  Helpers.check_int "two timeouts" 2 o.Async_client.timeouts;
  Helpers.check_int "one hedge" 1 o.Async_client.hedges;
  Helpers.close "ends at the backup's timeout" 35. (Async_client.elapsed o)

let test_expiry_tied_with_other_events () =
  (* The hedge and the first request's arrival both fall due at 10.  The
     hedge was registered before the request went out, so it fires
     first: the backup's request leaves before server 0 receives the
     first, as with one event per expiry. *)
  let w =
    { placement = [ [ 0; 1 ]; [ 2; 3 ] ];
      t = 4;
      wave = 1;
      retries = 0;
      timeout = 100.;
      hedge = Some 10.;
      deadline = None;
      breaker = false;
      jitter = false;
      cache = false;
      faults = None;
      capacity = None;
      status = None;
      lookups = [ (0., [ 0; 1 ], 0) ];
      latency = Fixed 10.;
      seed = 1 }
  in
  let got = play ~reference:false w and want = play ~reference:true w in
  Alcotest.(check bool) "outcomes match" true (fst got = fst want);
  Alcotest.(check bool) "spans match" true (snd got = snd want);
  let steps =
    List.filter_map
      (fun (s : Plookup_obs.Span.t) ->
        match s.kind with
        | Send { dst; _ } -> Some (Printf.sprintf "send %d @%g" dst s.time)
        | Recv { dst; _ } -> Some (Printf.sprintf "recv %d @%g" dst s.time)
        | _ -> None)
      (snd got)
  in
  Alcotest.(check (list string)) "hedge before the first arrival"
    [ "send 0 @0"; "send 1 @10"; "recv 0 @10"; "recv 1 @20" ]
    steps

(* Launch a lookup whose callback alone holds a fresh block, and return
   a weak pointer to that block.  Not inlined, so no register or stack
   slot of the caller keeps the block alive. *)
let[@inline never] launch_holding cluster engine fired =
  let held = Bytes.make 16 'x' in
  let weak = Weak.create 1 in
  Weak.set weak 0 (Some held);
  Async_client.lookup cluster engine
    ~latency:(fun () -> 10.)
    ~timeout:100. ~retries:2 ~deadline:250. ~hedge:50. ~order:[ 0; 1 ] ~t:2
    (fun _ ->
      ignore (Sys.opaque_identity held);
      fired := true);
  weak

let test_finished_lookup_leaves_nothing () =
  (* Server 0 satisfies the lookup at 20, so no request is in flight
     when the callback fires: nothing of the lookup may stay queued, and
     the queue must not pin what the callback captured. *)
  let cluster = manual_cluster ~n:2 [ [ 0; 1 ]; [ 2; 3 ] ] in
  let engine = Engine.create () in
  let fired = ref false in
  let weak = launch_holding cluster engine fired in
  while not !fired do
    if not (Engine.step engine) then Alcotest.fail "lookup never completed"
  done;
  Helpers.close "finished at 20" 20. (Engine.now engine);
  Helpers.check_int "no event pending" 0 (Engine.pending engine);
  Gc.full_major ();
  Alcotest.(check bool) "callback's block collected" true (Weak.get weak 0 = None);
  (* Draining after the collection keeps the engine, and whatever its
     queue still holds, alive through it. *)
  Helpers.check_int "nothing left to fire" 0 (Engine.run engine)

let test_lookup_allocates_a_buffer () =
  (* FullReplication at n = 10, h = 100, t = 35, one lookup at a time on
     healthy servers with no capacity model: its first contact answers
     35 entries.  Measured from launch to callback: 401 minor words in
     release and 415 in dev.  A whole answer set per lookup, with its own
     64-slot id and stamp tables, made it 539 and 555, past the bound. *)
  let n = 10 in
  let service, _ = Helpers.placed_service ~seed:3 ~n ~h:100 Service.full_replication in
  let cluster = Service.cluster service in
  let engine = Engine.create () in
  Net.attach_engine (Cluster.net cluster) engine;
  let order = List.init n Fun.id in
  let lookup () =
    Async_client.lookup cluster engine ~latency:(fun () -> 10.) ~timeout:100. ~order ~t:35 ignore;
    ignore (Engine.run engine)
  in
  lookup ();
  let lookups = 200 in
  let before = Gc.minor_words () in
  for _ = 1 to lookups do
    lookup ()
  done;
  let per_lookup = (Gc.minor_words () -. before) /. float_of_int lookups in
  if per_lookup > 480. then
    Alcotest.failf "%.1f minor words per async lookup (bound 480)" per_lookup

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
            test_sync_and_async_agree;
          prop_one_timer_matches_reference;
          Alcotest.test_case "expiry before tied reply" `Quick test_expiry_before_tied_reply;
          Alcotest.test_case "expiry tied with other events" `Quick
            test_expiry_tied_with_other_events;
          Alcotest.test_case "finished lookup leaves no timer and pins nothing" `Quick
            test_finished_lookup_leaves_nothing;
          Alcotest.test_case "lookup allocates a buffer, not a set" `Quick
            test_lookup_allocates_a_buffer ] ) ]
