module Net = Plookup_net.Net
module Engine = Plookup_sim.Engine

(* A toy echo protocol: servers reply with (their id, the message). *)
let make ?(n = 4) () =
  let net = Net.create ~n () in
  Net.set_handler net (fun dst _src msg -> (dst, msg));
  net

let test_send_and_reply () =
  let net = make () in
  (match Net.send net ~src:Net.Client ~dst:2 "hi" with
  | Some (2, "hi") -> ()
  | _ -> Alcotest.fail "bad reply");
  Helpers.check_int "one message" 1 (Net.messages_received net);
  Helpers.check_int "dst counted" 1 (Net.messages_received_by net 2);
  Helpers.check_int "others zero" 0 (Net.messages_received_by net 0);
  Helpers.check_int "client request" 1 (Net.client_requests net)

let test_server_to_server_not_client () =
  let net = make () in
  ignore (Net.send net ~src:(Net.Server 0) ~dst:1 "x");
  Helpers.check_int "no client request" 0 (Net.client_requests net);
  Helpers.check_int "message counted" 1 (Net.messages_received net)

(* Broadcast, collecting the replies in arrival order. *)
let broadcast_replies net ~src msg =
  let replies = ref [] in
  Net.broadcast net ~src msg ~on_reply:(fun dst reply -> replies := (dst, reply) :: !replies);
  List.rev !replies

let test_broadcast_costs_n () =
  let net = make ~n:5 () in
  let replies = broadcast_replies net ~src:(Net.Server 1) "b" in
  Helpers.check_int "all reply" 5 (List.length replies);
  Helpers.check_int "cost n" 5 (Net.messages_received net);
  Helpers.check_int "one broadcast" 1 (Net.broadcasts net);
  (* Deliveries run from the highest id down, including the sender. *)
  Alcotest.(check (list int)) "delivery order" [ 4; 3; 2; 1; 0 ] (List.map fst replies);
  Alcotest.(check bool) "each reply from its server" true
    (List.for_all (fun (dst, (from, msg)) -> dst = from && msg = "b") replies);
  (* Without [on_reply] the replies are dropped but the cost is the same. *)
  Net.broadcast net ~src:Net.Client "c";
  Helpers.check_int "cost 2n" 10 (Net.messages_received net)

let test_failure_drops () =
  let net = make () in
  Net.fail net 1;
  Alcotest.(check bool) "down" false (Net.is_up net 1);
  (match Net.send net ~src:Net.Client ~dst:1 "lost" with
  | None -> ()
  | Some _ -> Alcotest.fail "delivered to failed node");
  Helpers.check_int "dropped" 1 (Net.messages_dropped net);
  Helpers.check_int "not received" 0 (Net.messages_received net);
  Net.recover net 1;
  Alcotest.(check bool) "recovered" true (Net.is_up net 1);
  ignore (Net.send net ~src:Net.Client ~dst:1 "ok");
  Helpers.check_int "received after recovery" 1 (Net.messages_received net)

let test_broadcast_skips_failed () =
  let net = make ~n:4 () in
  Net.fail net 0;
  Net.fail net 3;
  let replies = broadcast_replies net ~src:Net.Client "b" in
  Alcotest.(check (list int)) "only up servers" [ 2; 1 ] (List.map fst replies);
  Helpers.check_int "cost = up servers" 2 (Net.messages_received net);
  Helpers.check_int "dropped two" 2 (Net.messages_dropped net)

let test_fail_exactly () =
  let net = make ~n:5 () in
  Net.fail net 0;
  Net.fail_exactly net [ 2; 4 ];
  Alcotest.(check (list int)) "up set" [ 0; 1; 3 ] (Net.up_servers net)

let test_reset_counters () =
  let net = make () in
  Net.broadcast net ~src:Net.Client "x";
  Net.reset_counters net;
  Helpers.check_int "received reset" 0 (Net.messages_received net);
  Helpers.check_int "broadcasts reset" 0 (Net.broadcasts net);
  Helpers.check_int "client reset" 0 (Net.client_requests net);
  Helpers.check_int "dropped reset" 0 (Net.messages_dropped net)

let test_no_handler () =
  let net : (string, unit) Net.t = Net.create ~n:2 () in
  Alcotest.check_raises "no handler" (Invalid_argument "Net: no handler installed")
    (fun () -> ignore (Net.send net ~src:Net.Client ~dst:0 "x"))

let test_bad_index () =
  let net = make () in
  Alcotest.check_raises "range" (Invalid_argument "Net: server index out of range")
    (fun () -> ignore (Net.send net ~src:Net.Client ~dst:9 "x"))

let test_create_validation () =
  Alcotest.check_raises "n = 0" (Invalid_argument "Net.create: n must be positive")
    (fun () -> ignore (Net.create ~n:0 () : (unit, unit) Net.t))

let test_wrap_handler () =
  let net = make ~n:2 () in
  let seen = ref [] in
  Net.wrap_handler net (fun inner dst src msg ->
      seen := msg :: !seen;
      inner dst src (msg ^ "!"));
  (match Net.send net ~src:Net.Client ~dst:1 "hi" with
  | Some (1, "hi!") -> ()
  | _ -> Alcotest.fail "wrapper did not transform");
  Alcotest.(check (list string)) "wrapper observed" [ "hi" ] !seen;
  (* Wrapping composes. *)
  Net.wrap_handler net (fun inner dst src msg -> inner dst src (msg ^ "?"));
  (match Net.send net ~src:Net.Client ~dst:0 "x" with
  | Some (0, "x?!") -> ()
  | _ -> Alcotest.fail "wrappers did not compose")

let test_wrap_handler_requires_handler () =
  let net : (string, unit) Net.t = Net.create ~n:2 () in
  Alcotest.check_raises "no handler" (Invalid_argument "Net.wrap_handler: no handler installed")
    (fun () -> Net.wrap_handler net (fun inner -> inner))

let test_status_listener () =
  let net = make ~n:3 () in
  let events = ref [] in
  Net.add_status_listener net (fun i ~up -> events := (i, up) :: !events);
  Net.fail net 1;
  Net.fail net 1 (* repeat: no transition, no event *);
  Net.recover net 1;
  Net.recover net 2 (* already up: no event *);
  Alcotest.(check (list (pair int bool))) "transitions only" [ (1, false); (1, true) ]
    (List.rev !events)

let test_fail_exactly_notifies () =
  let net = make ~n:3 () in
  Net.fail net 0;
  let events = ref [] in
  Net.add_status_listener net (fun i ~up -> events := (i, up) :: !events);
  Net.fail_exactly net [ 2 ];
  (* 0 recovers (transition), 2 fails (transition); 1 untouched. *)
  Alcotest.(check (list (pair int bool))) "recover then fail" [ (0, true); (2, false) ]
    (List.rev !events)

let test_async_is_delayed () =
  let engine = Engine.create () in
  let got = ref [] in
  let net = Net.create ~n:3 () in
  Net.set_handler net (fun dst _src msg ->
      got := (Engine.now engine, dst, msg) :: !got);
  let call dst msg =
    Net.call_async net engine
      ~latency:(fun ~src:_ ~dst -> 1. +. float_of_int dst)
      ~src:Net.Client ~dst msg ignore
  in
  call 2 "slow";
  call 0 "fast";
  Alcotest.(check bool) "not delivered yet" true (!got = []);
  ignore (Engine.run engine);
  (match List.rev !got with
  | [ (t0, 0, "fast"); (t2, 2, "slow") ] ->
    Helpers.close "latency 1" 1. t0;
    Helpers.close "latency 3" 3. t2
  | _ -> Alcotest.fail "unexpected delivery order")

let test_async_clean_round_trip () =
  (* A fault-free, unpartitioned link: one event per hop, one latency
     draw and one delay observation per hop, whatever a cleared fault
     layer would have done. *)
  let metrics = Plookup_obs.Metrics.create () in
  let net = Net.create ~metrics ~n:2 () in
  Net.set_handler net (fun _ _ msg -> msg);
  Net.set_faults net ~seed:3 ~loss:0.5 ~duplication:0.5 ~jitter:4. ();
  Net.clear_faults net;
  let engine = Engine.create () in
  let draws = ref 0 and replies = ref [] in
  Net.call_async net engine
    ~latency:(fun ~src:_ ~dst:_ ->
      incr draws;
      2.5)
    ~src:Net.Client ~dst:1 "ping"
    (fun r -> replies := (Engine.now engine, r) :: !replies);
  Helpers.check_int "events" 2 (Engine.run engine);
  Helpers.check_int "draws" 2 !draws;
  Alcotest.(check (list (pair (float 1e-9) string))) "one reply" [ (5., "ping") ] !replies;
  let delays =
    List.filter_map
      (fun (e : Plookup_obs.Metrics.entry) ->
        match e.v with
        | Plookup_obs.Metrics.Histogram { count; sum; _ } when e.name = "net.delivery.delay" ->
          Some (count, sum)
        | _ -> None)
      (Plookup_obs.Metrics.snapshot metrics)
  in
  Alcotest.(check (list (pair int (float 1e-9)))) "delays observed" [ (2, 5.) ] delays

(* One engine-routed round trip from the client at a fixed per-hop
   latency, its reply ignored. *)
let call_after latency net engine ~dst msg =
  Net.call_async net engine ~latency:(fun ~src:_ ~dst:_ -> latency) ~src:Net.Client ~dst msg
    ignore

let test_async_to_failed_node_after_delay () =
  (* Liveness is checked at delivery time, not call time. *)
  let engine = Engine.create () in
  let net = Net.create ~n:2 () in
  Net.set_handler net (fun _ _ _ -> Alcotest.fail "should be dropped");
  call_after 5. net engine ~dst:1 ();
  Net.fail net 1;
  ignore (Engine.run engine);
  Helpers.check_int "dropped at delivery" 1 (Net.messages_dropped net)

(* {2 Fault injection} *)

let test_loss_drops_and_counts () =
  let net = make ~n:2 () in
  Net.set_faults net ~seed:7 ~loss:0.5 ();
  let sent = 400 in
  let delivered = ref 0 in
  for i = 1 to sent do
    match Net.send net ~src:Net.Client ~dst:(i mod 2) "m" with
    | Some _ -> incr delivered
    | None -> ()
  done;
  Helpers.check_int "received matches deliveries" !delivered (Net.messages_received net);
  Helpers.check_int "every send delivered or lost" sent
    (!delivered + Net.messages_lost net);
  Alcotest.(check bool) "some were lost" true (Net.messages_lost net > 0);
  Alcotest.(check bool) "some got through" true (!delivered > 0);
  Helpers.check_int "loss is not the down-server counter" 0 (Net.messages_dropped net)

let test_duplication_delivers_twice () =
  let net = make ~n:2 () in
  Net.set_faults net ~seed:3 ~duplication:1.0 ();
  for _ = 1 to 10 do
    match Net.send net ~src:Net.Client ~dst:1 "m" with
    | Some (1, "m") -> ()
    | _ -> Alcotest.fail "reply lost"
  done;
  Helpers.check_int "each send processed twice" 20 (Net.messages_received net);
  Helpers.check_int "duplicates counted" 10 (Net.duplicates_delivered net)

let test_jitter_bounds_delay () =
  let engine = Engine.create () in
  let net = Net.create ~n:1 () in
  let times = ref [] in
  Net.set_handler net (fun _ _ () -> times := Engine.now engine :: !times);
  Net.set_faults net ~seed:5 ~jitter:2. ();
  for _ = 1 to 30 do
    call_after 5. net engine ~dst:0 ()
  done;
  ignore (Engine.run engine);
  Helpers.check_int "all delivered" 30 (List.length !times);
  List.iter
    (fun t ->
      if t < 5. || t >= 7. then Alcotest.failf "delivery at %f outside [5, 7)" t)
    !times;
  Alcotest.(check bool) "jitter actually spreads deliveries" true
    (List.length (List.sort_uniq compare !times) > 1)

let test_fault_toggle_mid_run () =
  (* The fault layer acts exactly while it is installed. *)
  let net = make ~n:1 () in
  Net.set_faults net ~seed:1 ~loss:0.9 ();
  for _ = 1 to 50 do
    ignore (Net.send net ~src:Net.Client ~dst:0 "m")
  done;
  let lost = Net.messages_lost net in
  Alcotest.(check bool) "installed faults lose messages" true (lost > 0);
  Net.clear_faults net;
  for _ = 1 to 50 do
    match Net.send net ~src:Net.Client ~dst:0 "m" with
    | Some _ -> ()
    | None -> Alcotest.fail "cleared faults still dropped a message"
  done;
  Helpers.check_int "nothing lost once cleared" lost (Net.messages_lost net);
  Net.set_faults net ~seed:1 ~loss:0.9 ();
  for _ = 1 to 50 do
    ignore (Net.send net ~src:Net.Client ~dst:0 "m")
  done;
  Alcotest.(check bool) "reinstalled faults lose messages" true
    (Net.messages_lost net > lost)

let test_fault_determinism () =
  (* Same seed => identical drop/duplicate/jitter schedule, independent
     of anything but the per-link traffic sequence. *)
  let schedule seed =
    let engine = Engine.create () in
    let net = Net.create ~n:3 () in
    let log = ref [] in
    Net.set_handler net (fun dst _src msg -> log := (Engine.now engine, dst, msg) :: !log);
    Net.set_faults net ~seed ~loss:0.2 ~duplication:0.2 ~jitter:3. ();
    for i = 1 to 60 do
      call_after 5. net engine ~dst:(i mod 3) i
    done;
    ignore (Engine.run engine);
    (List.rev !log, Net.messages_lost net, Net.duplicates_delivered net)
  in
  Alcotest.(check bool) "same seed, same schedule" true (schedule 42 = schedule 42);
  Alcotest.(check bool) "different seed, different schedule" true
    (schedule 42 <> schedule 43)

let test_set_faults_validation () =
  let net = make () in
  Alcotest.check_raises "loss = 1" (Invalid_argument "Net.set_faults: loss must be in [0, 1)")
    (fun () -> Net.set_faults net ~seed:0 ~loss:1.0 ());
  Alcotest.check_raises "negative jitter"
    (Invalid_argument "Net.set_faults: jitter must be non-negative") (fun () ->
      Net.set_faults net ~seed:0 ~jitter:(-1.) ())

(* {2 Partitions} *)

let test_partition_blocks_crossing_links () =
  let net = make ~n:4 () in
  Net.partition net ~name:"split" ~a:[ 0; 1 ] ~b:[ 2; 3 ] ();
  (* Clients default to side A. *)
  (match Net.send net ~src:Net.Client ~dst:0 "m" with
  | Some _ -> ()
  | None -> Alcotest.fail "client to own side blocked");
  (match Net.send net ~src:Net.Client ~dst:2 "m" with
  | None -> ()
  | Some _ -> Alcotest.fail "client crossed the cut");
  (match Net.send net ~src:(Net.Server 0) ~dst:3 "m" with
  | None -> ()
  | Some _ -> Alcotest.fail "server crossed the cut");
  (match Net.send net ~src:(Net.Server 2) ~dst:3 "m" with
  | Some _ -> ()
  | None -> Alcotest.fail "same-side servers blocked");
  Helpers.check_int "blocked counted" 2 (Net.messages_blocked net);
  Alcotest.(check bool) "reachable agrees" false
    (Net.reachable net ~src:Net.Client ~dst:2);
  Alcotest.(check bool) "reachable same side" true
    (Net.reachable net ~src:Net.Client ~dst:1)

let test_partition_client_side_b () =
  let net = make ~n:2 () in
  Net.partition net ~name:"p" ~clients:`B ~a:[ 0 ] ~b:[ 1 ] ();
  (match Net.send net ~src:Net.Client ~dst:0 "m" with
  | None -> ()
  | Some _ -> Alcotest.fail "client should sit on side B");
  match Net.send net ~src:Net.Client ~dst:1 "m" with
  | Some _ -> ()
  | None -> Alcotest.fail "client to side B blocked"

let test_partition_unlisted_servers_unaffected () =
  let net = make ~n:3 () in
  Net.partition net ~name:"p" ~a:[ 0 ] ~b:[ 1 ] ();
  (* Server 2 is on neither side: it talks to everyone. *)
  (match Net.send net ~src:(Net.Server 2) ~dst:0 "m" with
  | Some _ -> ()
  | None -> Alcotest.fail "unlisted server blocked");
  match Net.send net ~src:(Net.Server 2) ~dst:1 "m" with
  | Some _ -> ()
  | None -> Alcotest.fail "unlisted server blocked"

let test_heal_restores_links () =
  let net = make ~n:2 () in
  Net.partition net ~name:"p" ~a:[ 0 ] ~b:[ 1 ] ();
  Alcotest.(check (list string)) "active" [ "p" ] (Net.partitions net);
  Net.heal net ~name:"p";
  Alcotest.(check (list string)) "healed" [] (Net.partitions net);
  match Net.send net ~src:(Net.Server 0) ~dst:1 "m" with
  | Some _ -> ()
  | None -> Alcotest.fail "healed link still blocked"

let test_partitions_compose () =
  let net = make ~n:3 () in
  Net.partition net ~name:"p1" ~a:[ 0 ] ~b:[ 1 ] ();
  Net.partition net ~name:"p2" ~a:[ 0 ] ~b:[ 2 ] ();
  Alcotest.(check bool) "p1 cuts" false (Net.reachable net ~src:(Net.Server 0) ~dst:1);
  Alcotest.(check bool) "p2 cuts" false (Net.reachable net ~src:(Net.Server 0) ~dst:2);
  Net.heal net ~name:"p1";
  Alcotest.(check bool) "p1 healed" true (Net.reachable net ~src:(Net.Server 0) ~dst:1);
  Alcotest.(check bool) "p2 still cuts" false
    (Net.reachable net ~src:(Net.Server 0) ~dst:2);
  Net.heal_all net;
  Alcotest.(check bool) "all healed" true (Net.reachable net ~src:(Net.Server 0) ~dst:2)

let test_partition_validation () =
  let net = make ~n:2 () in
  Alcotest.check_raises "both sides"
    (Invalid_argument "Net.partition: a server cannot be on both sides") (fun () ->
      Net.partition net ~name:"bad" ~a:[ 0 ] ~b:[ 0 ] ())

let test_up_tracking_matches_list () =
  (* up_count / kth_up are the O(1) views of up_servers (kth_up is
     O(log n) while a server is down); they must agree with the list
     through an arbitrary fail/recover history, in the all-up state at
     both ends of it, and reject the same out-of-range ranks. *)
  let net = make ~n:9 () in
  let check () =
    let sorted = Net.up_servers net in
    Helpers.check_int "up_count" (List.length sorted) (Net.up_count net);
    List.iteri
      (fun k expected -> Helpers.check_int "kth_up" expected (Net.kth_up net k))
      sorted;
    List.iter
      (fun k ->
        Alcotest.check_raises (Printf.sprintf "kth_up %d" k)
          (Invalid_argument "Net.kth_up: rank out of range") (fun () ->
            ignore (Net.kth_up net k)))
      [ -1; List.length sorted ]
  in
  check ();
  Helpers.check_int "all up" 9 (Net.up_count net);
  List.iter
    (fun (op, s) ->
      (match op with `Fail -> Net.fail net s | `Recover -> Net.recover net s);
      check ())
    [ (`Fail, 2); (`Fail, 7); (`Fail, 0); (`Recover, 7); (`Fail, 8); (`Recover, 2);
      (`Fail, 4); (`Fail, 1); (`Recover, 0) ];
  List.iter
    (fun s ->
      Net.recover net s;
      check ())
    [ 8; 4; 1 ];
  Helpers.check_int "all up again" 9 (Net.up_count net)

let test_random_up_server_draws_one_rank () =
  (* Cluster.random_up_server is one Rng.int over the up count, resolved
     by kth_up: the same server, and the generator left where a copy
     that made that one draw is.  With 0, 1 and n - 1 servers down. *)
  let n = 7 in
  List.iter
    (fun down ->
      let cluster = Plookup.Cluster.create ~seed:11 ~n () in
      List.iter (Plookup.Cluster.fail cluster) down;
      let net = Plookup.Cluster.net cluster in
      let rng = Plookup.Cluster.rng cluster in
      for _ = 1 to 50 do
        let copy = Plookup_util.Rng.copy rng in
        let expected = Net.kth_up net (Plookup_util.Rng.int copy (Net.up_count net)) in
        Alcotest.(check (option int))
          (Printf.sprintf "%d down" (List.length down))
          (Some expected)
          (Plookup.Cluster.random_up_server cluster);
        Alcotest.(check int64) "same generator state" (Plookup_util.Rng.bits64 copy)
          (Plookup_util.Rng.bits64 rng)
      done)
    [ []; [ 3 ]; List.init (n - 1) Fun.id ]

let prop_message_count_additive =
  Helpers.qcheck "k sends = k received messages"
    QCheck2.Gen.(int_range 0 200)
    (fun k ->
      let net = make ~n:3 () in
      for i = 1 to k do
        ignore (Net.send net ~src:Net.Client ~dst:(i mod 3) "m")
      done;
      Net.messages_received net = k
      && Net.messages_received_by net 0
         + Net.messages_received_by net 1
         + Net.messages_received_by net 2
         = k)

(* {2 Tracing never changes synchronous delivery}

   One random schedule of failures, recoveries, partitions, sends and
   broadcasts, run on an untraced network and on traced ones with the
   same fault seed: record-all, sampled, plane-filtered and one
   streaming JSONL.  Tracing is an observer, so replies, the order of
   handler calls and every counter must agree; and the record-all trace
   must show each transmission as one Send plus one Recv per delivered
   copy, or one Drop with the reason the network's state predicts. *)

module Trace = Plookup_obs.Trace
module Span = Plookup_obs.Span
module Sink = Plookup_obs.Sink
module Metrics = Plookup_obs.Metrics

let plane_names = [| "data"; "strategy"; "repair" |]

let sync_op_gen =
  let open QCheck2.Gen in
  let server = int_range 0 7 and src = int_range (-1) 7 and plane = int_range 0 2 in
  let name = oneofl [ "p"; "q" ] in
  frequency
    [ (2, map (fun s -> `Fail s) server);
      (2, map (fun s -> `Recover s) server);
      ( 1,
        map3
          (fun name sides clients -> `Partition (name, sides, clients))
          name
          (list_repeat 8 (int_range 0 2))
          (oneofl [ `A; `B ]) );
      (1, map (fun name -> `Heal name) name);
      (6, map3 (fun s d p -> `Send (s, d, p)) src server plane);
      (3, map2 (fun s p -> `Broadcast (s, p)) src plane) ]

let sync_schedule_gen =
  QCheck2.Gen.(
    quad (int_range 1 8)
      (opt (pair (float_range 0. 0.5) (float_range 0. 0.5)))
      (int_range 0 10_000)
      (list_size (int_range 0 60) sync_op_gen))

(* Run a schedule.  Returns the replies, the handler calls, the
   network's metrics snapshot (received per server and per plane,
   dropped, lost, blocked, duplicated, client requests, broadcasts) and,
   per transmission in order, its endpoints plus whether a partition
   allowed it and whether its destination was up. *)
let run_sync_schedule ?trace (n, faults, seed, ops) =
  let metrics = Metrics.create () in
  let net = Net.create ~metrics ~n () in
  let calls = ref [] in
  Net.set_handler net (fun dst src msg ->
      calls := (dst, src, msg) :: !calls;
      (dst, msg));
  Net.set_planes net ~names:plane_names ~classify:fst;
  Option.iter
    (fun tr ->
      let codes = Array.map (fun plane -> Trace.intern_message tr ~plane ~msg:"m") plane_names in
      Net.set_trace net tr ~coder:(fun (p, _) -> codes.(p)))
    trace;
  Option.iter (fun (loss, duplication) -> Net.set_faults net ~seed ~loss ~duplication ()) faults;
  let sender s = if s < 0 then Net.Client else Net.Server (s mod n) in
  let replies = ref [] and transmissions = ref [] in
  let note src dst =
    transmissions :=
      (src, dst, Net.reachable net ~src ~dst, Net.is_up net dst) :: !transmissions
  in
  List.iteri
    (fun i op ->
      match op with
      | `Fail s -> Net.fail net (s mod n)
      | `Recover s -> Net.recover net (s mod n)
      | `Partition (name, sides, clients) ->
        let side k = List.filter (fun i -> List.nth sides i = k) (List.init n Fun.id) in
        Net.partition net ~name ~clients ~a:(side 1) ~b:(side 2) ()
      | `Heal name -> Net.heal net ~name
      | `Send (s, d, p) ->
        let src = sender s and dst = d mod n in
        note src dst;
        replies := `Send (Net.send net ~src ~dst (p, i)) :: !replies
      | `Broadcast (s, p) ->
        let src = sender s in
        for dst = n - 1 downto 0 do
          note src dst
        done;
        let got = ref [] in
        Net.broadcast net ~src ~on_reply:(fun dst r -> got := (dst, r) :: !got) (p, i);
        replies := `Broadcast (List.rev !got) :: !replies)
    ops;
  ( (List.rev !replies, List.rev !calls, Metrics.snapshot metrics),
    (List.rev !transmissions, net) )

(* Walk a record-all trace against the transmissions, tallying what it
   shows; [None] when some transmission is not one Send followed by its
   expected resolution. *)
let tally_sync_spans spans transmissions =
  let actor = function Net.Client -> Span.Client | Net.Server i -> Span.Server i in
  let rec go spans txs ((recv, down, lost, blocked, dup) as acc) =
    match (txs, spans) with
    | [], [] -> Some acc
    | (src, dst, reach, up) :: txs, { Span.id; cause = None; kind = Send s; _ } :: rest
      when s.src = actor src && s.dst = dst ->
      let rec children acc = function
        | ({ Span.cause = Some c; _ } as sp) :: rest when c = id -> children (sp :: acc) rest
        | rest -> (List.rev acc, rest)
      in
      let kids, rest = children [] rest in
      let to_dst = function
        | Span.Recv r -> r.dst = dst && r.src = actor src
        | Span.Drop d -> d.dst = dst && d.src = actor src
        | _ -> false
      in
      let reason = function Span.Drop d -> Some d.reason | _ -> None in
      let kinds = List.map (fun (sp : Span.t) -> sp.kind) kids in
      if not (List.for_all to_dst kinds) then None
      else begin
        match (List.map reason kinds, reach, up) with
        | [ Some Span.Blocked ], false, _ -> go rest txs (recv, down, lost, blocked + 1, dup)
        | [ Some Span.Lost ], true, _ -> go rest txs (recv, down, lost + 1, blocked, dup)
        | ([ None ] | [ None; None ]), true, true ->
          let k = List.length kinds in
          go rest txs (recv + k, down, lost, blocked, dup + k - 1)
        | ([ Some Span.Down ] | [ Some Span.Down; Some Span.Down ]), true, false ->
          let k = List.length kinds in
          go rest txs (recv, down + k, lost, blocked, dup + k - 1)
        | _ -> None
      end
    | _ -> None
  in
  go spans transmissions (0, 0, 0, 0, 0)

let prop_tracing_never_changes_sync_delivery =
  Helpers.qcheck "tracing never changes sync delivery" sync_schedule_gen (fun schedule ->
      let traced ?sample ?planes () =
        let tr = Trace.create ?sample ?planes () in
        Trace.set_enabled tr true;
        tr
      in
      let bare, _ = run_sync_schedule schedule in
      let all = traced () in
      let all_out, (transmissions, net) = run_sync_schedule ~trace:all schedule in
      let path = Filename.temp_file "plookup_net" ".jsonl" in
      let oc = open_out path in
      let streamed = traced () in
      Trace.add_sink streamed (Sink.jsonl oc);
      let streamed_out, _ = run_sync_schedule ~trace:streamed schedule in
      close_out oc;
      let lines = In_channel.with_open_text path In_channel.input_all in
      Sys.remove path;
      let spans = Trace.spans all in
      let same_as_bare trace = fst (run_sync_schedule ~trace schedule) = bare in
      all_out = bare && streamed_out = bare
      && same_as_bare (traced ~sample:0.3 ())
      && same_as_bare (traced ~planes:[ "strategy" ] ())
      && lines = String.concat "" (List.map (fun sp -> Span.to_json sp ^ "\n") spans)
      && tally_sync_spans spans transmissions
         = Some
             ( Net.messages_received net,
               Net.messages_dropped net,
               Net.messages_lost net,
               Net.messages_blocked net,
               Net.duplicates_delivered net ))

(* {2 Capacity model (queueing, shedding, gray failure)} *)

let test_capacity_queueing_serializes_service () =
  (* service_rate 0.5 => 2 time units per request: three requests
     arriving together at t=5 are served at 7, 9 and 11. *)
  let engine = Engine.create () in
  let net = Net.create ~n:1 () in
  let served = ref [] in
  Net.set_handler net (fun _ _ () -> served := Engine.now engine :: !served);
  Net.set_capacity net ~service_rate:0.5 ~queue_limit:10 ();
  Alcotest.(check bool) "capacity installed" true (Net.has_capacity net);
  for _ = 1 to 3 do
    call_after 5. net engine ~dst:0 ()
  done;
  ignore (Engine.run engine);
  Alcotest.(check (list (float 1e-9)))
    "service times back to back" [ 7.; 9.; 11. ] (List.rev !served);
  Helpers.check_int "all received" 3 (Net.messages_received net);
  Helpers.check_int "nothing shed" 0 (Net.messages_shed net)

let test_capacity_sheds_when_full () =
  (* queue_limit 2: of five simultaneous arrivals, two queue and three
     are shed silently — never received, not counted as down-drops. *)
  let engine = Engine.create () in
  let net = Net.create ~n:1 () in
  Net.set_handler net (fun _ _ () -> ());
  Net.set_capacity net ~service_rate:0.1 ~queue_limit:2 ();
  for _ = 1 to 5 do
    call_after 1. net engine ~dst:0 ()
  done;
  ignore (Engine.run engine);
  Helpers.check_int "two served" 2 (Net.messages_received net);
  Helpers.check_int "three shed" 3 (Net.messages_shed net);
  Helpers.check_int "sheds are not down-drops" 0 (Net.messages_dropped net);
  Helpers.check_int "queue drained" 0 (Net.queue_depth net 0)

let test_capacity_nack_fast_reply () =
  (* With a nack configured, the shed request's caller gets the nack
     after only the reply latency — no service time spent. *)
  let engine = Engine.create () in
  let net = Net.create ~n:1 () in
  Net.set_handler net (fun _ _ () -> `Served);
  Net.set_capacity net ~service_rate:0.1 ~queue_limit:1 ~nack:`Busy ();
  let replies = ref [] in
  let call () =
    Net.call_async net engine
      ~latency:(fun ~src:_ ~dst:_ -> 1.)
      ~src:Net.Client ~dst:0 ()
      (fun r -> replies := (Engine.now engine, r) :: !replies)
  in
  call ();
  call ();
  ignore (Engine.run engine);
  (match List.rev !replies with
  | [ (t_busy, `Busy); (t_served, `Served) ] ->
    (* Request 2 arrives at t=1 behind a full queue: nack back by t=2.
       Request 1 is served at t=11 (10 units of service), reply at 12. *)
    Helpers.close "busy nack at 2" 2. t_busy;
    Helpers.close "served reply at 12" 12. t_served
  | _ -> Alcotest.fail "expected one Busy then one Served reply");
  Helpers.check_int "one shed" 1 (Net.messages_shed net)

let test_capacity_degraded_slows_service () =
  let engine = Engine.create () in
  let net = Net.create ~n:2 () in
  let served = ref [] in
  Net.set_handler net (fun dst _ () -> served := (dst, Engine.now engine) :: !served);
  Net.set_capacity net ~service_rate:1.0 ~queue_limit:4 ();
  Helpers.close "healthy by default" 1. (Net.degraded_factor net 0);
  Net.set_degraded net 0 ~factor:10.;
  Helpers.close "degraded factor" 10. (Net.degraded_factor net 0);
  call_after 1. net engine ~dst:0 ();
  call_after 1. net engine ~dst:1 ();
  ignore (Engine.run engine);
  let time_of dst = List.assoc dst !served in
  Helpers.close "healthy server: 1 latency + 1 service" 2. (time_of 1);
  Helpers.close "gray server: 1 latency + 10 service" 11. (time_of 0);
  Net.set_degraded net 0 ~factor:1.;
  Helpers.close "restored" 1. (Net.degraded_factor net 0)

let test_capacity_requires_install () =
  let net = Net.create ~n:1 () in
  Alcotest.(check bool) "no capacity" false (Net.has_capacity net);
  Helpers.close "factor 1 without model" 1. (Net.degraded_factor net 0);
  Helpers.check_int "depth 0 without model" 0 (Net.queue_depth net 0);
  Helpers.check_int "shed 0 without model" 0 (Net.messages_shed net);
  Alcotest.check_raises "set_degraded needs capacity"
    (Invalid_argument "Net.set_degraded: no capacity model installed (see Net.set_capacity)")
    (fun () -> Net.set_degraded net 0 ~factor:2.)

let test_capacity_liveness_rechecked_at_service_time () =
  (* The server fails while the request waits in its queue: the request
     dies at service time, counted as a drop, not a receipt. *)
  let engine = Engine.create () in
  let net = Net.create ~n:1 () in
  Net.set_handler net (fun _ _ () -> Alcotest.fail "served by a dead server");
  Net.set_capacity net ~service_rate:0.25 ~queue_limit:4 ();
  call_after 1. net engine ~dst:0 ();
  ignore (Engine.schedule_at engine ~time:2. (fun _ -> Net.fail net 0));
  ignore (Engine.run engine);
  Helpers.check_int "not received" 0 (Net.messages_received net);
  Helpers.check_int "dropped" 1 (Net.messages_dropped net);
  Helpers.check_int "not shed" 0 (Net.messages_shed net)

let test_capacity_clear_restores_instant_delivery () =
  let engine = Engine.create () in
  let net = Net.create ~n:1 () in
  let served = ref [] in
  Net.set_handler net (fun _ _ () -> served := Engine.now engine :: !served);
  Net.set_capacity net ~service_rate:0.1 ~queue_limit:4 ();
  Net.clear_capacity net;
  call_after 1. net engine ~dst:0 ();
  ignore (Engine.run engine);
  Alcotest.(check (list (float 1e-9))) "no service delay after clear" [ 1. ] !served

let test_capacity_validation () =
  let net = Net.create ~n:1 () in
  Alcotest.check_raises "rate must be positive"
    (Invalid_argument "Net.set_capacity: service_rate must be positive") (fun () ->
      Net.set_capacity net ~service_rate:0. ~queue_limit:1 ());
  Alcotest.check_raises "queue_limit >= 1"
    (Invalid_argument "Net.set_capacity: queue_limit must be >= 1") (fun () ->
      Net.set_capacity net ~service_rate:1. ~queue_limit:0 ());
  Net.set_capacity net ~service_rate:1. ~queue_limit:1 ();
  Alcotest.check_raises "factor >= 1"
    (Invalid_argument "Net.set_degraded: factor must be >= 1") (fun () ->
      Net.set_degraded net 0 ~factor:0.5)

let () =
  Helpers.run "net"
    [ ( "net",
        [ Alcotest.test_case "send/reply" `Quick test_send_and_reply;
          Alcotest.test_case "capacity queueing" `Quick
            test_capacity_queueing_serializes_service;
          Alcotest.test_case "capacity sheds" `Quick test_capacity_sheds_when_full;
          Alcotest.test_case "capacity nack" `Quick test_capacity_nack_fast_reply;
          Alcotest.test_case "capacity gray failure" `Quick
            test_capacity_degraded_slows_service;
          Alcotest.test_case "capacity requires install" `Quick
            test_capacity_requires_install;
          Alcotest.test_case "capacity liveness recheck" `Quick
            test_capacity_liveness_rechecked_at_service_time;
          Alcotest.test_case "capacity clear" `Quick
            test_capacity_clear_restores_instant_delivery;
          Alcotest.test_case "capacity validation" `Quick test_capacity_validation;
          Alcotest.test_case "server src" `Quick test_server_to_server_not_client;
          Alcotest.test_case "broadcast cost" `Quick test_broadcast_costs_n;
          Alcotest.test_case "failure drops" `Quick test_failure_drops;
          Alcotest.test_case "broadcast skips failed" `Quick test_broadcast_skips_failed;
          Alcotest.test_case "fail_exactly" `Quick test_fail_exactly;
          Alcotest.test_case "reset counters" `Quick test_reset_counters;
          Alcotest.test_case "no handler" `Quick test_no_handler;
          Alcotest.test_case "bad index" `Quick test_bad_index;
          Alcotest.test_case "create validation" `Quick test_create_validation;
          Alcotest.test_case "wrap handler" `Quick test_wrap_handler;
          Alcotest.test_case "wrap requires handler" `Quick test_wrap_handler_requires_handler;
          Alcotest.test_case "status listener" `Quick test_status_listener;
          Alcotest.test_case "fail_exactly notifies" `Quick test_fail_exactly_notifies;
          Alcotest.test_case "async delayed" `Quick test_async_is_delayed;
          Alcotest.test_case "async clean round trip" `Quick test_async_clean_round_trip;
          Alcotest.test_case "async to failed" `Quick test_async_to_failed_node_after_delay;
          Alcotest.test_case "loss drops" `Quick test_loss_drops_and_counts;
          Alcotest.test_case "duplication" `Quick test_duplication_delivers_twice;
          Alcotest.test_case "jitter bounds" `Quick test_jitter_bounds_delay;
          Alcotest.test_case "fault toggle" `Quick test_fault_toggle_mid_run;
          Alcotest.test_case "fault determinism" `Quick test_fault_determinism;
          Alcotest.test_case "set_faults validation" `Quick test_set_faults_validation;
          Alcotest.test_case "partition blocks" `Quick test_partition_blocks_crossing_links;
          Alcotest.test_case "partition client side" `Quick test_partition_client_side_b;
          Alcotest.test_case "partition unlisted" `Quick
            test_partition_unlisted_servers_unaffected;
          Alcotest.test_case "heal" `Quick test_heal_restores_links;
          Alcotest.test_case "partitions compose" `Quick test_partitions_compose;
          Alcotest.test_case "partition validation" `Quick test_partition_validation;
          Alcotest.test_case "up tracking matches list" `Quick
            test_up_tracking_matches_list;
          Alcotest.test_case "random_up_server draws one rank" `Quick
            test_random_up_server_draws_one_rank;
          prop_message_count_additive;
          prop_tracing_never_changes_sync_delivery ] ) ]
