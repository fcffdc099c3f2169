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
  (* A network with no fault layer: one event per hop, one latency draw
     and one delay observation per hop. *)
  let metrics = Plookup_obs.Metrics.create () in
  let net = Net.create ~metrics ~n:2 () in
  Net.set_handler net (fun _ _ msg -> msg);
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

   One random schedule of failures, recoveries, sends and broadcasts,
   run on an untraced network and on traced ones with the same fault
   seed: one recording every span and one streaming JSONL.
   Tracing is an observer, so replies, the order of handler calls and
   every counter must agree; and the recorded trace must show each
   transmission as one Send plus one Recv per delivered copy, or one
   Drop with the reason the network's state predicts.

   Without a fault layer an untraced broadcast delivers its copies
   inline while a traced one sends each through the point-to-point
   path, so the broadcasts also run the cases where the two could part:
   under [Net.tally_as_repair], with every delivered copy sending a
   nested message to a relay server, and with one copy's handler
   raising an exception the schedule catches. *)

module Trace = Plookup_obs.Trace
module Span = Plookup_obs.Span
module Sink = Plookup_obs.Sink
module Metrics = Plookup_obs.Metrics

let plane_names = [| "data"; "strategy"; "repair" |]

let sync_op_gen =
  let open QCheck2.Gen in
  let server = int_range 0 7 and src = int_range (-1) 7 and plane = int_range 0 2 in
  frequency
    [ (2, map (fun s -> `Fail s) server);
      (2, map (fun s -> `Recover s) server);
      (6, map3 (fun s d p -> `Send (s, d, p)) src server plane);
      ( 3,
        map3
          (fun (s, p) repair action -> `Broadcast (s, p, repair, action))
          (pair src plane) bool
          (frequency
             [ (2, pure `Plain);
               (1, map (fun relay -> `Nest relay) server);
               (1, map (fun victim -> `Raise victim) server) ]) ) ]

let sync_schedule_gen =
  QCheck2.Gen.(
    quad (int_range 1 8)
      (opt (pair (float_range 0. 0.5) (float_range 0. 0.5)))
      (int_range 0 10_000)
      (list_size (int_range 0 60) sync_op_gen))

(* A network of [n] echo servers on its own registry, its messages
   (plane, op index) classified by plane, traced into [trace] if one is
   given.  [calls] collects the handler calls (time, dst, src, msg),
   most recent first. *)
let schedule_net ?trace ?(now = fun () -> 0.) ~n calls =
  let metrics = Metrics.create () in
  let net = Net.create ~metrics ~n () in
  Net.set_handler net (fun dst src msg ->
      calls := (now (), dst, src, msg) :: !calls;
      (dst, msg));
  Net.set_planes net ~names:plane_names ~classify:fst;
  Option.iter
    (fun tr ->
      let codes = Array.map (fun plane -> Trace.intern_message tr ~plane ~msg:"m") plane_names in
      Net.set_trace net tr ~coder:(fun (p, _) -> codes.(p)))
    trace;
  (net, metrics)

exception Boom

(* Run a schedule.  Returns the replies, the handler calls, the
   network's metrics snapshot (received per server and per plane,
   dropped, lost, duplicated, client requests, broadcasts, repair) and,
   per transmission in order, its endpoints plus whether its
   destination was up. *)
let run_sync_schedule ?trace (n, faults, seed, ops) =
  let calls = ref [] in
  let net, metrics = schedule_net ?trace ~n calls in
  Option.iter (fun (loss, duplication) -> Net.set_faults net ~seed ~loss ~duplication ()) faults;
  (* What the broadcast in flight asks of each delivered copy, and the
     nested sends its copies made, each with the copy's destination,
     most recent first.  A nested message carries a negative index, so
     it asks nothing itself. *)
  let action = ref `Plain and nested = ref [] in
  Net.wrap_handler net (fun handler dst src ((p, i) as msg) ->
      let reply = handler dst src msg in
      (match !action with
      | `Nest relay when i >= 0 ->
        let relay = relay mod n in
        nested := (dst, (Net.Server dst, relay, Net.is_up net relay)) :: !nested;
        ignore (Net.send net ~src:(Net.Server dst) ~dst:relay (p, -1 - i))
      | `Raise victim when dst = victim mod n -> raise Boom
      | `Plain | `Nest _ | `Raise _ -> ());
      reply);
  let sender s = if s < 0 then Net.Client else Net.Server (s mod n) in
  let replies = ref [] and transmissions = ref [] in
  let note tx = transmissions := tx :: !transmissions in
  List.iteri
    (fun i op ->
      match op with
      | `Fail s -> Net.fail net (s mod n)
      | `Recover s -> Net.recover net (s mod n)
      | `Send (s, d, p) ->
        let src = sender s and dst = d mod n in
        note (src, dst, Net.is_up net dst);
        replies := `Send (Net.send net ~src ~dst (p, i)) :: !replies
      | `Broadcast (s, p, repair, act) ->
        let src = sender s in
        let up = Array.init n (Net.is_up net) in
        let got = ref [] in
        let broadcast () =
          Net.broadcast net ~src ~on_reply:(fun dst r -> got := (dst, r) :: !got) (p, i)
        in
        action := act;
        nested := [];
        let raised =
          match if repair then Net.tally_as_repair net broadcast else broadcast () with
          | () -> false
          | exception Boom -> true
        in
        action := `Plain;
        (* Copies go out from the highest id down, each followed by the
           nested sends its deliveries made; a raise ends the loop. *)
        let last = match act with `Raise v when raised -> v mod n | _ -> 0 in
        let nested = List.rev !nested in
        for dst = n - 1 downto last do
          note (src, dst, up.(dst));
          List.iter (fun (d, tx) -> if d = dst then note tx) nested
        done;
        replies := `Broadcast (List.rev !got, raised) :: !replies)
    ops;
  ( (List.rev !replies, List.rev !calls, Metrics.snapshot metrics),
    (List.rev !transmissions, net) )

let actor = function Net.Client -> Span.Client | Net.Server i -> Span.Server i

(* Whether a Recv or Drop span resolves a transmission [src -> dst]. *)
let resolves ~src ~dst = function
  | Span.Recv r -> r.dst = dst && r.src = actor src
  | Span.Drop d -> d.dst = dst && d.src = actor src
  | _ -> false

let reason = function Span.Drop d -> Some d.reason | _ -> None

(* Tally a recorded trace against the transmissions; [None] unless
   its Sends are the transmissions in order, every other span resolves
   one of them, and each resolves as its destination's state predicts.
   A copy's nested sends come between its Recv and its duplicate's, so
   a Send's resolutions are found by cause, not by position. *)
let tally_sync_spans spans transmissions =
  let copies = Hashtbl.create 64 in
  List.iter
    (fun (sp : Span.t) -> Option.iter (fun c -> Hashtbl.add copies c sp.kind) sp.cause)
    spans;
  let sends =
    List.filter_map
      (fun (sp : Span.t) ->
        match (sp.kind, sp.cause) with
        | Span.Send s, None -> Some (sp.id, s.src, s.dst)
        | _ -> None)
      spans
  in
  let tally acc (id, send_src, send_dst) (src, dst, up) =
    let kinds = Hashtbl.find_all copies id in
    match acc with
    | Some (recv, down, lost, dup)
      when send_src = actor src && send_dst = dst
           && List.for_all (resolves ~src ~dst) kinds -> (
      let k = List.length kinds in
      match (List.map reason kinds, up) with
      | [ Some Span.Lost ], _ -> Some (recv, down, lost + 1, dup)
      | ([ None ] | [ None; None ]), true -> Some (recv + k, down, lost, dup + k - 1)
      | ([ Some Span.Down ] | [ Some Span.Down; Some Span.Down ]), false ->
        Some (recv, down + k, lost, dup + k - 1)
      | _ -> None)
    | _ -> None
  in
  let resolved =
    List.fold_left (fun k (id, _, _) -> k + List.length (Hashtbl.find_all copies id)) 0 sends
  in
  if List.length sends <> List.length transmissions
     || List.length sends + resolved <> List.length spans
  then None
  else List.fold_left2 tally (Some (0, 0, 0, 0)) sends transmissions

let traced () =
  let tr = Trace.create () in
  Trace.set_enabled tr true;
  tr

(* [streamed run] is [run ~trace ()] under a trace that streams JSONL to
   a temporary file, paired with the file's contents. *)
let streamed run =
  let path = Filename.temp_file "plookup_net" ".jsonl" in
  let oc = open_out path in
  let tr = traced () in
  Trace.add_sink tr (Sink.jsonl oc);
  let out = run ~trace:tr () in
  close_out oc;
  let lines = In_channel.with_open_text path In_channel.input_all in
  Sys.remove path;
  (out, lines)

let jsonl spans = String.concat "" (List.map (fun sp -> Span.to_json sp ^ "\n") spans)

let prop_tracing_never_changes_sync_delivery =
  Helpers.qcheck "tracing never changes sync delivery" sync_schedule_gen (fun schedule ->
      let bare, _ = run_sync_schedule schedule in
      let all = traced () in
      let all_out, (transmissions, net) = run_sync_schedule ~trace:all schedule in
      let (streamed_out, _), lines =
        streamed (fun ~trace () -> run_sync_schedule ~trace schedule)
      in
      let spans = Trace.spans all in
      all_out = bare && streamed_out = bare
      && lines = jsonl spans
      && tally_sync_spans spans transmissions
         = Some
             ( Net.messages_received net,
               Net.messages_dropped net,
               Net.messages_lost net,
               Net.duplicates_delivered net ))

(* {2 Tracing never changes engine-routed delivery}

   The same check for [call_async]: calls from the client and from
   servers at random times, among timed fails and recovers, with an
   optional fault layer (loss, duplication, jitter) and an optional
   capacity model, silent or nacking.  Reply callbacks (time and value),
   handler calls, and the metrics snapshot must not depend on tracing.
   In the recorded trace each call is one Send, resolved by one Lost
   Drop, or by one Recv, Down Drop or Shed Drop per copy that arrives.
   Only the request leg is spanned, while [lost] also counts lost
   replies, so the Lost spans are bounded by it, not equal to it. *)

let async_op_gen =
  let open QCheck2.Gen in
  let server = int_range 0 5 and at = float_range 0. 20. in
  frequency
    [ (1, map2 (fun at s -> (at, `Fail s)) at server);
      (1, map2 (fun at s -> (at, `Recover s)) at server);
      ( 6,
        map2
          (fun at (s, d, p) -> (at, `Call (s, d, p)))
          at
          (triple (int_range (-1) 5) server (int_range 0 2)) ) ]

let async_schedule_gen =
  QCheck2.Gen.(
    quad (int_range 1 6)
      (pair
         (opt (triple (float_range 0. 0.5) (float_range 0. 0.5) (float_range 0. 3.)))
         (opt (triple (float_range 0.2 2.) (int_range 1 3) bool)))
      (int_range 0 10_000)
      (list_size (int_range 0 40) async_op_gen))

(* Per-hop latency: a fixed function of the link, so both legs of a
   round trip and every run agree, with ties between links. *)
let link_latency ~src ~dst =
  let s = match src with Net.Client -> 0 | Net.Server i -> i + 1 in
  1. +. (0.5 *. float_of_int (((3 * s) + (5 * dst)) mod 4))

(* Run a schedule on the engine.  Returns the replies (time, call index,
   reply), the handler calls (time, dst, src, msg) and the network's
   metrics snapshot and, for the span checks, each call's
   endpoints in call order and the network. *)
let run_async_schedule ?trace (n, (faults, capacity), seed, ops) =
  let engine = Engine.create () in
  let calls = ref [] in
  let net, metrics = schedule_net ?trace ~now:(fun () -> Engine.now engine) ~n calls in
  Net.attach_engine net engine;
  Option.iter
    (fun (loss, duplication, jitter) -> Net.set_faults net ~seed ~loss ~duplication ~jitter ())
    faults;
  Option.iter
    (fun (service_rate, queue_limit, nack) ->
      Net.set_capacity net ~service_rate ~queue_limit
        ?nack:(if nack then Some (-1, (0, -1)) else None)
        ())
    capacity;
  let sender s = if s < 0 then Net.Client else Net.Server (s mod n) in
  let replies = ref [] and made = ref [] in
  List.iteri
    (fun i (at, op) ->
      ignore
        (Engine.schedule_at engine ~time:at (fun engine ->
             match op with
             | `Fail s -> Net.fail net (s mod n)
             | `Recover s -> Net.recover net (s mod n)
             | `Call (s, d, p) ->
               let src = sender s and dst = d mod n in
               made := (src, dst) :: !made;
               Net.call_async net engine ~latency:link_latency ~src ~dst (p, i) (fun r ->
                   replies := (Engine.now engine, i, r) :: !replies))))
    ops;
  ignore (Engine.run engine);
  ( (List.rev !replies, List.rev !calls, Metrics.snapshot metrics),
    (List.rev !made, net) )

(* Tally a recorded trace of engine-routed calls as (Recv, Down, Shed,
   Lost); [None] unless its Sends are the calls in order, every other
   span resolves one of them, and each resolves as one Lost Drop or as
   one or two arriving copies. *)
let tally_async_spans spans made =
  let copies = Hashtbl.create 64 in
  List.iter
    (fun (sp : Span.t) -> Option.iter (fun c -> Hashtbl.add copies c sp.kind) sp.cause)
    spans;
  let sends =
    List.filter_map
      (fun (sp : Span.t) ->
        match (sp.kind, sp.cause) with
        | Span.Send s, None -> Some (sp.id, s.src, s.dst)
        | _ -> None)
      spans
  in
  let tally acc (id, send_src, send_dst) (src, dst) =
    let kinds = Hashtbl.find_all copies id in
    let count r = List.length (List.filter (fun k -> reason k = r) kinds) in
    match acc with
    | Some (recv, down, shed, lost)
      when send_src = actor src && send_dst = dst
           && List.for_all (resolves ~src ~dst) kinds -> (
      match (List.length kinds, count (Some Span.Lost)) with
      | 1, 1 -> Some (recv, down, shed, lost + 1)
      | (1 | 2), 0 ->
        Some
          ( recv + count None,
            down + count (Some Span.Down),
            shed + count (Some Span.Shed),
            lost )
      | _ -> None)
    | _ -> None
  in
  let resolved =
    List.fold_left (fun k (id, _, _) -> k + List.length (Hashtbl.find_all copies id)) 0 sends
  in
  if List.length sends <> List.length made || List.length sends + resolved <> List.length spans
  then None
  else List.fold_left2 tally (Some (0, 0, 0, 0)) sends made

let prop_tracing_never_changes_async_delivery =
  Helpers.qcheck "tracing never changes async delivery" async_schedule_gen (fun schedule ->
      let bare, _ = run_async_schedule schedule in
      let all = traced () in
      let all_out, (made, net) = run_async_schedule ~trace:all schedule in
      let (streamed_out, _), lines =
        streamed (fun ~trace () -> run_async_schedule ~trace schedule)
      in
      let spans = Trace.spans all in
      all_out = bare && streamed_out = bare
      && lines = jsonl spans
      &&
      match tally_async_spans spans made with
      | Some (recv, down, shed, lost) ->
        recv = Net.messages_received net
        && down = Net.messages_dropped net
        && shed = Net.messages_shed net
        && lost <= Net.messages_lost net
      | None -> false)

(* {2 Capacity model (queueing, shedding, gray failure)} *)

let test_capacity_queueing_serializes_service () =
  (* service_rate 0.5 => 2 time units per request: three requests
     arriving together at t=5 are served at 7, 9 and 11. *)
  let engine = Engine.create () in
  let net = Net.create ~n:1 () in
  let served = ref [] in
  Net.set_handler net (fun _ _ () -> served := Engine.now engine :: !served);
  Net.set_capacity net ~service_rate:0.5 ~queue_limit:10 ();
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

(* The per-server counters and queue-depth gauges are one registry
   family each: a reset zeroes every server's count and later traffic
   counts afresh, per server and in the registry's snapshot, while the
   capacity model's occupancy and its high-water gauges stay. *)
let test_reset_counters_per_server () =
  let metrics = Plookup_obs.Metrics.create () in
  let engine = Engine.create () in
  let net = Net.create ~metrics ~n:3 () in
  Net.set_handler net (fun _ _ () -> ());
  Net.set_capacity net ~service_rate:0.5 ~queue_limit:10 ();
  let by () = List.init 3 (Net.messages_received_by net) in
  let dump name =
    List.filter_map
      (fun e ->
        if e.Plookup_obs.Metrics.name <> name then None
        else
          match e.Plookup_obs.Metrics.v with
          | Plookup_obs.Metrics.Counter n -> Some (e.labels, float_of_int n)
          | Plookup_obs.Metrics.Gauge v -> Some (e.labels, v)
          | Plookup_obs.Metrics.Histogram _ -> None)
      (Plookup_obs.Metrics.snapshot metrics)
  in
  let server i v = ([ ("server", string_of_int i) ], v) in
  let check_dump name expected =
    Alcotest.(check (list (pair (list (pair string string)) (float 0.)))) name expected
      (dump name)
  in
  Net.broadcast net ~src:Net.Client ();
  ignore (Net.send net ~src:Net.Client ~dst:2 ());
  Alcotest.(check (list int)) "per server" [ 1; 1; 2 ] (by ());
  (* Three requests reach server 1 at t = 1; one is in service and two
     wait when the run stops at t = 2. *)
  for _ = 1 to 3 do
    call_after 1. net engine ~dst:1 ()
  done;
  ignore (Engine.run engine ~until:2.);
  Helpers.check_int "queued" 3 (Net.queue_depth net 1);
  Net.reset_counters net;
  Helpers.check_int "total reset" 0 (Net.messages_received net);
  Alcotest.(check (list int)) "per server reset" [ 0; 0; 0 ] (by ());
  check_dump "net.messages.received" [ server 0 0.; server 1 0.; server 2 0. ];
  Helpers.check_int "queue kept" 3 (Net.queue_depth net 1);
  ignore (Engine.run engine);
  Helpers.check_int "queue drained" 0 (Net.queue_depth net 1);
  Net.broadcast net ~src:Net.Client ();
  ignore (Net.send net ~src:Net.Client ~dst:0 ());
  Alcotest.(check (list int)) "counted afresh" [ 2; 4; 1 ] (by ());
  Helpers.check_int "total afresh" 7 (Net.messages_received net);
  check_dump "net.messages.received" [ server 0 2.; server 1 4.; server 2 1. ];
  check_dump "net.queue.depth" [ server 0 0.; server 1 3.; server 2 0. ]

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
          Alcotest.test_case "capacity validation" `Quick test_capacity_validation;
          Alcotest.test_case "server src" `Quick test_server_to_server_not_client;
          Alcotest.test_case "broadcast cost" `Quick test_broadcast_costs_n;
          Alcotest.test_case "failure drops" `Quick test_failure_drops;
          Alcotest.test_case "broadcast skips failed" `Quick test_broadcast_skips_failed;
          Alcotest.test_case "reset counters" `Quick test_reset_counters;
          Alcotest.test_case "reset counters per server" `Quick
            test_reset_counters_per_server;
          Alcotest.test_case "no handler" `Quick test_no_handler;
          Alcotest.test_case "bad index" `Quick test_bad_index;
          Alcotest.test_case "create validation" `Quick test_create_validation;
          Alcotest.test_case "wrap handler" `Quick test_wrap_handler;
          Alcotest.test_case "wrap requires handler" `Quick test_wrap_handler_requires_handler;
          Alcotest.test_case "status listener" `Quick test_status_listener;
          Alcotest.test_case "async delayed" `Quick test_async_is_delayed;
          Alcotest.test_case "async clean round trip" `Quick test_async_clean_round_trip;
          Alcotest.test_case "async to failed" `Quick test_async_to_failed_node_after_delay;
          Alcotest.test_case "loss drops" `Quick test_loss_drops_and_counts;
          Alcotest.test_case "duplication" `Quick test_duplication_delivers_twice;
          Alcotest.test_case "jitter bounds" `Quick test_jitter_bounds_delay;
          Alcotest.test_case "fault determinism" `Quick test_fault_determinism;
          Alcotest.test_case "set_faults validation" `Quick test_set_faults_validation;
          Alcotest.test_case "up tracking matches list" `Quick
            test_up_tracking_matches_list;
          Alcotest.test_case "random_up_server draws one rank" `Quick
            test_random_up_server_draws_one_rank;
          prop_message_count_additive;
          prop_tracing_never_changes_sync_delivery;
          prop_tracing_never_changes_async_delivery ] ) ]
