open Plookup
open Plookup_store
open Plookup_util
module Update_gen = Plookup_workload.Update_gen
module Replay = Plookup_workload.Replay
module Net = Plookup_net.Net

let stream_of_events ~initial events =
  { Update_gen.initial = Helpers.entries initial;
    times = Array.of_list (List.map fst events);
    ops =
      Array.of_list
        (List.map
           (function
             | _, `Add id -> Update_gen.Add (Entry.v id)
             | _, `Delete id -> Update_gen.Delete (Entry.v id))
           events) }

let test_run_applies_events () =
  let stream = stream_of_events ~initial:3 [ (1., `Add 10); (2., `Delete 0) ] in
  let service = Service.create ~seed:1 ~n:2 Service.full_replication in
  Replay.run service stream;
  let store = Cluster.store (Service.cluster service) 0 in
  Alcotest.(check bool) "added" true (Server_store.mem store (Entry.v 10));
  Alcotest.(check bool) "deleted" false (Server_store.mem store (Entry.v 0));
  Helpers.check_int "final size" 3 (Server_store.cardinal store)

let test_on_event_callback () =
  let stream =
    stream_of_events ~initial:1 [ (1., `Add 5); (4., `Add 6); (4.5, `Delete 5) ]
  in
  let service = Service.create ~seed:1 ~n:2 Service.full_replication in
  let points = ref [] in
  Replay.run
    ~on_event:(fun p -> points := (p.Replay.index, p.Replay.time, p.Replay.elapsed) :: !points)
    service stream;
  match List.rev !points with
  | [ (1, t1, e1); (2, t2, e2); (3, t3, e3) ] ->
    Helpers.close "t1" 1. t1;
    Helpers.close "e1" 1. e1;
    Helpers.close "t2" 4. t2;
    Helpers.close "e2" 3. e2;
    Helpers.close "t3" 4.5 t3;
    Helpers.close "e3" 0.5 e3
  | _ -> Alcotest.fail "expected three probe points"

let test_run_timed_failure_share () =
  (* Full replication with 2 initial entries; predicate "fewer than 2
     entries".  Timeline: delete at t=1 (drops to 1 -> failing), add at
     t=3 (recovers), last event at t=5.  Failing during [1,3) of [0,5]:
     share 0.4. *)
  let stream =
    stream_of_events ~initial:2 [ (1., `Delete 0); (3., `Add 10); (5., `Add 11) ]
  in
  let service = Service.create ~seed:1 ~n:2 Service.full_replication in
  let failed s =
    Server_store.cardinal (Cluster.store (Service.cluster s) 0) < 2
  in
  Helpers.close "time-weighted share" 0.4 (Replay.run_timed ~service ~stream ~failed)

let test_run_timed_never_failing () =
  let stream = stream_of_events ~initial:2 [ (1., `Add 5); (2., `Add 6) ] in
  let service = Service.create ~seed:1 ~n:2 Service.full_replication in
  Helpers.close "zero share" 0. (Replay.run_timed ~service ~stream ~failed:(fun _ -> false))

let test_run_timed_empty_stream () =
  let stream = stream_of_events ~initial:2 [] in
  let service = Service.create ~seed:1 ~n:2 Service.full_replication in
  Helpers.close "no time elapsed" 0. (Replay.run_timed ~service ~stream ~failed:(fun _ -> true))

let test_messages_excludes_place () =
  let stream = stream_of_events ~initial:10 [ (1., `Add 20); (2., `Delete 0) ] in
  let service = Service.create ~seed:1 ~n:4 Service.full_replication in
  let msgs = Replay.messages_for_updates ~service ~stream in
  (* Full replication: each update costs 1 + n = 5; the place traffic
     (1 + n with a big batch) must not be counted. *)
  Helpers.check_int "2 updates * (1+n)" 10 msgs

let test_messages_fixed_selective () =
  (* Fixed-x with x larger than will ever fill: every add broadcasts,
     deletes of untracked entries cost 1. *)
  let stream = stream_of_events ~initial:2 [ (1., `Add 10); (2., `Delete 99) ] in
  let service = Service.create ~seed:1 ~n:4 (Service.fixed 10) in
  Helpers.check_int "broadcast add + cheap delete" 6
    (Replay.messages_for_updates ~service ~stream)

let test_fig12_style_cushion_comparison () =
  (* End-to-end sanity for the Fig. 12 machinery: zero cushion fails
     noticeably more often than cushion 5. *)
  let share b =
    let stream =
      Update_gen.generate (Rng.create 7)
        { Update_gen.steady_entries = 50; add_period = 10.; tail_heavy = false;
          updates = 4000 }
    in
    let service = Service.create ~seed:7 ~n:5 (Service.fixed (10 + b)) in
    Replay.run_timed ~service ~stream ~failed:(fun s ->
        Server_store.cardinal (Cluster.store (Service.cluster s) 0) < 10)
  in
  let s0 = share 0 and s5 = share 5 in
  Alcotest.(check bool)
    (Printf.sprintf "cushion helps (%.4f vs %.4f)" s0 s5)
    true (s0 > s5)

let () =
  Helpers.run "replay"
    [ ( "replay",
        [ Alcotest.test_case "applies events" `Quick test_run_applies_events;
          Alcotest.test_case "on_event points" `Quick test_on_event_callback;
          Alcotest.test_case "time-weighted share" `Quick test_run_timed_failure_share;
          Alcotest.test_case "never failing" `Quick test_run_timed_never_failing;
          Alcotest.test_case "empty stream" `Quick test_run_timed_empty_stream;
          Alcotest.test_case "excludes place" `Quick test_messages_excludes_place;
          Alcotest.test_case "fixed selective" `Quick test_messages_fixed_selective;
          Alcotest.test_case "fig12 cushion" `Quick test_fig12_style_cushion_comparison ] ) ]
