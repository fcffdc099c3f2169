open Plookup_util
module Churn = Plookup_workload.Churn
module Engine = Plookup_sim.Engine

let test_sorted_and_bounded () =
  let events = Churn.generate (Rng.create 1) ~n:5 ~mttf:10. ~mttr:5. ~horizon:200. in
  let rec check_sorted = function
    | a :: (b :: _ as rest) ->
      if a.Churn.time > b.Churn.time then Alcotest.fail "unsorted" else check_sorted rest
    | _ -> ()
  in
  check_sorted events;
  List.iter
    (fun ev ->
      if ev.Churn.time < 0. || ev.Churn.time > 200. then Alcotest.fail "beyond horizon";
      if ev.Churn.server < 0 || ev.Churn.server >= 5 then Alcotest.fail "bad server")
    events;
  Alcotest.(check bool) "some events" true (events <> [])

let test_alternation_per_server () =
  let events = Churn.generate (Rng.create 2) ~n:3 ~mttf:8. ~mttr:4. ~horizon:500. in
  let state = Array.make 3 true in
  List.iter
    (fun ev ->
      if state.(ev.Churn.server) = ev.Churn.up then
        Alcotest.failf "server %d did not alternate" ev.Churn.server;
      state.(ev.Churn.server) <- ev.Churn.up)
    events

let test_first_event_is_failure () =
  let events = Churn.generate (Rng.create 3) ~n:4 ~mttf:10. ~mttr:10. ~horizon:1000. in
  let seen = Hashtbl.create 4 in
  List.iter
    (fun ev ->
      if not (Hashtbl.mem seen ev.Churn.server) then begin
        Hashtbl.replace seen ev.Churn.server ();
        Alcotest.(check bool) "first transition is down" false ev.Churn.up
      end)
    events

let test_expected_availability () =
  Helpers.close "83%" (5. /. 6.) (Churn.expected_availability ~mttf:100. ~mttr:20.);
  Helpers.close "50%" 0.5 (Churn.expected_availability ~mttf:7. ~mttr:7.)

let test_long_run_availability_matches () =
  (* Time-weighted up fraction of one server over a long horizon. *)
  let mttf = 10. and mttr = 5. in
  let events = Churn.generate (Rng.create 5) ~n:1 ~mttf ~mttr ~horizon:200_000. in
  let up_time = ref 0. and prev = ref 0. and up = ref true in
  List.iter
    (fun ev ->
      if !up then up_time := !up_time +. (ev.Churn.time -. !prev);
      prev := ev.Churn.time;
      up := ev.Churn.up)
    events;
  Helpers.roughly ~rel:0.03 "empirical availability"
    (Churn.expected_availability ~mttf ~mttr)
    (!up_time /. !prev)

let test_drive_applies_in_order () =
  let engine = Engine.create () in
  let events = Churn.generate (Rng.create 6) ~n:2 ~mttf:5. ~mttr:5. ~horizon:50. in
  let applied = ref [] in
  Churn.drive engine ~apply:(fun ev -> applied := ev :: !applied) events;
  ignore (Engine.run engine);
  Helpers.check_int "all applied" (List.length events) (List.length !applied);
  Alcotest.(check bool) "in timeline order" true (List.rev !applied = events)

let test_validation () =
  let rng = Rng.create 0 in
  Alcotest.check_raises "bad n" (Invalid_argument "Churn.generate: n must be positive")
    (fun () -> ignore (Churn.generate rng ~n:0 ~mttf:1. ~mttr:1. ~horizon:1.));
  List.iter
    (fun (mttf, mttr) ->
      Alcotest.check_raises "bad mttf/mttr"
        (Invalid_argument "Churn.generate: mttf/mttr must be positive") (fun () ->
          ignore (Churn.generate rng ~n:1 ~mttf ~mttr ~horizon:1.)))
    [ (0., 1.); (Float.nan, 1.); (1., Float.nan) ];
  List.iter
    (fun horizon ->
      Alcotest.check_raises "bad horizon"
        (Invalid_argument "Churn.generate: horizon must be finite and non-negative")
        (fun () -> ignore (Churn.generate rng ~n:1 ~mttf:1. ~mttr:1. ~horizon)))
    [ -1.; Float.nan; Float.infinity ]

let prop_deterministic =
  Helpers.qcheck ~count:30 "same seed, same timeline"
    QCheck2.Gen.int
    (fun seed ->
      let gen () = Churn.generate (Rng.create seed) ~n:3 ~mttf:7. ~mttr:3. ~horizon:100. in
      gen () = gen ())

let () =
  Helpers.run "churn"
    [ ( "churn",
        [ Alcotest.test_case "sorted and bounded" `Quick test_sorted_and_bounded;
          Alcotest.test_case "alternation" `Quick test_alternation_per_server;
          Alcotest.test_case "first is failure" `Quick test_first_event_is_failure;
          Alcotest.test_case "expected availability" `Quick test_expected_availability;
          Alcotest.test_case "long-run availability" `Quick test_long_run_availability_matches;
          Alcotest.test_case "drive" `Quick test_drive_applies_in_order;
          Alcotest.test_case "validation" `Quick test_validation;
          prop_deterministic ] ) ]
