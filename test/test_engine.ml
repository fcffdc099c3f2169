open Plookup_sim

let test_clock_starts_at_zero () =
  let e = Engine.create () in
  Helpers.close "initial now" 0. (Engine.now e)

let test_fires_in_order () =
  let e = Engine.create () in
  let log = ref [] in
  let record tag engine = log := (tag, Engine.now engine) :: !log in
  ignore (Engine.schedule_at e ~time:3. (record "c"));
  ignore (Engine.schedule_at e ~time:1. (record "a"));
  ignore (Engine.schedule_at e ~time:2. (record "b"));
  let fired = Engine.run e in
  Helpers.check_int "fired" 3 fired;
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] (List.rev_map fst !log);
  Helpers.close "clock at last event" 3. (Engine.now e)

let test_schedule_after () =
  let e = Engine.create () in
  let seen = ref [] in
  ignore
    (Engine.schedule_at e ~time:5. (fun engine ->
         ignore
           (Engine.schedule_after engine ~delay:2.5 (fun engine ->
                seen := Engine.now engine :: !seen))));
  ignore (Engine.run e);
  Alcotest.(check (list (float 1e-9))) "nested fire time" [ 7.5 ] !seen

let test_past_scheduling_rejected () =
  let e = Engine.create () in
  ignore (Engine.schedule_at e ~time:10. (fun _ -> ()));
  ignore (Engine.run e);
  Alcotest.check_raises "past" (Invalid_argument "Engine.schedule_at: time is in the past")
    (fun () -> ignore (Engine.schedule_at e ~time:5. (fun _ -> ())));
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Engine.schedule_after: negative delay") (fun () ->
      ignore (Engine.schedule_after e ~delay:(-1.) (fun _ -> ())))

(* NaN passes a plain [time < now] check; it must be refused at both
   entry points and leave nothing scheduled. *)
let test_nan_rejected () =
  let e = Engine.create () in
  for i = 1 to 5 do
    ignore (Engine.schedule_at e ~time:(float_of_int i) (fun _ -> ()))
  done;
  Alcotest.check_raises "NaN time" (Invalid_argument "Engine.schedule_at: time is NaN")
    (fun () -> ignore (Engine.schedule_at e ~time:Float.nan (fun _ -> ())));
  Alcotest.check_raises "NaN delay" (Invalid_argument "Engine.schedule_after: delay is NaN")
    (fun () -> ignore (Engine.schedule_after e ~delay:Float.nan (fun _ -> ())));
  Helpers.check_int "nothing scheduled" 5 (Engine.pending e);
  let clocks = ref [] in
  while Engine.step e do
    clocks := Engine.now e :: !clocks
  done;
  Alcotest.(check (list (float 0.))) "clock never NaN" [ 5.; 4.; 3.; 2.; 1. ] !clocks

let test_cancel () =
  let e = Engine.create () in
  let fired = ref [] in
  let id1 = Engine.schedule_at e ~time:1. (fun _ -> fired := 1 :: !fired) in
  ignore (Engine.schedule_at e ~time:2. (fun _ -> fired := 2 :: !fired));
  Engine.cancel e id1;
  Engine.cancel e id1 (* double cancel is a no-op *);
  Helpers.check_int "pending after cancel" 1 (Engine.pending e);
  ignore (Engine.run e);
  Alcotest.(check (list int)) "only 2 fired" [ 2 ] !fired

let test_run_until () =
  let e = Engine.create () in
  let fired = ref 0 in
  List.iter
    (fun t -> ignore (Engine.schedule_at e ~time:t (fun _ -> incr fired)))
    [ 1.; 2.; 3.; 10. ];
  let n = Engine.run ~until:5. e in
  Helpers.check_int "fired before horizon" 3 n;
  Helpers.close "clock advanced to horizon" 5. (Engine.now e);
  Helpers.check_int "one pending" 1 (Engine.pending e);
  ignore (Engine.run e);
  Helpers.check_int "rest fired" 4 !fired

let test_run_until_ignores_cancelled_before_horizon () =
  (* Regression: a cancelled event inside the horizon used to satisfy the
     peek, and the *next live* event — past the horizon — then fired. *)
  let e = Engine.create () in
  let id = Engine.schedule_at e ~time:1. (fun _ -> Alcotest.fail "cancelled event fired") in
  let fired_at = ref [] in
  ignore (Engine.schedule_at e ~time:10. (fun eng -> fired_at := Engine.now eng :: !fired_at));
  Engine.cancel e id;
  let n = Engine.run ~until:5. e in
  Helpers.check_int "nothing fires before the horizon" 0 n;
  Alcotest.(check (list (float 1e-9))) "event past horizon did not fire" [] !fired_at;
  Helpers.close "clock stops at horizon" 5. (Engine.now e);
  Helpers.check_int "live event still pending" 1 (Engine.pending e);
  ignore (Engine.run e);
  Alcotest.(check (list (float 1e-9))) "fires later at its own time" [ 10. ] !fired_at

let test_run_until_only_cancelled_left () =
  (* A queue holding nothing but cancelled events is as good as empty:
     the clock must still advance to the horizon. *)
  let e = Engine.create () in
  let id = Engine.schedule_at e ~time:2. (fun _ -> ()) in
  Engine.cancel e id;
  Helpers.check_int "no fires" 0 (Engine.run ~until:7. e);
  Helpers.close "clock reaches horizon" 7. (Engine.now e)

let test_cancel_after_fire_is_noop () =
  (* Regression: cancelling an already-fired id used to decrement [live]
     and leak a stale entry, so [pending] under-reported forever. *)
  let e = Engine.create () in
  let id = Engine.schedule_at e ~time:1. (fun _ -> ()) in
  ignore (Engine.run e);
  Helpers.check_int "nothing pending after firing" 0 (Engine.pending e);
  Engine.cancel e id;
  Helpers.check_int "cancel of fired id leaves pending alone" 0 (Engine.pending e);
  let fired = ref 0 in
  ignore (Engine.schedule_at e ~time:2. (fun _ -> incr fired));
  Engine.cancel e id;
  Helpers.check_int "still one pending" 1 (Engine.pending e);
  Helpers.check_int "new event fires" 1 (Engine.run e);
  Helpers.check_int "fired" 1 !fired

let prop_run_until_never_fires_past_horizon =
  Helpers.qcheck ~count:100 "run ~until never fires an event after the horizon"
    QCheck2.Gen.(
      triple
        (list_size (int_range 1 40) (float_range 0. 100.))
        (list_size (int_range 0 40) (int_range 0 39))
        (float_range 0. 100.))
    (fun (times, cancels, horizon) ->
      let e = Engine.create () in
      let fired = ref [] in
      let ids =
        List.map
          (fun t ->
            Engine.schedule_at e ~time:t (fun eng -> fired := Engine.now eng :: !fired))
          times
      in
      let ids = Array.of_list ids in
      List.iter (fun i -> Engine.cancel e ids.(i mod Array.length ids)) cancels;
      ignore (Engine.run ~until:horizon e);
      List.for_all (fun t -> t <= horizon) !fired && Engine.now e >= horizon)

let test_run_max_events () =
  let e = Engine.create () in
  List.iter (fun t -> ignore (Engine.schedule_at e ~time:t (fun _ -> ()))) [ 1.; 2.; 3. ];
  Helpers.check_int "capped" 2 (Engine.run ~max_events:2 e);
  Helpers.check_int "remaining" 1 (Engine.pending e)

let test_step () =
  let e = Engine.create () in
  Alcotest.(check bool) "step on empty" false (Engine.step e);
  ignore (Engine.schedule_at e ~time:1. (fun _ -> ()));
  Alcotest.(check bool) "step fires" true (Engine.step e);
  Alcotest.(check bool) "empty again" false (Engine.step e)

let test_reset () =
  let e = Engine.create () in
  ignore (Engine.schedule_at e ~time:4. (fun _ -> Alcotest.fail "should not fire"));
  ignore (Engine.run ~until:1. e);
  Engine.reset e;
  Helpers.close "clock rewound" 0. (Engine.now e);
  Helpers.check_int "no pending" 0 (Engine.pending e);
  Helpers.check_int "nothing fires" 0 (Engine.run e)

let test_self_perpetuating_with_cap () =
  (* An event that reschedules itself: max_events must stop it. *)
  let e = Engine.create () in
  let count = ref 0 in
  let rec tick engine =
    incr count;
    ignore (Engine.schedule_after engine ~delay:1. tick)
  in
  ignore (Engine.schedule_at e ~time:0. tick);
  let fired = Engine.run ~max_events:50 e in
  Helpers.check_int "capped self-scheduler" 50 fired;
  Helpers.check_int "ticked" 50 !count

(* Firing allocates nothing: per event, only the rescheduled event's
   handle and its boxed time argument are allocated (plus, where the
   queue's [min_time] is not inlined, its boxed result).  The events
   keep 1,000 pending at two delays, so sifts run through a deep heap
   with many ties. *)
let rescheduled = ref 0

let rec reschedule engine =
  incr rescheduled;
  ignore
    (Engine.schedule_after engine ~delay:(if !rescheduled land 1 = 0 then 1.5 else 2.25)
       reschedule)

let test_run_allocates_little () =
  let e = Engine.create () in
  for i = 1 to 1000 do
    ignore (Engine.schedule_at e ~time:(float_of_int (i mod 97) *. 0.01) reschedule)
  done;
  ignore (Engine.run ~max_events:20_000 e);
  let events = 100_000 in
  let before = Gc.minor_words () in
  let fired = Engine.run ~max_events:events e in
  let per_event = (Gc.minor_words () -. before) /. float_of_int fired in
  Helpers.check_int "fired" events fired;
  Helpers.check_int "still pending" 1000 (Engine.pending e);
  if per_event > 8. then Alcotest.failf "%.1f minor words per event, above 8" per_event

let prop_events_fire_in_time_order =
  Helpers.qcheck ~count:100 "events fire in non-decreasing time order"
    QCheck2.Gen.(list_size (int_range 0 60) (float_range 0. 100.))
    (fun times ->
      let e = Engine.create () in
      let log = ref [] in
      List.iter
        (fun t ->
          ignore (Engine.schedule_at e ~time:t (fun eng -> log := Engine.now eng :: !log)))
        times;
      ignore (Engine.run e);
      let fired = List.rev !log in
      fired = List.sort compare times)

let () =
  Helpers.run "engine"
    [ ( "engine",
        [ Alcotest.test_case "clock zero" `Quick test_clock_starts_at_zero;
          Alcotest.test_case "fires in order" `Quick test_fires_in_order;
          Alcotest.test_case "schedule_after nesting" `Quick test_schedule_after;
          Alcotest.test_case "past rejected" `Quick test_past_scheduling_rejected;
          Alcotest.test_case "NaN rejected" `Quick test_nan_rejected;
          Alcotest.test_case "cancel" `Quick test_cancel;
          Alcotest.test_case "run until" `Quick test_run_until;
          Alcotest.test_case "until skips cancelled" `Quick
            test_run_until_ignores_cancelled_before_horizon;
          Alcotest.test_case "until with only cancelled" `Quick
            test_run_until_only_cancelled_left;
          Alcotest.test_case "cancel after fire" `Quick test_cancel_after_fire_is_noop;
          prop_run_until_never_fires_past_horizon;
          Alcotest.test_case "run max_events" `Quick test_run_max_events;
          Alcotest.test_case "step" `Quick test_step;
          Alcotest.test_case "reset" `Quick test_reset;
          Alcotest.test_case "self-perpetuating" `Quick test_self_perpetuating_with_cap;
          Alcotest.test_case "run allocates little" `Quick test_run_allocates_little;
          prop_events_fire_in_time_order ] ) ]
