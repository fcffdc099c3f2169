open Plookup_sim

let push q ~time v = ignore (Event_queue.push q ~time v)

let test_empty () =
  let q = Event_queue.create () in
  Helpers.check_int "length" 0 (Event_queue.length q);
  Alcotest.(check bool) "is_empty" true (Event_queue.is_empty q);
  Alcotest.(check bool) "pop none" true (Event_queue.pop q = None);
  Alcotest.(check bool) "peek none" true (Event_queue.peek q = None)

let test_ordering () =
  let q = Event_queue.create () in
  List.iter (fun (t, v) -> push q ~time:t v)
    [ (3., "c"); (1., "a"); (2., "b"); (0.5, "z") ];
  let order = List.map snd (Event_queue.drain q) in
  Alcotest.(check (list string)) "sorted by time" [ "z"; "a"; "b"; "c" ] order

let test_fifo_ties () =
  let q = Event_queue.create () in
  List.iter (fun v -> push q ~time:5. v) [ 1; 2; 3; 4; 5 ];
  Alcotest.(check (list int)) "ties in insertion order" [ 1; 2; 3; 4; 5 ]
    (List.map snd (Event_queue.drain q))

let test_peek_does_not_remove () =
  let q = Event_queue.create () in
  push q ~time:1. "x";
  Alcotest.(check bool) "peek" true (Event_queue.peek q = Some (1., "x"));
  Helpers.check_int "still there" 1 (Event_queue.length q)

let test_interleaved_push_pop () =
  let q = Event_queue.create () in
  push q ~time:10. "late";
  push q ~time:1. "early";
  Alcotest.(check bool) "pop early" true (Event_queue.pop q = Some (1., "early"));
  push q ~time:5. "middle";
  Alcotest.(check bool) "pop middle" true (Event_queue.pop q = Some (5., "middle"));
  Alcotest.(check bool) "pop late" true (Event_queue.pop q = Some (10., "late"))

let test_clear () =
  let q = Event_queue.create () in
  push q ~time:1. 1;
  Event_queue.clear q;
  Alcotest.(check bool) "cleared" true (Event_queue.is_empty q)

let test_grows () =
  let q = Event_queue.create () in
  for i = 999 downto 0 do
    push q ~time:(float_of_int i) i
  done;
  Helpers.check_int "length" 1000 (Event_queue.length q);
  Alcotest.(check (list int)) "drains in order" (List.init 1000 Fun.id)
    (List.map snd (Event_queue.drain q))

let test_cancel_basic () =
  let q = Event_queue.create () in
  let a = Event_queue.push q ~time:1. "a" in
  let b = Event_queue.push q ~time:2. "b" in
  let c = Event_queue.push q ~time:3. "c" in
  Helpers.check_int "three pending" 3 (Event_queue.length q);
  Alcotest.(check bool) "cancel b" true (Event_queue.cancel_handle q b);
  Helpers.check_int "two pending" 2 (Event_queue.length q);
  Alcotest.(check bool) "cancel b again is no-op" false (Event_queue.cancel_handle q b);
  Alcotest.(check bool) "b is cancelled" true (Event_queue.is_cancelled b);
  Alcotest.(check bool) "a is not" false (Event_queue.is_cancelled a);
  Alcotest.(check (list string)) "b never surfaces" [ "a"; "c" ]
    (List.map snd (Event_queue.drain q));
  Alcotest.(check bool) "cancel after fire is no-op" false
    (Event_queue.cancel_handle q a);
  ignore c

let test_cancel_root () =
  (* Cancelling the earliest pending event must not disturb peek/pop. *)
  let q = Event_queue.create () in
  let a = Event_queue.push q ~time:1. "a" in
  let _b = Event_queue.push q ~time:2. "b" in
  ignore (Event_queue.cancel_handle q a);
  Alcotest.(check bool) "peek skips cancelled root" true
    (Event_queue.peek q = Some (2., "b"));
  Alcotest.(check bool) "pop skips cancelled root" true
    (Event_queue.pop q = Some (2., "b"));
  Alcotest.(check bool) "empty after" true (Event_queue.is_empty q)

let prop_drain_sorted =
  Helpers.qcheck ~count:300 "drain yields non-decreasing times"
    QCheck2.Gen.(list (float_range 0. 1000.))
    (fun times ->
      let q = Event_queue.create () in
      List.iter (fun t -> push q ~time:t ()) times;
      let drained = List.map fst (Event_queue.drain q) in
      drained = List.sort compare times)

let prop_stable_for_equal_times =
  Helpers.qcheck "equal times preserve insertion order"
    QCheck2.Gen.(list_size (int_range 0 50) (int_range 0 3))
    (fun times ->
      let q = Event_queue.create () in
      List.iteri (fun i t -> push q ~time:(float_of_int t) i) times;
      let drained = Event_queue.drain q in
      (* For every pair with equal time, sequence must be increasing. *)
      let rec check = function
        | (t1, i1) :: ((t2, i2) :: _ as rest) ->
          (t1 < t2 || (t1 = t2 && i1 < i2)) && check rest
        | _ -> true
      in
      check drained)

(* Model-based: a script of pushes and cancels against a sorted-list
   reference.  The heap with lazy deletion must agree with the model on
   both the live count and the exact fire order. *)
let prop_cancel_model =
  Helpers.qcheck ~count:300 "cancellation matches a sorted-list model"
    QCheck2.Gen.(
      list_size (int_range 0 60)
        (pair (int_range 0 9) (* time bucket: plenty of ties *)
           (int_range 0 4) (* cancel k pending events after this push *)))
    (fun script ->
      let q = Event_queue.create () in
      let handles = ref [] in (* (serial, handle), newest first *)
      let model = ref [] in (* (time, serial), live only *)
      let serial = ref 0 in
      List.iter
        (fun (bucket, cancels) ->
          let time = float_of_int bucket in
          let h = Event_queue.push q ~time !serial in
          handles := (!serial, h) :: !handles;
          model := (time, !serial) :: !model;
          incr serial;
          (* Cancel [cancels] of the still-live events, oldest first, so
             the reference knows exactly which ones disappear. *)
          let live =
            List.filter (fun (_, h) -> not (Event_queue.is_cancelled h)) !handles
          in
          let victims =
            List.filteri (fun i _ -> i < cancels) (List.rev live)
          in
          List.iter
            (fun (s, h) ->
              if Event_queue.cancel_handle q h then
                model := List.filter (fun (_, s') -> s' <> s) !model)
            victims)
        script;
      let expected =
        (* Sort by (time, serial): serials increase with insertion, so
           this is exactly time-order with FIFO ties. *)
        List.sort compare !model
      in
      Event_queue.length q = List.length expected
      && Event_queue.drain q = expected)

(* Model-based over every operation: a script interleaving pushes (one
   at a time or in bursts that grow the arrays), reservations and pushes
   with a reserved number, cancels of any handle ever pushed (fired,
   cancelled and cleared ones included), [take], [min_time], [pop],
   [peek] and [clear], against a sorted list of the pending events and
   each serial's fate.  Times come from four values, so most events tie
   and only the tie-break orders them: a push's place, or its
   reservation's; bursts after a [clear] reuse the arrays' capacity. *)
type op =
  | Push of int
  | Burst of int * int
  | Reserve
  | Push_reserved of int * int (* time bucket, which unused reservation *)
  | Cancel of int
  | Take
  | Min_time
  | Pop
  | Peek
  | Clear

type fate = Pending | Fired | Cancelled

let gen_op =
  QCheck2.Gen.(
    frequency
      [ (6, map (fun b -> Push b) (int_range 0 3));
        (1, map2 (fun b k -> Burst (b, k)) (int_range 0 3) (int_range 1 40));
        (2, return Reserve);
        (2, map2 (fun b i -> Push_reserved (b, i)) (int_range 0 3) (int_range 0 1000));
        (3, map (fun i -> Cancel i) (int_range 0 1000));
        (3, return Take);
        (2, return Min_time);
        (2, return Pop);
        (1, return Peek);
        (1, return Clear) ])

let prop_operations_match_model =
  Helpers.qcheck ~count:300 "every operation matches a sorted-list model"
    QCheck2.Gen.(list_size (int_range 0 150) gen_op)
    (fun script ->
      let q = Event_queue.create () in
      let handles = Hashtbl.create 64 and fates = Hashtbl.create 64 in
      (* (time, order, serial), sorted: [order] counts pushes and
         reservations in the order they happened. *)
      let pending = ref [] in
      let order = ref 0 in
      let reserved = ref [] in (* (order, seq) not pushed yet *)
      let push_one bucket =
        let time = float_of_int bucket and serial = Hashtbl.length handles in
        Hashtbl.replace handles serial (Event_queue.push q ~time serial);
        Hashtbl.replace fates serial Pending;
        incr order;
        pending := List.merge compare !pending [ (time, !order, serial) ]
      in
      let fire_first () =
        match !pending with
        | [] -> ()
        | (_, _, serial) :: rest ->
          Hashtbl.replace fates serial Fired;
          pending := rest
      in
      let first () = match !pending with [] -> None | (t, _, s) :: _ -> Some (t, s) in
      let step = function
        | Push b -> push_one b; true
        | Burst (b, k) ->
          for _ = 1 to k do push_one b done;
          true
        | Reserve ->
          incr order;
          reserved := !reserved @ [ (!order, Event_queue.reserve q) ];
          true
        | Push_reserved (b, i) ->
          (match !reserved with
          | [] -> ()
          | _ ->
            let ord, seq = List.nth !reserved (i mod List.length !reserved) in
            reserved := List.filter (fun (o, _) -> o <> ord) !reserved;
            let time = float_of_int b and serial = Hashtbl.length handles in
            Hashtbl.replace handles serial
              (Event_queue.push_reserved q ~time ~seq serial);
            Hashtbl.replace fates serial Pending;
            pending := List.merge compare !pending [ (time, ord, serial) ]);
          true
        | Cancel i ->
          Hashtbl.length handles = 0
          ||
          let serial = i mod Hashtbl.length handles in
          let h = Hashtbl.find handles serial in
          let was_pending = Hashtbl.find fates serial = Pending in
          if was_pending then begin
            Hashtbl.replace fates serial Cancelled;
            pending := List.filter (fun (_, _, s) -> s <> serial) !pending
          end;
          Event_queue.cancel_handle q h = was_pending
          && Event_queue.is_cancelled h = (Hashtbl.find fates serial = Cancelled)
        | Take -> (
          match !pending with
          | [] -> ( try ignore (Event_queue.take q); false with Invalid_argument _ -> true)
          | (_, _, serial) :: _ ->
            fire_first ();
            Event_queue.take q = serial)
        | Min_time ->
          Event_queue.min_time q
          = (match first () with None -> infinity | Some (time, _) -> time)
        | Pop ->
          let expected = first () in
          fire_first ();
          Event_queue.pop q = expected
        | Peek -> Event_queue.peek q = first ()
        | Clear ->
          Event_queue.clear q;
          List.iter (fun (_, _, s) -> Hashtbl.replace fates s Cancelled) !pending;
          pending := [];
          true
      in
      List.for_all
        (fun op ->
          step op
          && Event_queue.length q = List.length !pending
          && Event_queue.is_empty q = (!pending = []))
        script
      && Event_queue.drain q = List.map (fun (t, _, s) -> (t, s)) !pending)

(* Taking an event empties its pool slot, and a cancelled event's slot
   is emptied when it surfaces, so neither payload stays reachable from
   the queue, including the last one taken from a queue that is then
   empty.  The payloads are pushed in a function of their own so no
   stack slot keeps them; the event still pending stays reachable. *)
let push_tracked q weak ~time ~cancel i =
  let payload = ref i in
  Weak.set weak i (Some payload);
  let h = Event_queue.push q ~time payload in
  if cancel then ignore (Event_queue.cancel_handle q h)
[@@inline never]

let test_removed_payloads_are_collectable () =
  let q = Event_queue.create () in
  let weak = Weak.create 4 in
  push_tracked q weak ~time:1. ~cancel:true 0;
  push_tracked q weak ~time:2. ~cancel:false 1;
  push_tracked q weak ~time:3. ~cancel:false 2;
  Helpers.check_int "fired payload" 1 !(Event_queue.take q);
  Gc.full_major ();
  Alcotest.(check bool) "cancelled payload collected" false (Weak.check weak 0);
  Alcotest.(check bool) "fired payload collected" false (Weak.check weak 1);
  Alcotest.(check bool) "pending payload kept" true (Weak.check weak 2);
  Helpers.check_int "last payload" 2 !(Event_queue.take q);
  push_tracked q weak ~time:4. ~cancel:true 3;
  Alcotest.(check bool) "nothing left" true (Event_queue.min_time q = infinity);
  Gc.full_major ();
  Alcotest.(check bool) "last fired payload collected" false (Weak.check weak 2);
  Alcotest.(check bool) "discarded payload collected" false (Weak.check weak 3)

(* Forgotten events count as cancelled: cancelling one after [clear]
   must not make the pending count go negative. *)
let test_cancel_after_clear () =
  let q = Event_queue.create () in
  let a = Event_queue.push q ~time:1. "a" in
  Event_queue.clear q;
  Alcotest.(check bool) "cancel is a no-op" false (Event_queue.cancel_handle q a);
  Alcotest.(check bool) "counts as cancelled" true (Event_queue.is_cancelled a);
  push q ~time:2. "b";
  Helpers.check_int "one pending" 1 (Event_queue.length q);
  Alcotest.(check (list string)) "b fires" [ "b" ] (List.map snd (Event_queue.drain q))

let () =
  Helpers.run "event_queue"
    [ ( "event_queue",
        [ Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "ordering" `Quick test_ordering;
          Alcotest.test_case "fifo ties" `Quick test_fifo_ties;
          Alcotest.test_case "peek" `Quick test_peek_does_not_remove;
          Alcotest.test_case "interleaved" `Quick test_interleaved_push_pop;
          Alcotest.test_case "clear" `Quick test_clear;
          Alcotest.test_case "grows" `Quick test_grows;
          Alcotest.test_case "cancel basic" `Quick test_cancel_basic;
          Alcotest.test_case "cancel root" `Quick test_cancel_root;
          prop_drain_sorted;
          prop_stable_for_equal_times;
          prop_cancel_model;
          prop_operations_match_model;
          Alcotest.test_case "removed payloads are collectable" `Quick
            test_removed_payloads_are_collectable;
          Alcotest.test_case "cancel after clear" `Quick test_cancel_after_clear ] ) ]
