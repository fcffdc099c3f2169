open Plookup_util
open Plookup_store
module Update_gen = Plookup_workload.Update_gen

let generate ?(seed = 1) ?(updates = 500) ?(tail_heavy = false) ?(h = 50) () =
  Update_gen.generate (Rng.create seed)
    { Update_gen.steady_entries = h; add_period = 10.; tail_heavy; updates }

(* A stream's events as (time, op) pairs, in index order. *)
let events stream =
  List.combine (Array.to_list stream.Update_gen.times) (Array.to_list stream.Update_gen.ops)

(* Reference generator: every add's events built up front, stable-sorted
   by time and truncated to [updates].  [Update_gen.generate] streams the
   same events without the sort; the properties below hold it to this. *)
let reference_stream ~seed ~h ~updates ~tail_heavy =
  let rng = Rng.create seed in
  let gen = Entry.Gen.create () in
  let lifetime = Dist.lifetime_of_mean ~tail_heavy ~mean:(10. *. float_of_int h) in
  let events = ref [] in
  let emit time op = events := (time, op) :: !events in
  let initial =
    List.init h (fun _ ->
        let e = Entry.Gen.fresh gen in
        emit (Dist.draw_lifetime rng lifetime) (Update_gen.Delete e);
        e)
  in
  let clock = ref 0. in
  for _ = 1 to updates do
    clock := !clock +. Dist.poisson_interarrival rng ~rate:(1. /. 10.);
    let e = Entry.Gen.fresh gen in
    emit !clock (Update_gen.Add e);
    emit (!clock +. Dist.draw_lifetime rng lifetime) (Update_gen.Delete e)
  done;
  let sorted = List.stable_sort (fun (a, _) (b, _) -> Float.compare a b) (List.rev !events) in
  let rec take k added acc = function
    | [] -> List.rev acc
    | _ when k = 0 -> List.rev acc
    | ((_, Update_gen.Add e) as ev) :: rest ->
      take (k - 1) (Entry.Set.add e added) (ev :: acc) rest
    | ((_, Update_gen.Delete e) as ev) :: rest ->
      let known =
        Entry.Set.mem e added || List.exists (fun e' -> Entry.equal e e') initial
      in
      if known then take (k - 1) added (ev :: acc) rest else take k added acc rest
  in
  (initial, take updates Entry.Set.empty [] sorted)

(* Streams compared bit for bit: times through their IEEE bits, ops by
   kind and entry id. *)
let event_key (time, op) =
  let kind, e = match op with Update_gen.Add e -> (0, e) | Update_gen.Delete e -> (1, e) in
  (Int64.bits_of_float time, kind, Entry.id e)

let matches_reference ~seed ~h ~updates ~tail_heavy =
  let stream = generate ~seed ~h ~updates ~tail_heavy () in
  let initial, expected = reference_stream ~seed ~h ~updates ~tail_heavy in
  List.map Entry.id stream.Update_gen.initial = List.map Entry.id initial
  && Array.length stream.Update_gen.times = Array.length stream.Update_gen.ops
  && List.map event_key (events stream) = List.map event_key expected

let check_reference ~seed ~h ~updates ~tail_heavy =
  Alcotest.(check bool)
    (Printf.sprintf "seed %d h %d updates %d tail_heavy %b" seed h updates tail_heavy)
    true
    (matches_reference ~seed ~h ~updates ~tail_heavy)

let test_initial_population () =
  let stream = generate ~h:50 () in
  Helpers.check_int "initial size" 50 (List.length stream.Update_gen.initial);
  Alcotest.(check (list int)) "dense ids" (List.init 50 Fun.id)
    (Helpers.sorted_ids stream.Update_gen.initial)

let test_event_count () =
  let stream = generate ~updates:500 () in
  Helpers.check_int "exactly the requested updates" 500 (Array.length stream.Update_gen.ops);
  Helpers.check_int "one time per update" 500 (Array.length stream.Update_gen.times)

let test_events_sorted () =
  let times = (generate ~updates:1000 ()).Update_gen.times in
  for i = 1 to Array.length times - 1 do
    if times.(i - 1) > times.(i) then Alcotest.fail "events out of order"
  done

let test_no_delete_before_add () =
  let stream = generate ~updates:2000 () in
  let born = Hashtbl.create 64 in
  List.iter (fun e -> Hashtbl.replace born (Entry.id e) ()) stream.Update_gen.initial;
  Array.iter
    (function
      | Update_gen.Add e -> Hashtbl.replace born (Entry.id e) ()
      | Update_gen.Delete e ->
        if not (Hashtbl.mem born (Entry.id e)) then
          Alcotest.failf "delete of unborn entry %d" (Entry.id e))
    stream.Update_gen.ops

let test_no_double_delete () =
  let stream = generate ~updates:2000 () in
  let deleted = Hashtbl.create 64 in
  Array.iter
    (function
      | Update_gen.Delete e ->
        if Hashtbl.mem deleted (Entry.id e) then
          Alcotest.failf "entry %d deleted twice" (Entry.id e);
        Hashtbl.replace deleted (Entry.id e) ()
      | Update_gen.Add _ -> ())
    stream.Update_gen.ops

let test_steady_state_population () =
  (* Live count should hover around h through the stream. *)
  let h = 100 in
  let stream = generate ~seed:3 ~h ~updates:4000 () in
  let live = ref (List.length stream.Update_gen.initial) in
  let acc = Stats.Accum.create () in
  Array.iter
    (fun op ->
      (match op with Update_gen.Add _ -> incr live | Update_gen.Delete _ -> decr live);
      Stats.Accum.add acc (float_of_int !live))
    stream.Update_gen.ops;
  Helpers.roughly ~rel:0.15 "mean live ~ h" (float_of_int h) (Stats.Accum.mean acc)

let test_add_rate () =
  (* Adds arrive once per add_period on average: over the horizon the
     add count and elapsed time agree. *)
  let stream = generate ~seed:4 ~updates:4000 () in
  let adds =
    Array.fold_left
      (fun n op -> match op with Update_gen.Add _ -> n + 1 | Update_gen.Delete _ -> n)
      0 stream.Update_gen.ops
  in
  let times = stream.Update_gen.times in
  let horizon = if times = [||] then 0. else times.(Array.length times - 1) in
  Helpers.roughly ~rel:0.1 "adds ~ horizon / period" (horizon /. 10.) (float_of_int adds)

let test_zipf_stream_differs () =
  let exp_stream = generate ~seed:5 ~tail_heavy:false () in
  let zipf_stream = generate ~seed:5 ~tail_heavy:true () in
  Alcotest.(check bool) "different delete schedules" true
    (exp_stream.Update_gen.times <> zipf_stream.Update_gen.times)

let test_live_after () =
  let stream = generate ~h:10 ~updates:50 () in
  let live0 = Update_gen.live_after stream 0 in
  Alcotest.(check (list int)) "live at 0 = initial" (List.init 10 Fun.id)
    (Helpers.sorted_ids live0);
  (* Applying events by hand must agree at every prefix. *)
  let table = Hashtbl.create 64 in
  List.iter (fun e -> Hashtbl.replace table (Entry.id e) ()) stream.Update_gen.initial;
  Array.iteri
    (fun i op ->
      (match op with
      | Update_gen.Add e -> Hashtbl.replace table (Entry.id e) ()
      | Update_gen.Delete e -> Hashtbl.remove table (Entry.id e));
      let expected = List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) table []) in
      let got = Helpers.sorted_ids (Update_gen.live_after stream (i + 1)) in
      if expected <> got then Alcotest.failf "live_after mismatch at %d" (i + 1))
    stream.Update_gen.ops

(* The generator fills two flat arrays in place: per event it allocates
   the entry, its op, its delete's queue node and the queue's answers,
   but no list cell, event record or boxed time. *)
let test_generate_allocation () =
  let updates = 20_000 in
  let before = Gc.minor_words () in
  let stream = generate ~h:100 ~updates () in
  let per_event = (Gc.minor_words () -. before) /. float_of_int updates in
  Helpers.check_int "events" updates (Array.length stream.Update_gen.ops);
  if per_event > 24. then Alcotest.failf "%.1f minor words per event, above 24" per_event

let test_default_spec () =
  Helpers.check_int "paper default h" 100 Update_gen.default_spec.Update_gen.steady_entries;
  Helpers.close "paper default period" 10. Update_gen.default_spec.Update_gen.add_period;
  Helpers.check_int "paper default updates" 10000 Update_gen.default_spec.Update_gen.updates

let test_validation () =
  let rng = Rng.create 0 in
  Alcotest.check_raises "h = 0" (Invalid_argument "Update_gen.generate: steady_entries")
    (fun () ->
      ignore
        (Update_gen.generate rng
           { Update_gen.steady_entries = 0; add_period = 1.; tail_heavy = false; updates = 1 }))

let prop_event_count_exact =
  Helpers.qcheck ~count:30 "streams have exactly the requested updates"
    QCheck2.Gen.(pair int (int_range 0 300))
    (fun (seed, updates) ->
      let stream = generate ~seed ~updates () in
      Array.length stream.Update_gen.ops = updates
      && Array.length stream.Update_gen.times = updates)

let test_no_updates () =
  List.iter
    (fun tail_heavy -> check_reference ~seed:9 ~h:30 ~updates:0 ~tail_heavy)
    [ false; true ]

let test_single_entry () =
  List.iter
    (fun (seed, updates, tail_heavy) -> check_reference ~seed ~h:1 ~updates ~tail_heavy)
    [ (1, 1, false); (2, 2, true); (3, 500, false); (4, 5000, true) ]

let prop_matches_reference =
  Helpers.qcheck ~count:60 "streamed generator equals the sort-and-truncate reference"
    QCheck2.Gen.(quad int (int_range 1 400) (int_range 0 20000) bool)
    (fun (seed, h, updates, tail_heavy) -> matches_reference ~seed ~h ~updates ~tail_heavy)

let prop_ids_unique =
  Helpers.qcheck ~count:20 "every add introduces a fresh id"
    QCheck2.Gen.int
    (fun seed ->
      let stream = generate ~seed ~updates:500 () in
      let ids =
        List.filter_map
          (function Update_gen.Add e -> Some (Entry.id e) | Update_gen.Delete _ -> None)
          (Array.to_list stream.Update_gen.ops)
      in
      List.length ids = List.length (List.sort_uniq compare ids))

let () =
  Helpers.run "workload"
    [ ( "update_gen",
        [ Alcotest.test_case "initial population" `Quick test_initial_population;
          Alcotest.test_case "event count" `Quick test_event_count;
          Alcotest.test_case "sorted" `Quick test_events_sorted;
          Alcotest.test_case "no delete before add" `Quick test_no_delete_before_add;
          Alcotest.test_case "no double delete" `Quick test_no_double_delete;
          Alcotest.test_case "steady state" `Quick test_steady_state_population;
          Alcotest.test_case "add rate" `Quick test_add_rate;
          Alcotest.test_case "zipf differs" `Quick test_zipf_stream_differs;
          Alcotest.test_case "live_after" `Quick test_live_after;
          Alcotest.test_case "generate allocates little per event" `Quick
            test_generate_allocation;
          Alcotest.test_case "default spec" `Quick test_default_spec;
          Alcotest.test_case "validation" `Quick test_validation;
          Alcotest.test_case "no updates" `Quick test_no_updates;
          Alcotest.test_case "single entry" `Quick test_single_entry;
          prop_event_count_exact;
          prop_matches_reference;
          prop_ids_unique ] ) ]
