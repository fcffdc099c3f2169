open Plookup_store
open Plookup_util

let test_empty () =
  let s = Server_store.create () in
  Helpers.check_int "cardinal" 0 (Server_store.cardinal s);
  Alcotest.(check bool) "is_empty" true (Server_store.is_empty s);
  Alcotest.(check bool) "random_one" true (Server_store.random_one s (Rng.create 0) = None)

let test_add_remove_mem () =
  let s = Server_store.create () in
  Alcotest.(check bool) "fresh add" true (Server_store.add s (Entry.v 1));
  Alcotest.(check bool) "duplicate add" false (Server_store.add s (Entry.v 1));
  Alcotest.(check bool) "mem" true (Server_store.mem s (Entry.v 1));
  Helpers.check_int "cardinal" 1 (Server_store.cardinal s);
  Alcotest.(check bool) "remove present" true (Server_store.remove s (Entry.v 1));
  Alcotest.(check bool) "remove absent" false (Server_store.remove s (Entry.v 1));
  Helpers.check_int "empty again" 0 (Server_store.cardinal s)

let test_swap_remove_keeps_others () =
  let s = Server_store.create () in
  List.iter (fun i -> ignore (Server_store.add s (Entry.v i))) [ 0; 1; 2; 3; 4 ];
  ignore (Server_store.remove s (Entry.v 2));
  Alcotest.(check (list int)) "remaining" [ 0; 1; 3; 4 ] (Helpers.sorted_ids (Server_store.to_list s));
  (* Remove the element that was swapped into the hole. *)
  ignore (Server_store.remove s (Entry.v 4));
  Alcotest.(check (list int)) "after second removal" [ 0; 1; 3 ]
    (Helpers.sorted_ids (Server_store.to_list s))

let test_random_pick_distinct () =
  let s = Server_store.create () in
  for i = 0 to 19 do
    ignore (Server_store.add s (Entry.v i))
  done;
  let rng = Rng.create 1 in
  for _ = 1 to 100 do
    let picked = Server_store.random_pick s rng 7 in
    Helpers.check_int "pick size" 7 (List.length picked);
    Helpers.check_int "pick distinct" 7 (List.length (List.sort_uniq compare (Helpers.sorted_ids picked)))
  done

let test_random_pick_clamps () =
  let s = Server_store.create () in
  ignore (Server_store.add s (Entry.v 0));
  ignore (Server_store.add s (Entry.v 1));
  let rng = Rng.create 2 in
  Helpers.check_int "asks for more than stored" 2
    (List.length (Server_store.random_pick s rng 10));
  Helpers.check_int "zero" 0 (List.length (Server_store.random_pick s rng 0));
  Helpers.check_int "negative treated as zero" 0
    (List.length (Server_store.random_pick s rng (-3)))

let test_random_pick_uniform () =
  (* Each of 10 entries should appear in a 3-of-10 pick ~30% of the time. *)
  let s = Server_store.create () in
  for i = 0 to 9 do
    ignore (Server_store.add s (Entry.v i))
  done;
  let rng = Rng.create 3 in
  let counts = Array.make 10 0 in
  let draws = 20_000 in
  for _ = 1 to draws do
    List.iter
      (fun e -> counts.(Entry.id e) <- counts.(Entry.id e) + 1)
      (Server_store.random_pick s rng 3)
  done;
  Array.iteri
    (fun i c ->
      Helpers.roughly ~rel:0.07
        (Printf.sprintf "entry %d frequency" i)
        0.3
        (float_of_int c /. float_of_int draws))
    counts

let test_random_pick_whole_store () =
  (* k >= size: the answer is the whole store and the generator is not
     touched. *)
  let s = Server_store.create () in
  for i = 0 to 4 do
    ignore (Server_store.add s (Entry.v i))
  done;
  let rng = Rng.create 5 in
  List.iter
    (fun k ->
      let twin = Rng.copy rng in
      Alcotest.(check (list int)) (Printf.sprintf "k=%d" k) [ 0; 1; 2; 3; 4 ]
        (Helpers.sorted_ids (Server_store.random_pick s rng k));
      Alcotest.(check int64) "no draw" (Rng.bits64 twin) (Rng.bits64 rng))
    [ 5; 6; 35; max_int ]

let test_random_pick_uniform_subsets () =
  let s = Server_store.create () in
  for i = 0 to 5 do
    ignore (Server_store.add s (Entry.v i))
  done;
  let rng = Rng.create 17 in
  for k = 1 to 5 do
    Helpers.uniform_over_subsets ~what:(Printf.sprintf "6 choose %d" k) ~n:6 ~k ~trials:6000
      (fun () -> List.map Entry.id (Server_store.random_pick s rng k))
  done

let test_clear () =
  let s = Server_store.create () in
  ignore (Server_store.add s (Entry.v 5));
  Server_store.clear s;
  Helpers.check_int "cleared" 0 (Server_store.cardinal s);
  Alcotest.(check bool) "mem false" false (Server_store.mem s (Entry.v 5));
  Alcotest.(check bool) "usable after clear" true (Server_store.add s (Entry.v 5))

let test_iter_fold_ids () =
  let s = Server_store.create () in
  List.iter (fun i -> ignore (Server_store.add s (Entry.v i))) [ 3; 1; 2 ];
  Helpers.check_int "fold count" 3 (Server_store.fold (fun _ acc -> acc + 1) s 0);
  Alcotest.(check (list int)) "ids" [ 1; 2; 3 ] (List.sort compare (Server_store.ids s));
  (* Slots stay dense across a swap-remove, and [nth] stops at the size. *)
  ignore (Server_store.remove s (Entry.v 3));
  let slots = List.init (Server_store.cardinal s) (fun i -> Entry.id (Server_store.nth s i)) in
  Alcotest.(check (list int)) "nth visits each entry once" [ 1; 2 ] (List.sort compare slots);
  List.iter
    (fun i ->
      match Server_store.nth s i with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "nth %d accepted outside [0, cardinal)" i)
    [ -1; 2 ]

let test_snapshot_bitset () =
  let s = Server_store.create () in
  List.iter (fun i -> ignore (Server_store.add s (Entry.v i))) [ 0; 4; 9 ];
  let bs = Server_store.snapshot_bitset s ~capacity:10 in
  Alcotest.(check (list int)) "bitset" [ 0; 4; 9 ] (Bitset.to_list bs)

module IntSet = Set.Make (Int)

(* The ids a case draws from: 31 values, dense or spread out, so the
   store's id table is exercised away from small consecutive keys too. *)
let id_sets =
  [| Fun.id; (fun i -> 16 * i); (fun i -> 1024 * i); (fun i -> (1 lsl 40) - 15 + i) |]

let prop_model =
  Helpers.qcheck ~count:300 "store agrees with Set model"
    QCheck2.Gen.(pair (int_range 0 (Array.length id_sets - 1)) (list (pair bool (int_range 0 30))))
    (fun (set, ops) ->
      let id = id_sets.(set) in
      let s = Server_store.create () in
      let model = ref IntSet.empty in
      List.iter
        (fun (is_add, i) ->
          let i = id i in
          if is_add then begin
            let added = Server_store.add s (Entry.v i) in
            let expected = not (IntSet.mem i !model) in
            model := IntSet.add i !model;
            if added <> expected then failwith "add result mismatch"
          end
          else begin
            let removed = Server_store.remove s (Entry.v i) in
            let expected = IntSet.mem i !model in
            model := IntSet.remove i !model;
            if removed <> expected then failwith "remove result mismatch"
          end;
          for j = 0 to 30 do
            if Server_store.mem s (Entry.v (id j)) <> IntSet.mem (id j) !model then
              failwith "mem mismatch"
          done)
        ops;
      Server_store.cardinal s = IntSet.cardinal !model
      && List.sort compare (Server_store.ids s) = IntSet.elements !model)

let prop_random_pick_subset =
  Helpers.qcheck "random_pick returns distinct stored entries"
    QCheck2.Gen.(triple (list (int_range 0 40)) (int_range 0 50) int)
    (fun (ids, k, seed) ->
      let s = Server_store.create () in
      List.iter (fun i -> ignore (Server_store.add s (Entry.v i))) ids;
      let rng = Rng.create seed in
      let picked = Server_store.random_pick s rng k in
      let picked_ids = List.map Entry.id picked in
      List.length picked = min (max k 0) (Server_store.cardinal s)
      && List.length (List.sort_uniq compare picked_ids) = List.length picked
      && List.for_all (fun i -> Server_store.mem s (Entry.v i)) picked_ids)

let () =
  Helpers.run "server_store"
    [ ( "server_store",
        [ Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "add/remove/mem" `Quick test_add_remove_mem;
          Alcotest.test_case "swap-remove" `Quick test_swap_remove_keeps_others;
          Alcotest.test_case "pick distinct" `Quick test_random_pick_distinct;
          Alcotest.test_case "pick clamps" `Quick test_random_pick_clamps;
          Alcotest.test_case "pick uniform" `Quick test_random_pick_uniform;
          Alcotest.test_case "pick whole store" `Quick test_random_pick_whole_store;
          Alcotest.test_case "pick uniform over subsets" `Quick
            test_random_pick_uniform_subsets;
          Alcotest.test_case "clear" `Quick test_clear;
          Alcotest.test_case "iter/fold/ids" `Quick test_iter_fold_ids;
          Alcotest.test_case "snapshot bitset" `Quick test_snapshot_bitset;
          prop_model;
          prop_random_pick_subset ] ) ]
