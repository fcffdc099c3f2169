open Plookup_store
open Plookup_util

(* One pick buffer lent to every store below, as a cluster lends its
   one to all its stores. *)
let scratch = Server_store.scratch ()

let test_empty () =
  let s = Server_store.create () in
  Helpers.check_int "cardinal" 0 (Server_store.cardinal s);
  Alcotest.(check bool) "is_empty" true (Server_store.is_empty s)

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
    let picked = Server_store.random_pick s ~scratch rng 7 in
    Helpers.check_int "pick size" 7 (List.length picked);
    Helpers.check_int "pick distinct" 7 (List.length (List.sort_uniq compare (Helpers.sorted_ids picked)))
  done

let test_random_pick_clamps () =
  let s = Server_store.create () in
  ignore (Server_store.add s (Entry.v 0));
  ignore (Server_store.add s (Entry.v 1));
  let rng = Rng.create 2 in
  Helpers.check_int "asks for more than stored" 2
    (List.length (Server_store.random_pick s ~scratch rng 10));
  Helpers.check_int "zero" 0 (List.length (Server_store.random_pick s ~scratch rng 0));
  Helpers.check_int "negative treated as zero" 0
    (List.length (Server_store.random_pick s ~scratch rng (-3)))

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
      (Server_store.random_pick s ~scratch rng 3)
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
        (Helpers.sorted_ids (Server_store.random_pick s ~scratch rng k));
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
      (fun () -> List.map Entry.id (Server_store.random_pick s ~scratch rng k))
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
      let picked = Server_store.random_pick s ~scratch rng k in
      let picked_ids = List.map Entry.id picked in
      List.length picked = min (max k 0) (Server_store.cardinal s)
      && List.length (List.sort_uniq compare picked_ids) = List.length picked
      && List.for_all (fun i -> Server_store.mem s (Entry.v i)) picked_ids)

(* The store as it was before its id table became open addressing: the
   same slots behind a stdlib [Hashtbl] from id to slot.  It is the
   reference the store must match slot for slot. *)
module Reference = struct
  type t = { mutable slots : int array; mutable size : int; index : (int, int) Hashtbl.t }

  let create () = { slots = [||]; size = 0; index = Hashtbl.create 16 }
  let mem t id = Hashtbl.mem t.index id

  let add t id =
    if mem t id then false
    else begin
      if t.size = Array.length t.slots then begin
        let slots = Array.make (max 8 (2 * t.size)) 0 in
        Array.blit t.slots 0 slots 0 t.size;
        t.slots <- slots
      end;
      t.slots.(t.size) <- id;
      Hashtbl.replace t.index id t.size;
      t.size <- t.size + 1;
      true
    end

  let remove t id =
    match Hashtbl.find_opt t.index id with
    | None -> false
    | Some slot ->
      Hashtbl.remove t.index id;
      let last = t.size - 1 in
      if slot <> last then begin
        t.slots.(slot) <- t.slots.(last);
        Hashtbl.replace t.index t.slots.(slot) slot
      end;
      t.size <- last;
      true

  let clear t =
    t.size <- 0;
    Hashtbl.reset t.index
end

(* The top 10 bits of [id] times the store's Fibonacci constant fix
   its home cell in every table of up to 1,024 cells, so ids sharing
   them crowd the store's table worst. *)
let top10 id = (id * 0x278DDE6E5FD29F05) lsr 53

(* The first [count] ids from [from] whose top 10 bits are [home]. *)
let sharing_home ~home ~from count =
  let rec go id acc k =
    if k = 0 then Array.of_list (List.rev acc)
    else if top10 id = home then go (id + 1) (id :: acc) (k - 1)
    else go (id + 1) acc k
  in
  go from [] count

(* The store's summary mark of [id], 0 .. 56: its second
   multiplicative hash, as [Server_store] computes it. *)
let mark id = (((id * 0x1CE4E5B9BF58476D) lsr 32) * 57) lsr 31

(* The first [count] ids from [from] whose marks are in [marks]. *)
let sharing_marks ~marks ~from count =
  let rec go id acc k =
    if k = 0 then Array.of_list (List.rev acc)
    else if List.mem (mark id) marks then go (id + 1) (id :: acc) (k - 1)
    else go (id + 1) acc k
  in
  go from [] count

(* Adversarial id pools of 64 ids each: one residue class mod 2^k,
   ids at or above 2^40, id 0 among small ids, ids that share one
   home cell at every table size the cases reach, at the table's last
   cell (so their run wraps around) and at its first, and ids that
   share one summary mark or two, so that an absent id's mark is
   nearly always set. *)
let pools =
  [| Array.init 64 Fun.id;
     Array.init 64 (fun i -> 5 + (i lsl 3));
     Array.init 64 (fun i -> 3 + (i lsl 10));
     Array.init 64 (fun i -> i lsl 20);
     Array.init 64 (fun i -> (1 lsl 40) + (i * 7919));
     Array.init 64 (fun i -> (1 lsl 61) + (i lsl 30));
     sharing_home ~home:1023 ~from:0 64;
     sharing_home ~home:0 ~from:1 64;
     sharing_marks ~marks:[ 0 ] ~from:0 64;
     sharing_marks ~marks:[ 17; 56 ] ~from:(1 lsl 40) 64 |]

(* [Fill k] adds the pool's first [k] ids, 7 or more, so the table
   grows past the 8 cells the summary covers; [Drain k] then removes
   entries until [k] of 0-3 are left in a table that keeps its size, so
   only the probe can answer until a [Clear]. *)
type op = Add of int | Remove of int | Mem of int | Clear | Fill of int | Drain of int

let op_gen =
  QCheck2.Gen.(
    frequency
      [ (6, map (fun i -> Add i) (int_range 0 63));
        (4, map (fun i -> Remove i) (int_range 0 63));
        (2, map (fun i -> Mem i) (int_range 0 63));
        (1, pure Clear);
        (1, map (fun k -> Fill k) (int_range 7 64));
        (1, map (fun k -> Drain k) (int_range 0 3)) ])

let prop_matches_reference =
  Helpers.qcheck ~count:400 "store matches the Hashtbl-indexed reference"
    QCheck2.Gen.(
      pair (int_range 0 (Array.length pools - 1)) (list_size (int_range 0 400) op_gen))
    (fun (pool, ops) ->
      let id i = pools.(pool).(i) in
      let s = Server_store.create () and r = Reference.create () in
      List.iter
        (fun op ->
          let same =
            match op with
            | Add i -> Server_store.add s (Entry.v (id i)) = Reference.add r (id i)
            | Remove i -> Server_store.remove s (Entry.v (id i)) = Reference.remove r (id i)
            | Mem i -> Server_store.mem s (Entry.v (id i)) = Reference.mem r (id i)
            | Clear ->
              Server_store.clear s;
              Reference.clear r;
              true
            | Fill k ->
              List.for_all
                (fun i -> Server_store.add s (Entry.v (id i)) = Reference.add r (id i))
                (List.init k Fun.id)
            | Drain k ->
              let same = ref true in
              while r.Reference.size > k do
                let i = r.Reference.slots.(0) in
                same := !same && Server_store.remove s (Entry.v i) = Reference.remove r i
              done;
              !same
          in
          if not same then failwith "result differs from the reference";
          if Server_store.cardinal s <> r.Reference.size then failwith "cardinal differs";
          for slot = 0 to r.Reference.size - 1 do
            let e = Server_store.nth s slot in
            if Entry.id e <> r.Reference.slots.(slot) || Server_store.slot s e <> slot then
              failwith (Printf.sprintf "slot %d differs" slot)
          done;
          Array.iter
            (fun i ->
              if Server_store.mem s (Entry.v i) <> Reference.mem r i then
                failwith (Printf.sprintf "mem %d differs" i);
              if (not (Reference.mem r i)) && Server_store.slot s (Entry.v i) <> -1 then
                failwith (Printf.sprintf "id %d has a slot" i))
            pools.(pool))
        ops;
      true)

(* A store emptied from a 64-cell table keeps its cells and the marks
   it set before its table outgrew the summary, which no longer
   describe what it holds: each id it once held, and each id that
   shares their marks, reads absent. *)
let test_emptied_store_answers_absent () =
  let ids = List.init 40 (fun i -> 7 + (i * 10_000)) in
  let s = Server_store.create () in
  List.iter (fun i -> ignore (Server_store.add s (Entry.v i))) ids;
  List.iter (fun i -> ignore (Server_store.remove s (Entry.v i))) (List.rev ids);
  Helpers.check_int "cardinal" 0 (Server_store.cardinal s);
  List.iter
    (fun i ->
      let e = Entry.v i in
      Helpers.check_bool (Printf.sprintf "mem %d" i) false (Server_store.mem s e);
      Helpers.check_int (Printf.sprintf "slot %d" i) (-1) (Server_store.slot s e);
      Helpers.check_bool (Printf.sprintf "remove %d" i) false (Server_store.remove s e))
    (ids @ Array.to_list (sharing_marks ~marks:(List.map mark ids) ~from:1 40));
  Helpers.check_int "longest run" 0 (Server_store.longest_run s)

(* Ids 0, s, 2s, ... inserted into a fresh store, for the strides a
   RoundRobin server's ids take.  The longest runs measured are in
   DESIGN.md; each bound is about twice the worst of them. *)
let test_strided_runs () =
  List.iter
    (fun (count, bound) ->
      List.iter
        (fun stride ->
          let s = Server_store.create () in
          for i = 0 to count - 1 do
            ignore (Server_store.add s (Entry.v (i * stride)))
          done;
          let run = Server_store.longest_run s in
          if run > bound then
            Alcotest.failf "%d ids at stride %d: longest run %d (bound %d)" count stride run
              bound)
        [ 1; 2; 8; 10; 16; 100; 1024; 10_000; 1 lsl 20 ])
    [ (100, 12); (1_000, 8); (10_000, 30) ]

let minor_words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* Once a store has grown to its size, churn allocates nothing: every
   write goes to the slots and the int table it already has. *)
let test_warm_store_allocates_nothing () =
  let n = 1_000 in
  let entries = Array.init n (fun i -> Entry.v (i * 1024)) in
  let s = Server_store.create () in
  Array.iter (fun e -> ignore (Server_store.add s e)) entries;
  let words =
    minor_words (fun () ->
        for i = 0 to n - 1 do
          ignore (Server_store.remove s entries.(i))
        done;
        for i = 0 to n - 1 do
          ignore (Server_store.mem s entries.(i))
        done;
        for i = n - 1 downto 0 do
          ignore (Server_store.add s entries.(i))
        done;
        for i = 0 to n - 1 do
          ignore (Server_store.mem s entries.(i));
          ignore (Server_store.slot s entries.(i));
          ignore (Server_store.add s entries.(i))
        done)
  in
  Alcotest.(check (float 0.)) "minor words" 0. words

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
          prop_random_pick_subset ] );
      ( "index",
        [ prop_matches_reference;
          Alcotest.test_case "emptied store answers absent" `Quick
            test_emptied_store_answers_absent;
          Alcotest.test_case "strided runs" `Quick test_strided_runs;
          Alcotest.test_case "warm store allocates nothing" `Quick
            test_warm_store_allocates_nothing ] ) ]
