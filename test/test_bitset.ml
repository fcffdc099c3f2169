open Plookup_util

let test_empty () =
  let b = Bitset.create 100 in
  Helpers.check_int "cardinal" 0 (Bitset.cardinal b);
  Alcotest.(check bool) "is_empty" true (Bitset.is_empty b);
  Helpers.check_int "capacity" 100 (Bitset.capacity b)

let test_add_mem_remove () =
  let b = Bitset.create 64 in
  Bitset.add b 0;
  Bitset.add b 7;
  Bitset.add b 8;
  Bitset.add b 63;
  Alcotest.(check bool) "mem 0" true (Bitset.mem b 0);
  Alcotest.(check bool) "mem 7" true (Bitset.mem b 7);
  Alcotest.(check bool) "mem 8" true (Bitset.mem b 8);
  Alcotest.(check bool) "mem 63" true (Bitset.mem b 63);
  Alcotest.(check bool) "not mem 1" false (Bitset.mem b 1);
  Helpers.check_int "cardinal" 4 (Bitset.cardinal b);
  Bitset.remove b 7;
  Alcotest.(check bool) "removed" false (Bitset.mem b 7);
  Helpers.check_int "cardinal after remove" 3 (Bitset.cardinal b);
  Bitset.remove b 7 (* idempotent *);
  Helpers.check_int "remove idempotent" 3 (Bitset.cardinal b);
  Bitset.add b 0 (* idempotent *);
  Helpers.check_int "add idempotent" 3 (Bitset.cardinal b)

let test_bounds () =
  let b = Bitset.create 10 in
  Alcotest.check_raises "negative" (Invalid_argument "Bitset: index out of bounds")
    (fun () -> Bitset.add b (-1));
  Alcotest.check_raises "too large" (Invalid_argument "Bitset: index out of bounds")
    (fun () -> ignore (Bitset.mem b 10))

let test_non_multiple_of_8_capacity () =
  let b = Bitset.create 13 in
  for i = 0 to 12 do
    Bitset.add b i
  done;
  Helpers.check_int "all 13" 13 (Bitset.cardinal b);
  Alcotest.(check (list int)) "to_list" (List.init 13 Fun.id) (Bitset.to_list b)

let test_union_into () =
  let a = Bitset.of_list 16 [ 1; 5 ] in
  let b = Bitset.of_list 16 [ 5; 9 ] in
  Bitset.union_into a b;
  Alcotest.(check (list int)) "a grew" [ 1; 5; 9 ] (Bitset.to_list a);
  Alcotest.(check (list int)) "b unchanged" [ 5; 9 ] (Bitset.to_list b)

let test_capacity_mismatch () =
  let a = Bitset.create 8 and b = Bitset.create 16 in
  Alcotest.check_raises "mismatch" (Invalid_argument "Bitset: capacity mismatch") (fun () ->
      Bitset.union_into a b)

let test_copy_clear () =
  let a = Bitset.of_list 32 [ 4; 8 ] in
  let b = Bitset.copy a in
  Bitset.add b 9;
  Alcotest.(check bool) "copy independent" false (Bitset.mem a 9);
  Bitset.clear a;
  Alcotest.(check bool) "cleared" true (Bitset.is_empty a);
  Alcotest.(check bool) "copy survives clear" true (Bitset.mem b 4)

let test_equal () =
  let a = Bitset.of_list 10 [ 1; 2 ] and b = Bitset.of_list 10 [ 2; 1 ] in
  Alcotest.(check bool) "equal" true (Bitset.equal a b);
  Bitset.add b 3;
  Alcotest.(check bool) "not equal" false (Bitset.equal a b)

let test_fold_iter () =
  let a = Bitset.of_list 50 [ 3; 17; 42 ] in
  Helpers.check_int "fold sum" 62 (Bitset.fold ( + ) a 0);
  let seen = ref [] in
  Bitset.iter (fun i -> seen := i :: !seen) a;
  Alcotest.(check (list int)) "iter ascending" [ 3; 17; 42 ] (List.rev !seen)

module IntSet = Set.Make (Int)

let prop_model =
  Helpers.qcheck ~count:300 "bitset agrees with Set model under random ops"
    QCheck2.Gen.(list (pair bool (int_range 0 63)))
    (fun ops ->
      let b = Bitset.create 64 in
      let model = ref IntSet.empty in
      List.iter
        (fun (is_add, i) ->
          if is_add then begin
            Bitset.add b i;
            model := IntSet.add i !model
          end
          else begin
            Bitset.remove b i;
            model := IntSet.remove i !model
          end)
        ops;
      Bitset.cardinal b = IntSet.cardinal !model
      && Bitset.to_list b = IntSet.elements !model)

let () =
  Helpers.run "bitset"
    [ ( "bitset",
        [ Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "add/mem/remove" `Quick test_add_mem_remove;
          Alcotest.test_case "bounds" `Quick test_bounds;
          Alcotest.test_case "odd capacity" `Quick test_non_multiple_of_8_capacity;
          Alcotest.test_case "union_into" `Quick test_union_into;
          Alcotest.test_case "capacity mismatch" `Quick test_capacity_mismatch;
          Alcotest.test_case "copy/clear" `Quick test_copy_clear;
          Alcotest.test_case "equal" `Quick test_equal;
          Alcotest.test_case "fold/iter" `Quick test_fold_iter;
          prop_model ] ) ]
