open Plookup_util

let test_empty () =
  Alcotest.(check (array int)) "empty input" [||] (Pool.map ~jobs:4 (fun x -> x) [||])

let test_single () =
  Alcotest.(check (array int)) "one element" [| 10 |]
    (Pool.map ~jobs:4 (fun x -> x * 10) [| 1 |])

let test_jobs_one_is_sequential () =
  (* jobs=1 must not spawn anything: side effects happen in array order
     on the calling domain. *)
  let seen = ref [] in
  let out =
    Pool.map ~jobs:1
      (fun x ->
        seen := x :: !seen;
        x + 1)
      [| 1; 2; 3; 4 |]
  in
  Alcotest.(check (array int)) "mapped" [| 2; 3; 4; 5 |] out;
  Alcotest.(check (list int)) "sequential order" [ 4; 3; 2; 1 ] !seen

let test_low_jobs_short_circuit () =
  (* jobs <= 1 is documented to behave exactly like Array.map. *)
  Alcotest.(check (array int)) "jobs=0" [| 1; 4; 9 |]
    (Pool.map ~jobs:0 (fun x -> x * x) [| 1; 2; 3 |]);
  Alcotest.(check (array int)) "jobs=-1" [| 1; 4; 9 |]
    (Pool.map ~jobs:(-1) (fun x -> x * x) [| 1; 2; 3 |])

let prop_matches_array_map =
  Helpers.qcheck ~count:200 "Pool.map = Array.map at any jobs"
    QCheck2.Gen.(pair (int_range 1 8) (array_size (int_range 0 100) int))
    (fun (jobs, arr) ->
      Pool.map ~jobs (fun x -> (2 * x) + 1) arr = Array.map (fun x -> (2 * x) + 1) arr)

let prop_order_preserved =
  Helpers.qcheck ~count:100 "results land at their input index"
    QCheck2.Gen.(int_range 1 8)
    (fun jobs ->
      let n = 500 in
      let out = Pool.map ~jobs (fun i -> i * i) (Array.init n Fun.id) in
      Array.length out = n
      && Array.for_all Fun.id (Array.mapi (fun i v -> v = i * i) out))

exception Boom of int

let test_exception_propagates () =
  (* The re-raised exception is the lowest-index failure, matching what
     plain Array.map would have raised first. *)
  for jobs = 1 to 6 do
    match
      Pool.map ~jobs
        (fun i -> if i mod 3 = 2 then raise (Boom i) else i)
        (Array.init 50 Fun.id)
    with
    | _ -> Alcotest.failf "jobs=%d: expected Boom" jobs
    | exception Boom i -> Alcotest.(check int) "lowest failing index" 2 i
  done

let test_parallel_flag_consistent () =
  let j = Pool.recommended_jobs () in
  Alcotest.(check bool) "recommended >= 1" true (j >= 1)

let () =
  Helpers.run "pool"
    [ ( "pool",
        [ Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "single" `Quick test_single;
          Alcotest.test_case "jobs=1 sequential" `Quick test_jobs_one_is_sequential;
          Alcotest.test_case "low jobs short-circuit" `Quick test_low_jobs_short_circuit;
          Alcotest.test_case "exception propagation" `Quick test_exception_propagates;
          Alcotest.test_case "parallel flag" `Quick test_parallel_flag_consistent;
          prop_matches_array_map;
          prop_order_preserved ] ) ]
