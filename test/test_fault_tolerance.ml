open Plookup
open Plookup_util
module FT = Plookup_metrics.Fault_tolerance
module Analytic = Plookup_metrics.Analytic

let placement_of_lists capacity lists =
  Array.of_list (List.map (Bitset.of_list capacity) lists)

let test_full_replication_tolerance () =
  let p = placement_of_lists 4 [ [ 0; 1; 2; 3 ]; [ 0; 1; 2; 3 ]; [ 0; 1; 2; 3 ] ] in
  Helpers.check_int "greedy n-1" 2 (FT.greedy p ~t:4);
  Helpers.check_int "exact n-1" 2 (FT.exact p ~t:4)

let test_single_point_of_failure () =
  (* Entry 2 only on server 0: one failure breaks t=3. *)
  let p = placement_of_lists 3 [ [ 0; 1; 2 ]; [ 0; 1 ]; [ 0; 1 ] ] in
  Helpers.check_int "greedy" 0 (FT.greedy p ~t:3);
  Helpers.check_int "exact" 0 (FT.exact p ~t:3);
  (* But t=2 survives until all three die. *)
  Helpers.check_int "t=2 greedy" 2 (FT.greedy p ~t:2);
  Helpers.check_int "t=2 exact" 2 (FT.exact p ~t:2)

let test_unsatisfiable_target () =
  let p = placement_of_lists 5 [ [ 0 ]; [ 1 ] ] in
  Helpers.check_int "greedy -1" (-1) (FT.greedy p ~t:3);
  Helpers.check_int "exact -1" (-1) (FT.exact p ~t:3)

let test_round_robin_matches_formula () =
  let n = 10 and h = 100 in
  List.iter
    (fun (y, t) ->
      let service, _ = Helpers.placed_service ~n ~h (Service.round_robin y) in
      let p = FT.snapshot (Service.cluster service) ~capacity:h in
      Helpers.check_int
        (Printf.sprintf "round-%d t=%d" y t)
        (Analytic.fault_tolerance_round_robin ~n ~h ~y ~t)
        (FT.greedy p ~t))
    [ (1, 10); (1, 30); (1, 50); (2, 10); (2, 25); (2, 50); (3, 40) ]

let test_greedy_picks_most_important_first () =
  (* Server 0 holds the only copy of entries 3 and 4: it is the most
     "endangered" and must fall first. *)
  let p = placement_of_lists 5 [ [ 0; 3; 4 ]; [ 0; 1; 2 ]; [ 1; 2; 0 ] ] in
  (match FT.greedy_failure_order p with
  | first :: _ -> Helpers.check_int "server 0 first" 0 first
  | [] -> Alcotest.fail "no failure order");
  Helpers.check_int "order covers all servers" 3 (List.length (FT.greedy_failure_order p))

let test_validation () =
  let p = placement_of_lists 2 [ [ 0 ] ] in
  Alcotest.check_raises "t = 0" (Invalid_argument "Fault_tolerance.greedy: t must be positive")
    (fun () -> ignore (FT.greedy p ~t:0))

let test_snapshot_reflects_stores () =
  let service, _ = Helpers.placed_service ~n:4 ~h:8 (Service.round_robin 1) in
  let p = FT.snapshot (Service.cluster service) ~capacity:8 in
  Helpers.check_int "4 bitsets" 4 (Array.length p);
  Alcotest.(check (list int)) "server 0 entries" [ 0; 4 ] (Bitset.to_list p.(0))

(* Random placements: greedy never reports less tolerance than the
   exact optimum.  Its breaking set is never smaller than the minimum
   one, so greedy is an upper bound on tolerance. *)
let random_placement rng ~servers ~entries =
  List.init servers (fun _ ->
      List.filter (fun _ -> Rng.bool rng) (List.init entries Fun.id))
  |> placement_of_lists entries

let prop_greedy_at_least_exact =
  Helpers.qcheck ~count:60 "greedy tolerance >= exact tolerance"
    QCheck2.Gen.(triple int (int_range 2 6) (int_range 1 8))
    (fun (seed, servers, t) ->
      let rng = Rng.create seed in
      let p = random_placement rng ~servers ~entries:10 in
      let g = FT.greedy p ~t and e = FT.exact p ~t in
      (g = -1 && e = -1) || g >= e)

let prop_exact_within_bounds =
  Helpers.qcheck ~count:60 "exact tolerance in [-1, servers-1]"
    QCheck2.Gen.(pair int (int_range 1 5))
    (fun (seed, servers) ->
      let rng = Rng.create seed in
      let p = random_placement rng ~servers ~entries:8 in
      let e = FT.exact p ~t:3 in
      e >= -1 && e <= servers - 1)

let prop_greedy_monotone_in_t =
  Helpers.qcheck ~count:40 "tolerance non-increasing in t"
    QCheck2.Gen.int
    (fun seed ->
      let rng = Rng.create seed in
      let p = random_placement rng ~servers:5 ~entries:10 in
      let values = List.map (fun t -> FT.greedy p ~t) [ 1; 3; 5; 8 ] in
      let rec non_increasing = function
        | a :: (b :: _ as rest) -> a >= b && non_increasing rest
        | _ -> true
      in
      (* -1 means "never satisfiable" and only appears at the large-t
         end, which is consistent with non-increasing. *)
      non_increasing values)

(* Appendix A on every registered strategy's own placements: greedy
   brackets the exact tolerance from above, and failing greedy's first
   [greedy] victims on the live cluster really leaves t entries
   reachable. *)
let prop_appendix_a_on_real_placements =
  Helpers.qcheck ~count:300 "Appendix A on real placements"
    QCheck2.Gen.(quad int (int_range 3 8) (int_range 8 30) (int_range 1 30))
    (fun (seed, n, h, t) ->
      List.for_all
        (fun config ->
          let service, _ = Helpers.placed_service ~seed ~n ~h config in
          let cluster = Service.cluster service in
          let p = FT.snapshot cluster ~capacity:h in
          let g = FT.greedy p ~t and e = FT.exact p ~t in
          if g = -1 || e = -1 then g = -1 && e = -1
          else begin
            List.iteri
              (fun i s -> if i < g then Cluster.fail cluster s)
              (FT.greedy_failure_order p);
            0 <= e && e <= g && g <= n - 1
            && Plookup_store.Entry.Set.cardinal (Cluster.coverage cluster) >= t
          end)
        (Service.all_configs ~ablations:true ~budget:(2 * h) ~n ~h ()))

let () =
  Helpers.run "fault_tolerance"
    [ ( "fault_tolerance",
        [ Alcotest.test_case "full replication" `Quick test_full_replication_tolerance;
          Alcotest.test_case "single point of failure" `Quick test_single_point_of_failure;
          Alcotest.test_case "unsatisfiable" `Quick test_unsatisfiable_target;
          Alcotest.test_case "round-robin formula" `Quick test_round_robin_matches_formula;
          Alcotest.test_case "greedy order" `Quick test_greedy_picks_most_important_first;
          Alcotest.test_case "validation" `Quick test_validation;
          Alcotest.test_case "snapshot" `Quick test_snapshot_reflects_stores;
          prop_greedy_at_least_exact;
          prop_exact_within_bounds;
          prop_greedy_monotone_in_t;
          prop_appendix_a_on_real_placements ] ) ]
