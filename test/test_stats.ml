open Plookup_util

let test_accum_basics () =
  let acc = Stats.Accum.create () in
  Helpers.check_int "empty count" 0 (Stats.Accum.count acc);
  Helpers.close "empty mean" 0. (Stats.Accum.mean acc);
  List.iter (Stats.Accum.add acc) [ 1.; 2.; 3.; 4. ];
  Helpers.check_int "count" 4 (Stats.Accum.count acc);
  Helpers.close "mean" 2.5 (Stats.Accum.mean acc);
  Helpers.close "variance" (5. /. 3.) (Stats.Accum.variance acc);
  Helpers.close "stddev" (sqrt (5. /. 3.)) (Stats.Accum.stddev acc)

let test_accum_single_sample () =
  let acc = Stats.Accum.create () in
  Stats.Accum.add acc 7.;
  Helpers.close "mean" 7. (Stats.Accum.mean acc);
  Helpers.close "variance of 1 sample" 0. (Stats.Accum.variance acc);
  Helpers.close "ci of 1 sample" 0. (Stats.Accum.ci95_half_width acc)

let test_array_stats () =
  let xs = [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |] in
  Helpers.close "mean" 5. (Stats.mean xs);
  Helpers.close "variance" (32. /. 7.) (Stats.variance xs);
  Helpers.close "stddev" (sqrt (32. /. 7.)) (Stats.stddev xs);
  Helpers.close "empty mean" 0. (Stats.mean [||])

let test_cov_paper_example () =
  (* Section 4.5: 2 entries on 2 servers with Fixed-1, t=1: probabilities
     (1, 0), ideal 1/2 -> unfairness exactly 1. *)
  let u = Stats.coefficient_of_variation ~ideal:0.5 [| 1.; 0. |] in
  Helpers.close "paper example" 1. u

let test_cov_fair () =
  let u = Stats.coefficient_of_variation ~ideal:0.25 [| 0.25; 0.25; 0.25; 0.25 |] in
  Helpers.close "perfectly fair" 0. u

let test_cov_missing_entries_bound () =
  (* k missing entries out of h give unfairness at least sqrt(k/h)
     (the Fig. 9 first-phase lower bound). *)
  let h = 100 and k = 11 in
  let ideal = 0.35 in
  let ps = Array.init h (fun i -> if i < k then 0. else ideal) in
  let u = Stats.coefficient_of_variation ~ideal ps in
  Helpers.close "bound" (sqrt (float_of_int k /. float_of_int h)) u

let test_cov_rejects () =
  Alcotest.check_raises "bad ideal"
    (Invalid_argument "Stats.coefficient_of_variation: ideal must be positive") (fun () ->
      ignore (Stats.coefficient_of_variation ~ideal:0. [| 1. |]));
  Alcotest.check_raises "empty"
    (Invalid_argument "Stats.coefficient_of_variation: empty array") (fun () ->
      ignore (Stats.coefficient_of_variation ~ideal:1. [||]))

let test_percentile () =
  let xs = [| 15.; 20.; 35.; 40.; 50. |] in
  Helpers.close "p0" 15. (Stats.percentile xs 0.);
  Helpers.close "p100" 50. (Stats.percentile xs 100.);
  Helpers.close "p50" 35. (Stats.percentile xs 50.);
  Helpers.close "p25" 20. (Stats.percentile xs 25.);
  Helpers.close "interpolated" 17.5 (Stats.percentile xs 12.5)

let test_min_max () =
  let lo, hi = Stats.min_max [| 3.; -1.; 7.; 0. |] in
  Helpers.close "min" (-1.) lo;
  Helpers.close "max" 7. hi

let test_ci_shrinks () =
  let rng = Rng.create 11 in
  let accum n =
    let acc = Stats.Accum.create () in
    for _ = 1 to n do
      Stats.Accum.add acc (Rng.unit_float rng)
    done;
    Stats.Accum.ci95_half_width acc
  in
  let small = accum 100 and large = accum 10_000 in
  Alcotest.(check bool) "ci narrows with samples" true (large < small)

let prop_welford_matches_naive =
  Helpers.qcheck "Welford = naive on float lists"
    QCheck2.Gen.(list_size (int_range 2 200) (float_range (-1000.) 1000.))
    (fun xs ->
      let arr = Array.of_list xs in
      let acc = Stats.Accum.create () in
      Array.iter (Stats.Accum.add acc) arr;
      let scale = Float.max 1. (Float.abs (Stats.mean arr)) in
      Float.abs (Stats.Accum.mean acc -. Stats.mean arr) < 1e-6 *. scale
      && Float.abs (Stats.Accum.variance acc -. Stats.variance arr)
         < 1e-4 *. Float.max 1. (Stats.variance arr))

let prop_cov_scale_invariant =
  Helpers.qcheck "CoV is invariant under scaling probabilities and ideal"
    QCheck2.Gen.(
      pair (float_range 0.1 10.) (list_size (int_range 1 50) (float_range 0. 1.)))
    (fun (scale, ps) ->
      let arr = Array.of_list ps in
      let u1 = Stats.coefficient_of_variation ~ideal:0.5 arr in
      let u2 =
        Stats.coefficient_of_variation ~ideal:(0.5 *. scale)
          (Array.map (fun p -> p *. scale) arr)
      in
      Float.abs (u1 -. u2) < 1e-6 *. Float.max 1. u1)

let () =
  Helpers.run "stats"
    [ ( "stats",
        [ Alcotest.test_case "accum basics" `Quick test_accum_basics;
          Alcotest.test_case "accum single" `Quick test_accum_single_sample;
          Alcotest.test_case "array stats" `Quick test_array_stats;
          Alcotest.test_case "cov paper example" `Quick test_cov_paper_example;
          Alcotest.test_case "cov fair" `Quick test_cov_fair;
          Alcotest.test_case "cov missing bound" `Quick test_cov_missing_entries_bound;
          Alcotest.test_case "cov rejects" `Quick test_cov_rejects;
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "min_max" `Quick test_min_max;
          Alcotest.test_case "ci shrinks" `Quick test_ci_shrinks;
          prop_welford_matches_naive;
          prop_cov_scale_invariant ] ) ]
