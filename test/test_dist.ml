open Plookup_util

let sample_mean rng draw n =
  let acc = Stats.Accum.create () in
  for _ = 1 to n do
    Stats.Accum.add acc (draw rng)
  done;
  Stats.Accum.mean acc

let test_exponential_mean () =
  let rng = Rng.create 1 in
  Helpers.roughly ~rel:0.05 "exp mean 100" 100.
    (sample_mean rng (fun rng -> Dist.exponential rng ~mean:100.) 100_000)

let test_exponential_positive () =
  let rng = Rng.create 2 in
  for _ = 1 to 10_000 do
    if Dist.exponential rng ~mean:5. < 0. then Alcotest.fail "negative exponential draw"
  done

let test_exponential_rejects_bad_mean () =
  let rng = Rng.create 0 in
  Alcotest.check_raises "mean 0"
    (Invalid_argument "Dist.exponential: mean must be positive") (fun () ->
      ignore (Dist.exponential rng ~mean:0.))

let test_exponential_memoryless_tail () =
  (* P(X > mean) = 1/e for an exponential. *)
  let rng = Rng.create 3 in
  let over = ref 0 in
  let draws = 100_000 in
  for _ = 1 to draws do
    if Dist.exponential rng ~mean:10. > 10. then incr over
  done;
  Helpers.roughly ~rel:0.05 "tail mass" (1. /. Float.exp 1.)
    (float_of_int !over /. float_of_int draws)

let test_poisson_interarrival () =
  let rng = Rng.create 4 in
  Helpers.roughly ~rel:0.05 "rate 0.1 -> mean 10" 10.
    (sample_mean rng (fun rng -> Dist.poisson_interarrival rng ~rate:0.1) 100_000)

let test_zipf_like_bounds () =
  let rng = Rng.create 5 in
  for _ = 1 to 10_000 do
    let v = Dist.zipf_like rng ~c:1000. in
    if v < 1. || v > 1000. then Alcotest.failf "zipf draw out of [1,c]: %f" v
  done

let test_zipf_like_mean_formula () =
  Helpers.close ~eps:1e-9 "mean formula" ((1000. -. 1.) /. log 1000.)
    (Dist.zipf_like_mean ~c:1000.)

let test_zipf_like_sample_mean () =
  let rng = Rng.create 6 in
  let c = 1000. in
  Helpers.roughly ~rel:0.05 "zipf sample mean" (Dist.zipf_like_mean ~c)
    (sample_mean rng (fun rng -> Dist.zipf_like rng ~c) 200_000)

let test_zipf_c_inversion () =
  List.iter
    (fun mean ->
      let c = Dist.zipf_like_c_for_mean ~mean in
      Helpers.roughly ~rel:1e-6
        (Printf.sprintf "inversion at mean %.0f" mean)
        mean (Dist.zipf_like_mean ~c))
    [ 2.; 10.; 100.; 1000.; 50_000. ]

let test_zipf_median_below_mean () =
  (* Tail-heaviness: the Zipf-like law's median is far below its mean. *)
  let c = Dist.zipf_like_c_for_mean ~mean:1000. in
  let rng = Rng.create 7 in
  let draws = Array.init 50_001 (fun _ -> Dist.zipf_like rng ~c) in
  let median = Stats.percentile draws 50. in
  Alcotest.(check bool) "median << mean" true (median < 500.)

let test_lifetime_of_mean () =
  (match Dist.lifetime_of_mean ~tail_heavy:false ~mean:1000. with
  | Dist.Exponential m -> Helpers.close "exp mean" 1000. m
  | Dist.Zipf_like _ -> Alcotest.fail "expected exponential");
  match Dist.lifetime_of_mean ~tail_heavy:true ~mean:1000. with
  | Dist.Zipf_like c ->
    Helpers.roughly ~rel:1e-6 "zipf scaled" 1000. (Dist.zipf_like_mean ~c)
  | Dist.Exponential _ -> Alcotest.fail "expected zipf"

let test_draw_lifetime_mean () =
  let rng = Rng.create 8 in
  List.iter
    (fun lifetime ->
      Helpers.roughly ~rel:0.06 "draw_lifetime mean" (Dist.lifetime_mean lifetime)
        (sample_mean rng (fun rng -> Dist.draw_lifetime rng lifetime) 150_000))
    [ Dist.Exponential 500.; Dist.Zipf_like 2000. ]

let test_zipf_ranks () =
  let rng = Rng.create 9 in
  let counts = Array.make 10 0 in
  let draws = 50_000 in
  for _ = 1 to draws do
    let r = Dist.zipf_ranks rng ~n:10 ~alpha:1.0 in
    if r < 1 || r > 10 then Alcotest.failf "rank out of range: %d" r;
    counts.(r - 1) <- counts.(r - 1) + 1
  done;
  (* Rank 1 should appear ~2x rank 2, ~10x rank 10. *)
  Alcotest.(check bool) "rank 1 most popular" true (counts.(0) > counts.(1));
  Helpers.roughly ~rel:0.15 "rank1/rank2 ~ 2" 2.
    (float_of_int counts.(0) /. float_of_int counts.(1));
  Helpers.roughly ~rel:0.25 "rank1/rank10 ~ 10" 10.
    (float_of_int counts.(0) /. float_of_int counts.(9))

(* [zipf_ranks] keeps the last law's cumulative weights per domain and
   binary-searches them.  The sums are the same floats added in the same
   order, so every rank must equal the one this direct formula draws
   (weights rebuilt on every draw, linear scan) from an identically
   seeded generator. *)
let zipf_rank_reference rng ~n ~alpha =
  let weights = Array.init n (fun i -> 1. /. (float_of_int (i + 1) ** alpha)) in
  let total = Array.fold_left ( +. ) 0. weights in
  let u = Rng.unit_float rng *. total in
  let rec find i acc =
    if i = n - 1 then n
    else
      let acc = acc +. weights.(i) in
      if u < acc then i + 1 else find (i + 1) acc
  in
  find 0 0.

(* Draw [draws] ranks cycling through [laws] from both generators; the
   first (law, draw) where they differ, if any. *)
let zipf_mismatch ~seed ~draws laws =
  let laws = Array.of_list laws in
  let a = Rng.create seed and b = Rng.create seed in
  let rec go i =
    if i = draws then None
    else
      let n, alpha = laws.(i mod Array.length laws) in
      let got = Dist.zipf_ranks a ~n ~alpha and want = zipf_rank_reference b ~n ~alpha in
      if got <> want then Some (n, alpha, i, got, want) else go (i + 1)
  in
  go 0

let check_zipf_matches ~seed ~draws laws =
  match zipf_mismatch ~seed ~draws laws with
  | None -> ()
  | Some (n, alpha, i, got, want) ->
    Alcotest.failf "n = %d, alpha = %g, draw %d: rank %d, reference %d" n alpha i got want

let test_zipf_ranks_match_reference () =
  (* n = 1 always draws rank 1, and still consumes one draw. *)
  check_zipf_matches ~seed:1 ~draws:200 [ (1, 1.0) ];
  check_zipf_matches ~seed:2 ~draws:200 [ (1, 0.5); (7, 1.2) ];
  (* Alternating laws rebuild the cached weights on every draw. *)
  check_zipf_matches ~seed:3 ~draws:8_000 [ (50, 0.8); (50, 1.1); (1000, 0.8); (2, 3.) ];
  (* The laws the experiments and benchmarks draw from. *)
  check_zipf_matches ~seed:4 ~draws:50_000 [ (50, 1.1) ];
  check_zipf_matches ~seed:5 ~draws:50_000 [ (100, 0.9) ];
  (* Each domain keeps its own weights. *)
  let mismatches =
    Pool.map ~jobs:2
      (fun (seed, laws) -> zipf_mismatch ~seed ~draws:20_000 laws)
      [| (6, [ (30, 1.0); (40, 0.7) ]); (7, [ (40, 0.7); (30, 1.0) ]) |]
  in
  Array.iter
    (function
      | None -> ()
      | Some (n, alpha, i, got, want) ->
        Alcotest.failf "on a domain, n = %d, alpha = %g, draw %d: rank %d, reference %d" n
          alpha i got want)
    mismatches

let prop_zipf_ranks_match_reference =
  Helpers.qcheck ~count:100 "zipf ranks match the direct formula on random laws"
    QCheck2.Gen.(
      pair int
        (list_size (int_range 1 3) (pair (int_range 1 300) (float_range (-1.) 4.))))
    (fun (seed, laws) -> zipf_mismatch ~seed ~draws:200 laws = None)

let test_uniform_in () =
  let rng = Rng.create 10 in
  for _ = 1 to 5000 do
    let v = Dist.uniform_in rng ~lo:(-2.) ~hi:3. in
    if v < -2. || v >= 3. then Alcotest.failf "uniform_in out of range: %f" v
  done

let prop_zipf_in_bounds =
  Helpers.qcheck "zipf draws within [1, c]"
    QCheck2.Gen.(pair (float_range 1.5 1e6) int)
    (fun (c, seed) ->
      let rng = Rng.create seed in
      let v = Dist.zipf_like rng ~c in
      v >= 1. && v <= c)

let prop_c_for_mean_monotone =
  Helpers.qcheck "c_for_mean increases with mean"
    QCheck2.Gen.(pair (float_range 1.1 1e4) (float_range 1.1 1e4))
    (fun (a, b) ->
      let lo = Float.min a b and hi = Float.max a b in
      lo = hi
      || Dist.zipf_like_c_for_mean ~mean:lo <= Dist.zipf_like_c_for_mean ~mean:hi +. 1e-6)

let () =
  Helpers.run "dist"
    [ ( "dist",
        [ Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
          Alcotest.test_case "exponential positive" `Quick test_exponential_positive;
          Alcotest.test_case "exponential bad mean" `Quick test_exponential_rejects_bad_mean;
          Alcotest.test_case "exponential tail" `Quick test_exponential_memoryless_tail;
          Alcotest.test_case "poisson interarrival" `Quick test_poisson_interarrival;
          Alcotest.test_case "zipf bounds" `Quick test_zipf_like_bounds;
          Alcotest.test_case "zipf mean formula" `Quick test_zipf_like_mean_formula;
          Alcotest.test_case "zipf sample mean" `Quick test_zipf_like_sample_mean;
          Alcotest.test_case "zipf c inversion" `Quick test_zipf_c_inversion;
          Alcotest.test_case "zipf tail-heavy" `Quick test_zipf_median_below_mean;
          Alcotest.test_case "lifetime_of_mean" `Quick test_lifetime_of_mean;
          Alcotest.test_case "draw_lifetime mean" `Quick test_draw_lifetime_mean;
          Alcotest.test_case "zipf ranks" `Quick test_zipf_ranks;
          Alcotest.test_case "zipf ranks match the direct formula" `Quick
            test_zipf_ranks_match_reference;
          prop_zipf_ranks_match_reference;
          Alcotest.test_case "uniform_in" `Quick test_uniform_in;
          prop_zipf_in_bounds;
          prop_c_for_mean_monotone ] ) ]
