open Plookup_util

let test_determinism () =
  let a = Rng.create 123 and b = Rng.create 123 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_distinct_seeds () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_copy_independent () =
  let a = Rng.create 9 in
  let _ = Rng.bits64 a in
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.bits64 a) (Rng.bits64 b);
  (* Now advance only [a]; [b] must not follow. *)
  let va = Rng.bits64 a in
  let _ = Rng.bits64 a in
  let vb = Rng.bits64 b in
  Alcotest.(check int64) "copy is a snapshot" va vb

let test_int_bounds () =
  let rng = Rng.create 17 in
  for bound = 1 to 40 do
    for _ = 1 to 200 do
      let v = Rng.int rng bound in
      if v < 0 || v >= bound then Alcotest.failf "Rng.int %d produced %d" bound v
    done
  done

let test_int_rejects_nonpositive () =
  let rng = Rng.create 0 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_int_uniformity () =
  (* Chi-square-ish sanity: 10 buckets, 20000 draws; each bucket within
     25% of the expectation. *)
  let rng = Rng.create 99 in
  let buckets = Array.make 10 0 in
  let draws = 20000 in
  for _ = 1 to draws do
    let v = Rng.int rng 10 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      let expected = draws / 10 in
      if abs (c - expected) > expected / 4 then
        Alcotest.failf "bucket %d badly skewed: %d vs %d" i c expected)
    buckets

let test_unit_float_range () =
  let rng = Rng.create 31 in
  for _ = 1 to 2000 do
    let v = Rng.unit_float rng in
    if v < 0. || v >= 1. then Alcotest.failf "unit_float out of range: %f" v
  done

let test_unit_float_mean () =
  let rng = Rng.create 77 in
  let acc = Stats.Accum.create () in
  for _ = 1 to 50_000 do
    Stats.Accum.add acc (Rng.unit_float rng)
  done;
  Helpers.roughly ~rel:0.02 "mean ~ 0.5" 0.5 (Stats.Accum.mean acc)

let test_bernoulli () =
  let rng = Rng.create 13 in
  let hits = ref 0 in
  let draws = 50_000 in
  for _ = 1 to draws do
    if Rng.bernoulli rng 0.3 then incr hits
  done;
  Helpers.roughly ~rel:0.05 "bernoulli 0.3" 0.3 (float_of_int !hits /. float_of_int draws)

let test_shuffle_uniform_first () =
  (* The first element of a permutation of [0..4] should be ~uniform. *)
  let rng = Rng.create 4 in
  let counts = Array.make 5 0 in
  let draws = 10_000 in
  for _ = 1 to draws do
    let first = (Rng.perm rng 5).(0) in
    counts.(first) <- counts.(first) + 1
  done;
  Array.iteri
    (fun i c ->
      if abs (c - 2000) > 300 then Alcotest.failf "first element %d skewed: %d" i c)
    counts

(* The first outputs of two seeds, recorded from the generator before
   its state was moved into unboxed words: the stream must never
   change. *)
let test_pinned_stream () =
  let check seed want =
    let rng = Rng.create seed in
    List.iteri
      (fun i w ->
        Alcotest.(check int64) (Printf.sprintf "seed %d output %d" seed i) w (Rng.bits64 rng))
      want
  in
  check 0
    [ 0x53175D61490B23DFL; 0x61DA6F3DC380D507L; 0x5C0FDF91EC9A7BFCL; 0x02EEBF8C3BBE5E1AL;
      0x7ECA04EBAF4A5EEAL; 0x0543C37757F08D9AL; 0xDB7490C75AB5026EL; 0xD87343E6464BC959L ];
  check 42
    [ 0xD0764D4F4476689FL; 0x519E4174576F3791L; 0xFBE07CFB0C24ED8CL; 0xB37D9F600CD835B8L;
      0xCB231C3874846A73L; 0x968D9F004E50DE7DL; 0x201718FF221A3556L; 0x9AE94E070ED8CB46L ]

let test_draws_allocate_nothing () =
  let rng = Rng.create 4 in
  let before = Gc.minor_words () in
  let acc = ref 0 in
  for i = 1 to 10_000 do
    acc := !acc + Rng.int rng (1 + (i mod 37))
  done;
  let words = Gc.minor_words () -. before in
  ignore (Sys.opaque_identity !acc);
  if words > 100. then Alcotest.failf "10k Rng.int draws allocated %.0f minor words" words

(* Every (n, k) with n <= 8, k from -1 to n + 1: the range holds k
   distinct elements of the array (all of it when k >= n), the array is
   still a permutation, and a copied generator making min(k, n - k)
   draws with bounds n, n-1, ... stays in lockstep — zero draws when
   k >= n. *)
let test_subset_in_place_draws () =
  let rng = Rng.create 8 in
  for n = 0 to 8 do
    for k = -1 to n + 1 do
      for _ = 1 to 20 do
        let arr = Array.init n (fun i -> 10 * i) in
        let twin = Rng.copy rng in
        let lo = Rng.subset_in_place rng arr ~n ~k in
        let kept = max 0 (min k n) in
        let range = Array.to_list (Array.sub arr lo kept) in
        Helpers.check_int "distinct kept" kept (List.length (List.sort_uniq compare range));
        Alcotest.(check (list int)) "still a permutation" (List.init n (fun i -> 10 * i))
          (List.sort compare (Array.to_list arr));
        for i = 0 to min k (n - k) - 1 do
          ignore (Rng.int twin (n - i))
        done;
        Alcotest.(check int64) (Printf.sprintf "lockstep n=%d k=%d" n k) (Rng.bits64 twin)
          (Rng.bits64 rng)
      done
    done
  done;
  Alcotest.check_raises "n past the array"
    (Invalid_argument "Rng.subset_in_place: need 0 <= n <= length") (fun () ->
      ignore (Rng.subset_in_place rng (Array.make 3 0) ~n:4 ~k:1))

let test_subset_in_place_uniform () =
  let rng = Rng.create 61 in
  let arr = Array.init 6 Fun.id in
  for k = 1 to 5 do
    Helpers.uniform_over_subsets ~what:(Printf.sprintf "6 choose %d" k) ~n:6 ~k ~trials:6000
      (fun () ->
        let lo = Rng.subset_in_place rng arr ~n:6 ~k in
        Array.to_list (Array.sub arr lo k))
  done

let test_digest_string () =
  (* Deterministic, and sensitive to every byte: two long keys that
     differ only in the last character must not collide (the regression
     that motivated replacing Hashtbl.hash in Directory). *)
  Alcotest.(check int64) "stable" (Rng.digest_string "abc") (Rng.digest_string "abc");
  let prefix = String.make 400 'k' in
  let digests = List.init 16 (fun i -> Rng.digest_string (prefix ^ string_of_int i)) in
  Helpers.check_int "all distinct" 16 (List.length (List.sort_uniq compare digests));
  Alcotest.(check bool) "last byte matters" false
    (Rng.digest_string (prefix ^ "a") = Rng.digest_string (prefix ^ "b"));
  Alcotest.(check bool) "empty vs nonempty" false
    (Rng.digest_string "" = Rng.digest_string "\000")

let test_perm () =
  let rng = Rng.create 5 in
  let p = Rng.perm rng 20 in
  Alcotest.(check (list int)) "permutation of 0..19" (List.init 20 Fun.id)
    (List.sort compare (Array.to_list p))

let test_hash_in_range () =
  let v1 = Rng.hash_in_range ~seed:1 ~salt:1 ~value:42 10 in
  let v2 = Rng.hash_in_range ~seed:1 ~salt:1 ~value:42 10 in
  Helpers.check_int "deterministic" v1 v2;
  for value = 0 to 500 do
    let v = Rng.hash_in_range ~seed:3 ~salt:2 ~value 7 in
    if v < 0 || v >= 7 then Alcotest.failf "hash out of range: %d" v
  done

let test_hash_in_range_spread () =
  (* Different salts should decorrelate: over 1000 values, the two hash
     functions agree about 1/n of the time. *)
  let n = 10 in
  let agree = ref 0 in
  for value = 0 to 999 do
    if
      Rng.hash_in_range ~seed:5 ~salt:1 ~value n
      = Rng.hash_in_range ~seed:5 ~salt:2 ~value n
    then incr agree
  done;
  Helpers.roughly ~rel:0.5 "salt independence" 100. (float_of_int !agree)

let prop_int_in_bounds =
  Helpers.qcheck "int always in [0, bound)"
    QCheck2.Gen.(pair (int_range 1 10_000) int)
    (fun (bound, seed) ->
      let rng = Rng.create seed in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

let () =
  Helpers.run "rng"
    [ ( "rng",
        [ Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "distinct seeds" `Quick test_distinct_seeds;
          Alcotest.test_case "copy" `Quick test_copy_independent;
          Alcotest.test_case "int bounds" `Quick test_int_bounds;
          Alcotest.test_case "int rejects 0" `Quick test_int_rejects_nonpositive;
          Alcotest.test_case "int uniformity" `Quick test_int_uniformity;
          Alcotest.test_case "unit_float range" `Quick test_unit_float_range;
          Alcotest.test_case "unit_float mean" `Quick test_unit_float_mean;
          Alcotest.test_case "bernoulli" `Quick test_bernoulli;
          Alcotest.test_case "shuffle uniform" `Quick test_shuffle_uniform_first;
          Alcotest.test_case "pinned stream" `Quick test_pinned_stream;
          Alcotest.test_case "draws allocate nothing" `Quick test_draws_allocate_nothing;
          Alcotest.test_case "subset_in_place draws" `Quick test_subset_in_place_draws;
          Alcotest.test_case "subset_in_place uniform" `Quick test_subset_in_place_uniform;
          Alcotest.test_case "digest_string" `Quick test_digest_string;
          Alcotest.test_case "perm" `Quick test_perm;
          Alcotest.test_case "hash_in_range" `Quick test_hash_in_range;
          Alcotest.test_case "hash salt spread" `Quick test_hash_in_range_spread;
          prop_int_in_bounds ] ) ]
