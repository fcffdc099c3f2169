(* Shared helpers for the test suite. *)

let close ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.6f, got %.6f (eps %.2g)" msg expected actual eps

let roughly ?(rel = 0.05) msg expected actual =
  let tolerance = Float.abs expected *. rel in
  if Float.abs (expected -. actual) > tolerance then
    Alcotest.failf "%s: expected %.4f (+/- %.1f%%), got %.4f" msg expected (100. *. rel)
      actual

let qcheck ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let sorted_ids entries =
  List.sort compare (List.map Plookup_store.Entry.id entries)

let entries n = Plookup_store.Entry.Gen.batch (Plookup_store.Entry.Gen.create ()) n

(* A service with h entries placed, plus the entry list. *)
let placed_service ?(seed = 7) ~n ~h config =
  let service = Plookup.Service.create ~seed ~n config in
  let batch = entries h in
  Plookup.Service.place service batch;
  (service, batch)

let contains haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

(* Uniformity over the k-subsets of [0, n): [draw ()] returns one
   sample of ids; every sample must hold exactly k distinct ids below n,
   and the counts of all C(n, k) subsets (unseen ones included) must pass
   Pearson's chi-square test at the 0.1% level.  The critical value is
   the Wilson–Hilferty approximation, within 2% of the tabled value for
   the degrees of freedom used here.  Callers fix their seeds, so the
   verdict is deterministic. *)
let uniform_over_subsets ~what ~n ~k ~trials draw =
  let counts = Hashtbl.create 64 in
  for _ = 1 to trials do
    let ids = draw () in
    let mask = List.fold_left (fun m id -> m lor (1 lsl id)) 0 ids in
    let distinct = List.length (List.sort_uniq compare ids) in
    if List.length ids <> k || distinct <> k || List.exists (fun id -> id < 0 || id >= n) ids
    then
      Alcotest.failf "%s: sample [%s] is not %d distinct ids below %d" what
        (String.concat ";" (List.map string_of_int ids))
        k n;
    Hashtbl.replace counts mask (1 + Option.value (Hashtbl.find_opt counts mask) ~default:0)
  done;
  let rec popcount m = if m = 0 then 0 else (m land 1) + popcount (m lsr 1) in
  let subsets = List.filter (fun m -> popcount m = k) (List.init (1 lsl n) Fun.id) in
  let expected = float_of_int trials /. float_of_int (List.length subsets) in
  let chi2 =
    List.fold_left
      (fun acc m ->
        let seen = Option.value (Hashtbl.find_opt counts m) ~default:0 in
        let d = float_of_int seen -. expected in
        acc +. (d *. d /. expected))
      0. subsets
  in
  let df = float_of_int (List.length subsets - 1) in
  let c = 2. /. (9. *. df) in
  let critical = df *. ((1. -. c +. (3.0902 *. sqrt c)) ** 3.) in
  if chi2 > critical then
    Alcotest.failf "%s: chi-square %.2f > %.2f over %d subsets" what chi2 critical
      (List.length subsets)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let run name suites = Alcotest.run ~verbose:false name suites
