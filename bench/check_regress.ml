(* Bench regression gate.

       check_regress [--threshold 0.30] BASE_DIR FRESH_DIR

   Pairs every BENCH_*.json in BASE_DIR with the file of the same name
   in FRESH_DIR and judges each baseline row (see baseline.ml) by one
   rule.  The row's direction and bounds come from the baseline.

   - A file present on one side only fails, and so does a baseline row
     missing from the fresh file: a baseline nobody regenerates, or a
     fresh run that stopped measuring something, is a broken gate.
   - A row fails when it moves past the threshold in its worse
     direction: a [higher] row dropping by more, a [lower] row growing
     by more.  A [lower] row whose baseline is 0 fails on any positive
     value.
   - [limit] is checked on the baseline value and [fresh_limit] on the
     fresh one: each must stay strictly on the better side of its bound.

   Fresh rows without a baseline are listed as new and not judged.
   Exits 1 when any check fails, 2 on unreadable input. *)

open Baseline

(* The verdict when [v] is not strictly on the better side of [bound]. *)
let past what bound r v =
  match bound with
  | Some l when (match r.better with Higher -> v <= l | Lower -> v >= l) ->
    [ Printf.sprintf "%s %s" what (number l) ]
  | _ -> []

let bench_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f ->
         String.starts_with ~prefix:"BENCH_" f && Filename.check_suffix f ".json")
  |> List.sort compare

let load path =
  try read path with
  | Json.Parse_error msg | Failure msg | Sys_error msg ->
    Printf.eprintf "check_regress: %s: %s\n" path msg;
    exit 2

let () =
  let threshold = ref 0.30 in
  let dirs = ref [] in
  let usage = "check_regress [--threshold F] BASE_DIR FRESH_DIR" in
  Arg.parse
    [ ( "--threshold",
        Arg.Set_float threshold,
        "F largest tolerated relative move (default 0.30)" ) ]
    (fun d -> dirs := d :: !dirs)
    usage;
  let base_dir, fresh_dir =
    match List.rev !dirs with
    | [ b; f ] -> (b, f)
    | _ ->
      prerr_endline ("usage: " ^ usage);
      exit 2
  in
  let files dir =
    try bench_files dir
    with Sys_error msg ->
      prerr_endline ("check_regress: " ^ msg);
      exit 2
  in
  let base_files = files base_dir and fresh_files = files fresh_dir in
  let failures = ref 0 in
  Printf.printf "bench gate: %s -> %s (a row fails past %.0f%% in its worse direction)\n" base_dir
    fresh_dir (100. *. !threshold);
  List.iter
    (fun f ->
      match (List.mem f base_files, List.mem f fresh_files) with
      | true, false ->
        incr failures;
        Printf.printf "\n%s: MISSING from %s\n" f fresh_dir
      | false, _ ->
        incr failures;
        Printf.printf "\n%s: MISSING from %s (written but not committed)\n" f base_dir
      | true, true ->
        let base = load (Filename.concat base_dir f) in
        let fresh = load (Filename.concat fresh_dir f) in
        Printf.printf "\n%s\n  %-50s %12s %12s %9s  %s\n" f "row" "baseline" "fresh" "delta"
          "verdict";
        let find r rows =
          List.find_opt (fun x -> x.layer = r.layer && x.metric = r.metric && x.key = r.key) rows
        in
        List.iter
          (fun r ->
            match find r fresh with
            | None ->
              incr failures;
              Printf.printf "  %-50s %12s %12s %9s  MISSING\n" (name r) (number r.value) "-" "-"
            | Some x ->
              let delta =
                if r.value <> 0. then 100. *. ((x.value /. r.value) -. 1.)
                else if x.value = 0. then 0.
                else Float.copy_sign Float.infinity x.value
              in
              let bound = 100. *. !threshold in
              let regressed =
                match r.better with Higher -> delta < -.bound | Lower -> delta > bound
              in
              let verdicts =
                (if regressed then [ "REGRESSION" ] else [])
                @ past "BASELINE PAST LIMIT" r.limit r r.value
                @ past "PAST FRESH LIMIT" r.fresh_limit r x.value
              in
              if verdicts <> [] then incr failures;
              Printf.printf "  %-50s %12s %12s %+8.1f%%  %s\n" (name r) (number r.value)
                (number x.value) delta
                (if verdicts = [] then "ok" else String.concat ", " verdicts))
          base;
        List.iter
          (fun x ->
            if find x base = None then
              Printf.printf "  %-50s %12s %12s %9s  new\n" (name x) "-" (number x.value) "-")
          fresh)
    (List.sort_uniq compare (base_files @ fresh_files));
  print_newline ();
  if !failures > 0 then begin
    Printf.printf "FAIL: %d check(s) failed\n" !failures;
    exit 1
  end
  else print_endline "OK: every baseline row holds"
