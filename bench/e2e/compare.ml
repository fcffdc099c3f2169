(* compare.exe PARENT_DIR CHANGE_DIR [BENCHMARK.json]

   Judges two sets of untraced run.exe results (one JSON file per run,
   as written by --out) against the end-to-end bounds in BENCHMARK.json.
   Runs pair up in file-name order, so name them so that the i-th files
   of the two sets ran next to each other.  Per workload and metric it
   prints each set's median and quartiles, the pairs the change won, the
   relative change against the bound, and a verdict:

   - improved: the change wins at least 9 of 10 pairs (ties count for
     neither) and the medians differ by more than the parent's
     interquartile distance;
   - worse: the change's median is worse than the parent's by more than
     the bound;
   - unresolved: neither, but the parent's own quartile spread is wider
     than the bound, unless every change run beats every parent run;
   - unchanged: otherwise.

   A change that fails more ops than its parent cannot be "improved".
   Exits 1 when any verdict is "worse". *)

type run = { workload : string; attempted : float; failed : float; metrics : Json.t }

let load dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".json")
  |> List.sort compare
  |> List.filter_map (fun f ->
         match Json.read_file (Filename.concat dir f) with
         | exception (Json.Parse_error _ | Sys_error _) -> None
         | j ->
           let m = Json.member "manifest" j in
           if Json.member "trace" m = Json.Bool false then
             Some
               { workload = Json.to_str (Json.member "workload" m);
                 attempted = Json.to_num (Json.member "attempted" j);
                 failed = Json.to_num (Json.member "failed" j);
                 metrics = Json.member "metrics" j }
           else None)

let value run name = Json.to_num (Json.member "value" (Json.member name run.metrics))

let () =
  let parent_dir, change_dir, bench_file =
    match List.tl (Array.to_list Sys.argv) with
    | [ p; c ] -> (p, c, "BENCHMARK.json")
    | [ p; c; b ] -> (p, c, b)
    | _ ->
      prerr_endline "usage: compare.exe PARENT_DIR CHANGE_DIR [BENCHMARK.json]";
      exit 2
  in
  let bench = Json.read_file bench_file in
  let parent = load parent_dir and change = load change_dir in
  let any_worse = ref false in
  List.iter
    (fun w ->
      let name = Json.to_str (Json.member "name" w) in
      let ps = List.filter (fun r -> r.workload = name) parent in
      let cs = List.filter (fun r -> r.workload = name) change in
      if ps = [] || cs = [] then
        Printf.printf "%s: no runs (parent %d, change %d)\n" name (List.length ps) (List.length cs)
      else begin
        let fail_share rs =
          let sum f = List.fold_left (fun acc r -> acc +. f r) 0. rs in
          100. *. sum (fun r -> r.failed) /. Float.max 1. (sum (fun r -> r.attempted))
        in
        let pf = fail_share ps and cf = fail_share cs in
        Printf.printf "%s: %d parent runs, %d change runs; failed ops %.3f%% -> %.3f%%\n" name
          (List.length ps) (List.length cs) pf cf;
        Printf.printf "  %-14s %12s %26s %12s %26s %7s %9s %6s  %s\n" "metric" "parent" "parent q1..q3"
          "change" "change q1..q3" "wins" "change" "bound" "verdict";
        List.iter
          (fun m ->
            let metric = Json.to_str (Json.member "name" m) in
            let lower = Json.to_str (Json.member "better" m) = "lower" in
            let bound = Json.to_num (Json.member "bound" m) in
            let p = Array.of_list (List.map (fun r -> value r metric) ps) in
            let c = Array.of_list (List.map (fun r -> value r metric) cs) in
            let quart a =
              if Array.length a >= 2 then Stat.quartiles a
              else
                let v = Stat.median a in
                (v, v, v)
            in
            let p1, pm, p3 = quart p and c1, cm, c3 = quart c in
            let better x y = if lower then x < y else x > y in
            let pairs = min (Array.length p) (Array.length c) in
            let wins = ref 0 in
            for i = 0 to pairs - 1 do
              if better c.(i) p.(i) then incr wins
            done;
            let rel = (cm -. pm) /. pm in
            let worse_by = if lower then rel else -.rel in
            let spread = (p3 -. p1) /. Float.abs pm in
            let all_better = Array.for_all (fun cv -> Array.for_all (fun pv -> better cv pv) p) c in
            let verdict =
              if
                pairs > 0
                && 10 * !wins >= 9 * pairs
                && better cm pm
                && Float.abs (cm -. pm) > p3 -. p1
                && cf <= pf
              then "improved"
              else if worse_by > bound then "worse"
              else if spread > bound && not all_better then "unresolved"
              else "unchanged"
            in
            if verdict = "worse" then any_worse := true;
            Printf.printf "  %-14s %12.4g %12.4g..%-12.4g %12.4g %12.4g..%-12.4g %3d/%-3d %+8.2f%% %5.1f%%  %s\n"
              metric pm p1 p3 cm c1 c3 !wins pairs (100. *. rel) (100. *. bound) verdict)
          (Json.to_list (Json.member "end_to_end" bench))
      end)
    (Json.to_list (Json.member "workloads" bench));
  exit (if !any_worse then 1 else 0)
