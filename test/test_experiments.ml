open Plookup_util
module E = Plookup_experiments

let tiny = E.Ctx.v ~seed:1 ~scale:0.05 ()

let float_cell = function
  | Table.F v | Table.F4 v -> v
  | Table.I v -> float_of_int v
  | Table.S s -> Alcotest.failf "expected numeric cell, got %S" s

let column table name =
  let idx =
    match List.find_index (String.equal name) (Table.columns table) with
    | Some i -> i
    | None -> Alcotest.failf "no column %S" name
  in
  List.map (fun row -> float_cell (List.nth row idx)) (Table.rows table)

(* Column [name] on the rows whose first cell is one of [keys], in table
   order: a test reads a few points of an experiment's fixed sweep. *)
let column_at table name keys =
  List.combine (column table (List.hd (Table.columns table))) (column table name)
  |> List.filter_map (fun (k, v) -> if List.mem (int_of_float k) keys then Some v else None)

let test_registry_complete () =
  Alcotest.(check (list string)) "paper order, extensions, ablations"
    [ "table1"; "fig4"; "fig6"; "fig7"; "fig9"; "fig12"; "fig13"; "fig14"; "table2";
      "hotspot"; "churn"; "latency"; "loss"; "day"; "ft-exact"; "delete-policy"; "coord-load";
      "coord-replicas"; "hash-y" ]
    (E.Registry.ids ())

let test_registry_find () =
  Alcotest.(check bool) "finds fig4" true (E.Registry.find "fig4" <> None);
  Alcotest.(check bool) "rejects junk" true (E.Registry.find "fig99" = None)

let test_every_experiment_runs () =
  List.iter
    (fun e ->
      let table = e.E.Registry.run tiny in
      if Table.rows table = [] then Alcotest.failf "%s produced no rows" e.E.Registry.id;
      List.iter
        (fun row ->
          Helpers.check_int
            (Printf.sprintf "%s row arity" e.E.Registry.id)
            (List.length (Table.columns table))
            (List.length row))
        (Table.rows table))
    E.Registry.all

(* The engine-driven experiments make their engine the network's clock,
   so every received lookup carries the time of its arrival, which is
   after at least one hop. *)
let test_lookups_received_at_engine_time () =
  List.iter
    (fun id ->
      let obs = Plookup_obs.Obs.create ~trace_capacity:100_000 () in
      let tr = obs.Plookup_obs.Obs.trace in
      Plookup_obs.Trace.set_enabled tr true;
      let e = Option.get (E.Registry.find id) in
      ignore (e.E.Registry.run (E.Ctx.v ~seed:1 ~scale:0.05 ~obs ()));
      let times =
        List.filter_map
          (fun (sp : Plookup_obs.Span.t) ->
            match sp.kind with
            | Plookup_obs.Span.Recv { msg = "lookup"; _ } -> Some sp.time
            | _ -> None)
          (Plookup_obs.Trace.spans tr)
      in
      if times = [] then Alcotest.failf "%s received no lookup" id;
      List.iter
        (fun t -> if t <= 0. then Alcotest.failf "%s received a lookup at t=%g" id t)
        times)
    [ "latency"; "loss"; "day"; "churn" ]

let test_table1_matches_formulas () =
  let table = E.Exp_table1.run tiny in
  List.iter
    (fun row ->
      match row with
      | [ Table.S _; Table.S _; Table.F analytic; Table.F measured ] ->
        (* Hash-y is stochastic; everyone else exact. *)
        if Float.abs (analytic -. measured) > 12. then
          Alcotest.failf "analytic %.1f vs measured %.1f" analytic measured
      | _ -> Alcotest.fail "unexpected row shape")
    (Table.rows table)

let test_fig4_round_staircase () =
  let table = E.Exp_fig4.run tiny in
  Alcotest.(check (list (float 0.01))) "exact staircase" [ 1.; 1.; 2.; 2.; 3. ]
    (column_at table "RoundRobin-2" [ 10; 20; 25; 40; 45 ])

let test_fig6_coverage_monotone () =
  let table = E.Exp_fig6.run tiny in
  let budgets = [ 20; 60; 100; 140; 200 ] in
  let check_monotone name =
    let values = column_at table name budgets in
    let rec go = function
      | a :: (b :: _ as rest) ->
        if a > b +. 1e-6 then Alcotest.failf "%s not monotone" name else go rest
      | _ -> ()
    in
    go values
  in
  List.iter check_monotone [ "Round&Hash"; "Fixed"; "RandomServer" ];
  (* Round&Hash saturates at h from budget 100 onwards. *)
  (match column_at table "Round&Hash" budgets with
  | [ _; _; c100; c140; c200 ] ->
    Helpers.close "saturated at 100" 100. c100;
    Helpers.close "saturated at 140" 100. c140;
    Helpers.close "saturated at 200" 100. c200
  | _ -> Alcotest.fail "unexpected rows")

let test_fig7_orderings () =
  let table = E.Exp_fig7.run tiny in
  let targets = [ 20; 35; 50 ] in
  let random = column_at table "RandomServer-20" targets in
  let hash = column_at table "Hash-2" targets in
  List.iter2
    (fun r h ->
      if r +. 0.5 < h then Alcotest.failf "RandomServer (%f) should beat Hash (%f)" r h)
    random hash;
  (* Tolerance decreases with target size. *)
  match random with
  | [ a; _; c ] -> Alcotest.(check bool) "decreasing" true (a >= c)
  | _ -> Alcotest.fail "rows"

let test_fig9_shapes () =
  let ctx = E.Ctx.v ~seed:1 ~scale:0.2 () in
  let table = E.Exp_fig9.run ctx in
  let budgets = [ 100; 500; 1000 ] in
  (match column_at table "RandomServer-x" budgets with
  | [ a; b; c ] ->
    Alcotest.(check bool) "decays" true (a > b && b > c)
  | _ -> Alcotest.fail "rows");
  match column_at table "Hash-y" budgets with
  | [ a; b; _ ] -> Alcotest.(check bool) "hash rises first" true (b > a)
  | _ -> Alcotest.fail "rows"

let test_fig12_cushion_decay () =
  let ctx = E.Ctx.v ~seed:1 ~scale:0.1 () in
  let table = E.Exp_fig12.run ctx in
  match column_at table "exp fail %" [ 0; 3 ] with
  | [ b0; b3 ] ->
    Alcotest.(check bool)
      (Printf.sprintf "b=0 (%.3f%%) much worse than b=3 (%.3f%%)" b0 b3)
      true
      (b0 > (5. *. b3) +. 0.5)
  | _ -> Alcotest.fail "rows"

let test_fig13_deterioration () =
  let ctx = E.Ctx.v ~seed:2 ~scale:0.3 () in
  let table = E.Exp_fig13.run ctx in
  (match column_at table "RandomServer-x" [ 0; 2000 ] with
  | [ start; late ] ->
    Alcotest.(check bool)
      (Printf.sprintf "unfairness rises (%.2f -> %.2f)" start late)
      true (late > start)
  | _ -> Alcotest.fail "rows");
  match column_at table "Fixed-x (ref)" [ 0; 2000 ] with
  | [ _; late ] -> Helpers.roughly ~rel:0.15 "paper's Fixed-x = 2" 2. late
  | _ -> Alcotest.fail "rows"

let test_fig14_crossover () =
  let ctx = E.Ctx.v ~seed:1 ~scale:0.2 () in
  let table = E.Exp_fig14.run ctx in
  let entry_counts = [ 100; 300; 400 ] in
  let fixed = column_at table "Fixed-x msgs" entry_counts in
  let hash = column_at table "Hash-y msgs" entry_counts in
  (match (fixed, hash) with
  | [ f100; f300; _ ], [ h100; h300; _ ] ->
    Alcotest.(check bool) "hash cheaper at h=100" true (h100 < f100);
    Alcotest.(check bool) "fixed cheaper at h=300" true (f300 < h300)
  | _ -> Alcotest.fail "rows");
  (* Fixed-x cost strictly decreasing in h. *)
  match fixed with
  | [ a; b; c ] -> Alcotest.(check bool) "1/h shape" true (a > b && b > c)
  | _ -> Alcotest.fail "rows"

let test_table2_scorecard () =
  let table = E.Exp_table2.run tiny in
  Helpers.check_int "eight strategies" 8 (List.length (Table.rows table));
  (* Full replication row: max storage, complete coverage, cost 1. *)
  match Table.rows table with
  | first :: _ -> (
    match first with
    | [ Table.S name; Table.I storage; Table.F coverage; _; Table.F cost; _; _ ] ->
      Helpers.check_string "name" "FullReplication" name;
      Helpers.check_int "storage h*n" 1000 storage;
      Helpers.close "coverage" 100. coverage;
      Helpers.close "cost" 1. cost
    | _ -> Alcotest.fail "row shape")
  | [] -> Alcotest.fail "no rows"

let test_derived_stars () =
  let _, derived = E.Exp_table2.run_full tiny in
  Helpers.check_int "seven partial strategies" 7 (List.length (Table.rows derived));
  List.iter
    (fun row ->
      List.iteri
        (fun i cell ->
          if i > 0 then begin
            match cell with
            | Table.S stars ->
              let k = String.length stars in
              if k < 1 || k > 4 || String.exists (fun c -> c <> '*') stars then
                Alcotest.failf "bad star cell %S" stars
            | _ -> Alcotest.fail "expected star cell"
          end)
        row)
    (Table.rows derived)

let test_paper_stars_table () =
  let t = E.Exp_table2.paper_stars in
  Helpers.check_int "four strategies" 4 (List.length (Table.rows t));
  Helpers.check_int "ten columns" 10 (List.length (Table.columns t))

let test_hotspot_partitioning_is_worse () =
  let ctx = E.Ctx.v ~seed:3 ~scale:0.2 () in
  let table = E.Exp_hotspot.run ctx in
  match column table "peak/avg load" with
  | partitioned :: partials ->
    List.iter
      (fun p ->
        Alcotest.(check bool)
          (Printf.sprintf "partitioned (%.2f) hotter than partial (%.2f)" partitioned p)
          true
          (partitioned > 1.5 *. p))
      partials
  | [] -> Alcotest.fail "no rows"

let test_churn_repair_wins () =
  (* Rows alternate repair-off / repair-on per strategy.  With repair on,
     every strategy must serve zero stale reads and strictly beat its
     repair-off self on success rate. *)
  let ctx = E.Ctx.v ~seed:3 ~scale:0.4 () in
  let table = E.Exp_churn.run ctx in
  let success = column table "success %" in
  let stale = column table "stale reads" in
  let rec pairs = function
    | off :: on :: rest -> (off, on) :: pairs rest
    | [] -> []
    | [ _ ] -> Alcotest.fail "odd number of rows"
  in
  if Table.rows table = [] then Alcotest.fail "no rows";
  List.iter
    (fun (off, on) ->
      Alcotest.(check bool)
        (Printf.sprintf "repair beats no repair (%.2f > %.2f)" on off)
        true (on > off))
    (pairs success);
  List.iteri
    (fun i (_, on_stale) ->
      Helpers.check_int (Printf.sprintf "row pair %d: no stale reads with repair" i)
        0 (int_of_float on_stale))
    (pairs stale)

(* The day's headline claim: on the identical day, the tuned client cuts
   every strategy's flash-crowd tail, and no client of either kind reads
   a deleted entry.  Seed 42, scale 0.25 is BENCH_day's point. *)
let test_day_tuned_beats_naive () =
  let table = E.Exp_day.run (E.Ctx.v ~seed:42 ~scale:0.25 ()) in
  let rows = Table.rows table in
  let text i row = Table.cell_to_string (List.nth row i) in
  Helpers.check_int "a naive and a tuned cell per registered strategy"
    (2 * List.length (Plookup.Service.all_configs ~budget:200 ~n:10 ~h:100 ()))
    (List.length rows);
  let p99 = column table "crowd p99 ms" and p999 = column table "crowd p999 ms" in
  List.iteri
    (fun i row ->
      if i mod 2 = 1 then begin
        let name = text 0 row in
        Helpers.check_string (name ^ ": naive cell first") "naive"
          (text 1 (List.nth rows (i - 1)));
        Helpers.check_string (name ^ ": then tuned") "tuned" (text 1 row);
        List.iter
          (fun (metric, values) ->
            let naive = List.nth values (i - 1) and tuned = List.nth values i in
            if not (tuned < naive) then
              Alcotest.failf "%s: tuned crowd %s %.2f not below naive %.2f" name metric
                tuned naive)
          [ ("p99", p99); ("p999", p999) ]
      end)
    rows;
  List.iter2
    (fun row stale ->
      if stale <> 0. then
        Alcotest.failf "%s/%s read %.0f stale entries" (text 0 row) (text 1 row) stale)
    rows (column table "stale")

let test_ctx_scaling () =
  let ctx = E.Ctx.v ~seed:1 ~scale:0.5 () in
  Helpers.check_int "half" 50 (E.Ctx.scaled ctx 100);
  Helpers.check_int "floors at 1" 1 (E.Ctx.scaled ctx 1);
  Alcotest.check_raises "bad scale" (Invalid_argument "Ctx: scale must be positive")
    (fun () -> ignore (E.Ctx.v ~scale:0. ()))

let test_run_seed_stable () =
  let ctx = E.Ctx.v ~seed:9 () in
  Helpers.check_int "same index same seed" (E.Ctx.run_seed ctx 3) (E.Ctx.run_seed ctx 3);
  Alcotest.(check bool) "different index different seed" true
    (E.Ctx.run_seed ctx 3 <> E.Ctx.run_seed ctx 4)

let () =
  Helpers.run "experiments"
    [ ( "experiments",
        [ Alcotest.test_case "registry complete" `Quick test_registry_complete;
          Alcotest.test_case "registry find" `Quick test_registry_find;
          Alcotest.test_case "all run" `Slow test_every_experiment_runs;
          Alcotest.test_case "lookups at engine time" `Slow
            test_lookups_received_at_engine_time;
          Alcotest.test_case "table1 formulas" `Quick test_table1_matches_formulas;
          Alcotest.test_case "fig4 staircase" `Quick test_fig4_round_staircase;
          Alcotest.test_case "fig6 monotone" `Quick test_fig6_coverage_monotone;
          Alcotest.test_case "fig7 orderings" `Quick test_fig7_orderings;
          Alcotest.test_case "fig9 shapes" `Slow test_fig9_shapes;
          Alcotest.test_case "fig12 cushion" `Slow test_fig12_cushion_decay;
          Alcotest.test_case "fig13 deterioration" `Slow test_fig13_deterioration;
          Alcotest.test_case "fig14 crossover" `Slow test_fig14_crossover;
          Alcotest.test_case "table2 scorecard" `Slow test_table2_scorecard;
          Alcotest.test_case "derived stars" `Slow test_derived_stars;
          Alcotest.test_case "paper stars" `Quick test_paper_stars_table;
          Alcotest.test_case "hotspot extension" `Slow test_hotspot_partitioning_is_worse;
          Alcotest.test_case "churn extension" `Slow test_churn_repair_wins;
          Alcotest.test_case "day tuned beats naive" `Slow test_day_tuned_beats_naive;
          Alcotest.test_case "ctx scaling" `Quick test_ctx_scaling;
          Alcotest.test_case "run_seed" `Quick test_run_seed_stable ] ) ]
