open Plookup_util
open Plookup_store
module Service = Plookup.Service
module Metrics = Plookup_metrics
module Update_gen = Plookup_workload.Update_gen
module Replay = Plookup_workload.Replay

let id = "table2"
let title = "Table 2: strategy scorecard (measured, h=100 n=10 budget=200 t=35)"
let n = 10
let h = 100
let budget = 200
let t = 35

let messages_per_update ctx ~obs ~config ~updates ~runs =
  let seeds = Array.init runs (fun i -> Ctx.run_seed ctx ((i + 1) * 37)) in
  let measure ~obs seed =
    let stream =
      Update_gen.generate (Rng.create seed)
        { Update_gen.steady_entries = h; add_period = 10.; tail_heavy = false; updates }
    in
    let service = Service.create ~seed ~obs ~n config in
    let msgs = Replay.messages_for_updates ~service ~stream in
    float_of_int msgs /. float_of_int updates
  in
  Runner.mean_of (Array.map (measure ~obs) seeds)

(* Turn measured columns into 1..4 star ranks over the four partial
   strategies (the paper's Table 2 omits full replication), ties sharing
   the better rank. *)
let stars_of_measurements rows =
  (* rows: (name, metric values) with a per-metric "lower is better"
     flag threaded separately. *)
  let rank ~lower_better values =
    let sorted =
      List.sort_uniq compare (if lower_better then values else List.map Float.neg values)
    in
    List.map
      (fun v ->
        let key = if lower_better then v else -.v in
        let position =
          match List.find_index (fun s -> Float.abs (s -. key) < 1e-9) sorted with
          | Some i -> i
          | None -> List.length sorted - 1
        in
        (* Best position -> 4 stars, worst -> at least 1. *)
        max 1 (4 - position))
      values
  in
  let columns =
    [ ("storage", true); ("coverage", false); ("fault tol", false);
      ("lookup cost", true); ("unfairness", true); ("msgs/update", true) ]
  in
  let table =
    Table.create
      ~title:"Table 2 (derived): star ranks from the measured scorecard (plookup run table2)"
      ~columns:("strategy" :: List.map fst columns)
  in
  let metric_count = List.length columns in
  let star_lists =
    List.mapi
      (fun metric (_, lower_better) ->
        rank ~lower_better (List.map (fun (_, values) -> List.nth values metric) rows))
      columns
  in
  List.iteri
    (fun row_index (name, _) ->
      Table.add_row table
        (Table.S name
        :: List.init metric_count (fun metric ->
               Table.S (String.make (List.nth (List.nth star_lists metric) row_index) '*'))))
    rows;
  table

let measure_rows ctx =
  let runs = Ctx.scaled ctx 20 in
  let configs = Array.of_list (Service.all_configs ~budget ~n ~h ()) in
  (* One parallel unit per strategy.  All seeds derive from the context
     alone, so results do not depend on evaluation order. *)
  let rows =
    Runner.map_obs ctx ~count:(Array.length configs) (fun index ~obs ->
        let config = configs.(index) in
      let seed = Ctx.run_seed ctx 1 in
      (* Static metrics on one representative placement family. *)
      let coverage =
        fst
          (Metrics.Coverage.measured_over_instances ~seed ~obs ~n ~entries:h ~config
             ~runs ())
      in
      let fault_tol =
        fst
          (Metrics.Fault_tolerance.measure_over_instances ~seed ~obs ~n ~entries:h
             ~config ~t ~runs ())
      in
      let lookup =
        Metrics.Lookup_cost.measure_over_instances ~seed ~obs ~n ~entries:h ~config
          ~t
          ~runs:(max 1 (runs / 2))
          ~lookups_per_run:(Ctx.scaled ctx 200) ()
      in
      let unfairness =
        fst
          (Metrics.Unfairness.of_strategy ~seed ~obs ~n ~entries:h ~config ~t
             ~instances:(max 1 (runs / 4))
             ~lookups_per_instance:(Ctx.scaled ctx 2000) ())
      in
      let storage =
        let service = Service.create ~seed ~obs ~n config in
        let gen = Entry.Gen.create () in
        Service.place service (Entry.Gen.batch gen h);
        Metrics.Storage.measured (Service.cluster service)
      in
      let msgs =
        messages_per_update ctx ~obs ~config ~updates:(Ctx.scaled ctx 2000)
          ~runs:(max 1 (runs / 4))
      in
        ( Service.config_name config,
          [ float_of_int storage; coverage; fault_tol;
            lookup.Metrics.Lookup_cost.mean_cost; unfairness; msgs ] ))
  in
  Array.to_list rows

let measured_table rows =
  let table =
    Table.create ~title
      ~columns:
        [ "strategy"; "storage"; "coverage"; "fault tol"; "lookup cost"; "unfairness";
          "msgs/update" ]
  in
  List.iter
    (fun (name, values) ->
      match values with
      | [ storage; coverage; fault_tol; lookup_cost; unfairness; msgs ] ->
        Table.add_row table
          [ Table.S name;
            Table.I (int_of_float storage);
            Table.F coverage;
            Table.F fault_tol;
            Table.F lookup_cost;
            Table.F4 unfairness;
            Table.F msgs ]
      | _ -> invalid_arg "Exp_table2: malformed row")
    rows;
  table

let run ctx = measured_table (measure_rows ctx)

let run_full ctx =
  let rows = measure_rows ctx in
  (* The paper's Table 2 ranks the four partial strategies; drop the
     full-replication baseline row before deriving stars. *)
  let partial = List.filter (fun (name, _) -> name <> "FullReplication") rows in
  (measured_table rows, stars_of_measurements partial)

let paper_stars =
  let table =
    Table.create ~title:"Table 2 (paper): informal star summary, 4 stars = best"
      ~columns:
        [ "strategy";
          "storage few";
          "storage many";
          "coverage";
          "fault tol";
          "fairness few upd";
          "fairness many upd";
          "lookup cost";
          "overhead small t";
          "overhead large t" ]
  in
  let s = Table.(fun v -> S v) in
  List.iter (Table.add_row table)
    [ [ s "Fixed-x"; s "****"; s "****"; s "*"; s "****"; s "*"; s "*"; s "****"; s "****";
        s "**" ];
      [ s "RandomServer-x"; s "****"; s "****"; s "***"; s "***"; s "***"; s "*"; s "***";
        s "**"; s "**" ];
      [ s "Round-y"; s "****"; s "**"; s "****"; s "***"; s "****"; s "****"; s "****";
        s "*"; s "*" ];
      [ s "Hash-y"; s "****"; s "**"; s "****"; s "**"; s "**"; s "***"; s "**"; s "***";
        s "****" ] ];
  table
