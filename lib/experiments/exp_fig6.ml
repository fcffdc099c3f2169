open Plookup_util
module Service = Plookup.Service
module Analytic = Plookup_metrics.Analytic
module Coverage = Plookup_metrics.Coverage

let id = "fig6"
let title = "Fig 6: coverage vs total storage (100 entries on 10 servers)"

let n = 10
let h = 100
let budgets = Array.init 20 (fun i -> (i + 1) * 10)

let run ctx =
  let table =
    Table.create ~title
      ~columns:
        [ "storage";
          "Round&Hash";
          "Round&Hash analytic";
          "Fixed";
          "Fixed analytic";
          "RandomServer";
          "RandomServer analytic" ]
  in
  let runs = Ctx.scaled ctx 30 in
  (* One parallel unit per budget row, seeded from the budget value. *)
  let rows =
    Runner.map_obs ctx ~count:(Array.length budgets) (fun i ~obs ->
        let budget = budgets.(i) in
        let seed = Ctx.run_seed ctx budget in
        let x = max 1 (budget / n) in
        let y = max 1 ((budget + h - 1) / h) in
        let measure config ?cap () =
          fst
            (Coverage.measured_over_instances ~seed ~obs ~n ~entries:h ~config ?budget:cap
               ~runs ())
        in
        (* Round-y and Hash-y behave identically for coverage under the
           round-major budget cut; measure Round (deterministic) and check
           Hash agrees in the test suite. *)
        let round_cov = measure (Service.round_robin y) ~cap:budget () in
        let fixed_cov = measure (Service.fixed x) () in
        let random_cov = measure (Service.random_server x) () in
        (budget, x, round_cov, fixed_cov, random_cov))
  in
  Array.iter
    (fun (budget, x, round_cov, fixed_cov, random_cov) ->
      Table.add_row table
        [ Table.I budget;
          Table.F round_cov;
          Table.F (Analytic.coverage_with_budget ~h ~total_storage:budget);
          Table.F fixed_cov;
          Table.F (Analytic.coverage_fixed ~x ~h);
          Table.F random_cov;
          Table.F (Analytic.coverage_random_server ~n ~h ~x) ])
    rows;
  table
