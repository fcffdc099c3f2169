open Plookup_util
module Service = Plookup.Service
module Analytic = Plookup_metrics.Analytic
module Fault_tolerance = Plookup_metrics.Fault_tolerance

let id = "fig7"
let title = "Fig 7: fault tolerance vs target answer size (storage budget 200)"

let n = 10
let h = 100
let budget = 200
let targets = [| 10; 15; 20; 25; 30; 35; 40; 45; 50 |]

let run ctx =
  let random = Service.storage_for_budget (Service.random_server 1) ~n ~h ~total:budget in
  let hash = Service.storage_for_budget (Service.hash 1) ~n ~h ~total:budget in
  let round = Service.storage_for_budget (Service.round_robin 1) ~n ~h ~total:budget in
  let y = Option.value ~default:1 (Service.param round) in
  let table =
    Table.create ~title
      ~columns:
        [ "t";
          Service.config_name random;
          Service.config_name hash;
          Service.config_name round;
          "Round analytic" ]
  in
  let runs = Ctx.scaled ctx 200 in
  (* One parallel unit per target row, seeded from the target value. *)
  let rows =
    Runner.map_obs ctx ~count:(Array.length targets) (fun i ~obs ->
        let t = targets.(i) in
        let measure config =
          fst
            (Fault_tolerance.measure_over_instances ~seed:(Ctx.run_seed ctx t) ~obs ~n
               ~entries:h ~config ~t ~runs ())
        in
        (t, measure random, measure hash, measure round))
  in
  Array.iter
    (fun (t, m_random, m_hash, m_round) ->
      Table.add_row table
        [ Table.I t;
          Table.F m_random;
          Table.F m_hash;
          Table.F m_round;
          Table.I (Analytic.fault_tolerance_round_robin ~n ~h ~y ~t) ])
    rows;
  table
