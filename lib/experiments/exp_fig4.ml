open Plookup_util
module Service = Plookup.Service
module Analytic = Plookup_metrics.Analytic
module Lookup_cost = Plookup_metrics.Lookup_cost

let id = "fig4"
let title = "Fig 4: lookup cost vs target answer size (fixed storage budget)"

let n = 10
let h = 100
let budget = 200
let targets = [| 10; 15; 20; 25; 30; 35; 40; 45; 50 |]

let run ctx =
  let round = Service.storage_for_budget (Service.round_robin 1) ~n ~h ~total:budget in
  let random = Service.storage_for_budget (Service.random_server 1) ~n ~h ~total:budget in
  let hash = Service.storage_for_budget (Service.hash 1) ~n ~h ~total:budget in
  let y = Option.value ~default:1 (Service.param round) in
  let table =
    Table.create ~title
      ~columns:
        [ "t";
          Service.config_name round;
          "Round analytic";
          Service.config_name random;
          Service.config_name hash;
          Printf.sprintf "%s fail%%" (Service.config_name hash) ]
  in
  let runs = Ctx.scaled ctx 40 in
  let lookups_per_run = Ctx.scaled ctx 250 in
  (* One parallel unit per target row: each derives everything from
     [run_seed ctx t], so rows are independent; they are re-assembled in
     input order below. *)
  let rows =
    Runner.map_obs ctx ~count:(Array.length targets) (fun i ~obs ->
        let t = targets.(i) in
        let measure config =
          Lookup_cost.measure_over_instances ~seed:(Ctx.run_seed ctx t) ~obs ~n ~entries:h
            ~config ~t ~runs ~lookups_per_run ()
        in
        (t, measure round, measure random, measure hash))
  in
  Array.iter
    (fun (t, m_round, m_random, m_hash) ->
      Table.add_row table
        [ Table.I t;
          Table.F m_round.Lookup_cost.mean_cost;
          Table.F (Analytic.round_robin_lookup_cost ~n ~h ~y ~t);
          Table.F m_random.Lookup_cost.mean_cost;
          Table.F m_hash.Lookup_cost.mean_cost;
          Table.F (100. *. m_hash.Lookup_cost.failure_rate) ])
    rows;
  table
