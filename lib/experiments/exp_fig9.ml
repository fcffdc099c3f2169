open Plookup_util
module Service = Plookup.Service
module Unfairness = Plookup_metrics.Unfairness

let id = "fig9"
let title = "Fig 9: unfairness vs total storage (t=35, 100 entries, 10 servers)"

let n = 10
let h = 100
let t = 35
let budgets = Array.init 10 (fun i -> (i + 1) * 100)

let run ctx =
  let table =
    Table.create ~title ~columns:[ "storage"; "RandomServer-x"; "x"; "Hash-y"; "y" ]
  in
  let instances = Ctx.scaled ctx 6 in
  let lookups_per_instance = Ctx.scaled ctx 4000 in
  (* One parallel unit per budget row, seeded from the budget value. *)
  let rows =
    Runner.map_obs ctx ~count:(Array.length budgets) (fun i ~obs ->
        let budget = budgets.(i) in
        let seed = Ctx.run_seed ctx budget in
        let x = max 1 (budget / n) in
        let y = max 1 (budget / h) in
        let measure config =
          fst
            (Unfairness.of_strategy ~seed ~obs ~n ~entries:h ~config ~t ~instances
               ~lookups_per_instance ())
        in
        (budget, x, measure (Service.random_server x), y, measure (Service.hash y)))
  in
  Array.iter
    (fun (budget, x, u_random, y, u_hash) ->
      Table.add_row table
        [ Table.I budget; Table.F4 u_random; Table.I x; Table.F4 u_hash; Table.I y ])
    rows;
  table
