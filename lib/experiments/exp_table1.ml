open Plookup_util
open Plookup_store
module Service = Plookup.Service
module Analytic = Plookup_metrics.Analytic
module Storage = Plookup_metrics.Storage

let id = "table1"
let title = "Table 1: storage cost for managing h entries on n servers"
let n = 10
let h = 100
let budget = 200

let measured_mean ctx config ~runs =
  Runner.mean_of
    (Runner.replicates_obs ctx ~count:runs (fun ~seed ~obs ->
         let service = Service.create ~seed ~obs ~n config in
         let gen = Entry.Gen.create () in
         Service.place service (Entry.Gen.batch gen h);
         float_of_int (Storage.measured (Service.cluster service))))

let run ctx =
  let table =
    Table.create ~title
      ~columns:[ "strategy"; "formula"; "analytic"; "measured (mean)" ]
  in
  let runs = Ctx.scaled ctx 50 in
  let configs = Service.all_configs ~budget ~n ~h () in
  List.iter
    (fun config ->
      let analytic = Analytic.storage config ~n ~h in
      let measured = measured_mean ctx config ~runs in
      Table.add_row table
        [ Table.S (Service.config_name config);
          Table.S (Service.storage_formula config);
          Table.F analytic;
          Table.F measured ])
    configs;
  table
