open Plookup
open Plookup_store
open Plookup_util
module Load = Plookup_metrics.Load
module Net = Plookup_net.Net

let id = "hotspot"
let title = "Extension: popular-key hot spots, key partitioning vs partial lookup"

let n = 10
let keys = 50
let entries_per_key = 20
let t = 3
let alpha = 1.0

let key_name i = Printf.sprintf "key-%03d" i

(* Per-server lookup load of a partial-lookup directory: per-key
   services index the same physical servers 0..n-1, so summing each
   key-cluster's per-server counters models one shared fleet. *)
let partial_load ctx ~obs ~lookups config =
  let directory =
    Directory.create ~seed:(Ctx.run_seed ctx 1) ~obs ~n ~default:config ()
  in
  let gen = Entry.Gen.create () in
  for k = 0 to keys - 1 do
    Directory.place directory ~key:(key_name k) (Entry.Gen.batch gen entries_per_key)
  done;
  (* Placement traffic is not lookup load. *)
  List.iter
    (fun key ->
      match Directory.service_of directory key with
      | Some service -> Net.reset_counters (Cluster.net (Service.cluster service))
      | None -> ())
    (Directory.keys directory);
  let rng = Rng.create (Ctx.run_seed ctx 2) in
  for _ = 1 to lookups do
    let k = Dist.zipf_ranks rng ~n:keys ~alpha - 1 in
    ignore (Directory.partial_lookup directory ~key:(key_name k) t)
  done;
  let loads = Array.make n 0 in
  List.iter
    (fun key ->
      match Directory.service_of directory key with
      | Some service ->
        let net = Cluster.net (Service.cluster service) in
        for s = 0 to n - 1 do
          loads.(s) <- loads.(s) + Net.messages_received_by net s
        done
      | None -> ())
    (Directory.keys directory);
  Load.summarize loads

let partitioned_load ctx ~lookups =
  let service = Partitioned.create ~seed:(Ctx.run_seed ctx 1) ~n () in
  let gen = Entry.Gen.create () in
  for k = 0 to keys - 1 do
    Partitioned.place service ~key:(key_name k) (Entry.Gen.batch gen entries_per_key)
  done;
  Partitioned.reset_load service;
  let rng = Rng.create (Ctx.run_seed ctx 2) in
  for _ = 1 to lookups do
    let k = Dist.zipf_ranks rng ~n:keys ~alpha - 1 in
    ignore (Partitioned.lookup service ~key:(key_name k) t)
  done;
  Load.summarize (Partitioned.load service)

let run ctx =
  let lookups = Ctx.scaled ctx 20000 in
  let table =
    Table.create ~title
      ~columns:[ "service"; "peak/avg load"; "top server %"; "load cov"; "mean cost" ]
  in
  let row name summary =
    Table.add_row table
      [ Table.S name;
        Table.F summary.Load.peak_to_average;
        Table.F (100. *. summary.Load.top_share);
        Table.F summary.Load.cov;
        Table.F (float_of_int summary.Load.total /. float_of_int lookups) ]
  in
  (* One parallel unit per service row; every row derives its seeds from
     the context alone, so results do not depend on evaluation order. *)
  let cells =
    Array.of_list
      (( "Partitioned (Chord-style)",
         fun ~obs:_ -> partitioned_load ctx ~lookups )
      :: List.map
           (fun config ->
             ( Printf.sprintf "Partial: %s" (Service.config_name config),
               fun ~obs -> partial_load ctx ~obs ~lookups config ))
           [ Service.full_replication; Service.round_robin 2;
             Service.random_server (2 * entries_per_key / 10 |> max 1) ])
  in
  let summaries =
    Runner.map_obs ctx ~count:(Array.length cells) (fun i ~obs ->
        let name, thunk = cells.(i) in
        (name, thunk ~obs))
  in
  Array.iter (fun (name, summary) -> row name summary) summaries;
  table
