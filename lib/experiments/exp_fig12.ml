open Plookup_util
open Plookup_store
module Service = Plookup.Service
module Update_gen = Plookup_workload.Update_gen
module Replay = Plookup_workload.Replay

let id = "fig12"
let title = "Fig 12: Fixed-x lookup failure time vs cushion size (t=15, h=100)"

let n = 10
let h = 100
let t = 15
let cushions = [ 0; 1; 2; 3; 4; 5; 6; 7 ]
let updates = 20000

(* All Fixed-x servers are identical, so "a lookup for t entries would
   fail" is simply "server 0 holds fewer than t entries". *)
let failed service =
  Server_store.cardinal (Plookup.Cluster.store (Service.cluster service) 0) < t

let failure_share ctx ~b ~tail_heavy ~runs =
  (* Replicate [i] derives its seed from the (cushion, distribution,
     run) triple exactly as the sequential loop always did. *)
  Runner.mean_of
    (Runner.map_obs ctx ~count:runs (fun i ~obs ->
         let run = i + 1 in
         let seed =
           Ctx.run_seed ctx ((b * 10_000) + (if tail_heavy then 5000 else 0) + run)
         in
         let stream =
           Update_gen.generate (Rng.create seed)
             { Update_gen.steady_entries = h; add_period = 10.; tail_heavy; updates }
         in
         let service = Service.create ~seed ~obs ~n (Service.fixed (t + b)) in
         Replay.run_timed ~service ~stream ~failed))

let run ctx =
  let table =
    Table.create ~title ~columns:[ "cushion b"; "exp fail %"; "zipf fail %" ]
  in
  let runs = Ctx.scaled ctx 20 in
  List.iter
    (fun b ->
      let exp_share = failure_share ctx ~b ~tail_heavy:false ~runs in
      let zipf_share = failure_share ctx ~b ~tail_heavy:true ~runs in
      Table.add_row table
        [ Table.I b; Table.F4 (100. *. exp_share); Table.F4 (100. *. zipf_share) ])
    cushions;
  table
