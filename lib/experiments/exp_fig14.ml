open Plookup_util
module Service = Plookup.Service
module Analytic = Plookup_metrics.Analytic
module Update_gen = Plookup_workload.Update_gen
module Replay = Plookup_workload.Replay
module Obs = Plookup_obs.Obs

let id = "fig14"
let title = "Fig 14: update overhead, Fixed-50 vs Hash-y (t=40, 20000 updates)"

let n = 10
let t = 40
let x = 50
let entry_counts = [ 100; 120; 133; 150; 175; 200; 250; 300; 350; 400 ]
let updates = 20000

(* Mean update messages for Fixed-x and Hash-y at one h.  Each run's
   stream is generated once and replayed on both configs, each replay
   into its own obs child.  All Fixed-x children merge before the Hash-y
   ones, in run order. *)
let measure_messages ctx ~h ~fixed ~hash ~runs =
  let replays =
    Runner.map ctx ~count:runs (fun i ->
        let run = i + 1 in
        let seed = Ctx.run_seed ctx ((h * 131) + run) in
        let stream =
          Update_gen.generate (Rng.create seed)
            { Update_gen.steady_entries = h; add_period = 10.; tail_heavy = false;
              updates }
        in
        let replay config =
          let obs = Obs.child ctx.Ctx.obs in
          let service = Service.create ~seed ~obs ~n config in
          (float_of_int (Replay.messages_for_updates ~service ~stream), obs)
        in
        let fixed_replay = replay fixed in
        (fixed_replay, replay hash))
  in
  let mean_merged pick =
    Runner.mean_of
      (Array.map
         (fun r ->
           let msgs, obs = pick r in
           Obs.merge ctx.Ctx.obs obs;
           msgs)
         replays)
  in
  let fixed_msgs = mean_merged fst in
  (fixed_msgs, mean_merged snd)

let run ctx =
  let table =
    Table.create ~title
      ~columns:
        [ "h";
          "Fixed-x msgs";
          "Fixed analytic";
          "Hash-y msgs";
          "Hash analytic";
          "y";
          "cheaper" ]
  in
  let runs = Ctx.scaled ctx 5 in
  List.iter
    (fun h ->
      let y = Analytic.optimal_hash_y ~n ~h ~t in
      let fixed_msgs, hash_msgs =
        measure_messages ctx ~h ~fixed:(Service.fixed x) ~hash:(Service.hash y) ~runs
      in
      let u = float_of_int updates in
      Table.add_row table
        [ Table.I h;
          Table.F fixed_msgs;
          Table.F (Analytic.update_cost_fixed ~n ~h ~x *. u);
          Table.F hash_msgs;
          Table.F (Analytic.update_cost_hash ~y *. u);
          Table.I y;
          Table.S (if fixed_msgs <= hash_msgs then "Fixed" else "Hash") ])
    entry_counts;
  table
