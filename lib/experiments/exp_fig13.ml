open Plookup_util
module Service = Plookup.Service
module Unfairness = Plookup_metrics.Unfairness
module Update_gen = Plookup_workload.Update_gen
module Replay = Plookup_workload.Replay

let id = "fig13"
let title = "Fig 13: RandomServer-x unfairness vs number of updates (x=20)"

let n = 10
let h = 100
let x = 20
let t = 1
let checkpoints = List.init 9 (fun i -> i * 500)

(* Replay [stream] through a fresh service of [config], measuring
   unfairness over the live entries at every checkpoint. *)
let unfairness_trace ctx ~obs ~lookups ~config ~stream ~run =
  let seed = Ctx.run_seed ctx (run * 7919) in
  let service = Service.create ~seed ~obs ~n config in
  let wanted = Hashtbl.create 16 in
  List.iter (fun c -> Hashtbl.replace wanted c ()) checkpoints;
  let out = Hashtbl.create 16 in
  let measure index =
    if Hashtbl.mem wanted index then begin
      let live = Update_gen.live_after stream index in
      Hashtbl.replace out index (Unfairness.of_instance service ~live ~t ~lookups)
    end
  in
  Replay.run ~on_event:(fun point -> measure point.Replay.index) service stream;
  (* Checkpoint 0 must be measured on a freshly placed instance; rerun
     the placement-only part by creating a new service. *)
  if Hashtbl.mem wanted 0 then begin
    let fresh = Service.create ~seed ~obs ~n config in
    Service.place fresh stream.Update_gen.initial;
    Hashtbl.replace out 0
      (Unfairness.of_instance fresh ~live:stream.Update_gen.initial ~t ~lookups)
  end;
  out

let run ctx =
  let table =
    Table.create ~title ~columns:[ "updates"; "RandomServer-x"; "Fixed-x (ref)" ]
  in
  let runs = Ctx.scaled ctx 4 in
  let lookups = Ctx.scaled ctx 5000 in
  let max_cp = List.fold_left max 0 checkpoints in
  let acc_rs = Hashtbl.create 16 in
  let acc_fx = Hashtbl.create 16 in
  let accumulate table_acc trace =
    Hashtbl.iter
      (fun cp v ->
        let acc =
          match Hashtbl.find_opt table_acc cp with
          | Some a -> a
          | None ->
            let a = Stats.Accum.create () in
            Hashtbl.replace table_acc cp a;
            a
        in
        Stats.Accum.add acc v)
      trace
  in
  (* One parallel unit per replicate; traces are folded into the
     accumulators in run order below, so means see the samples in the
     same order as the historical sequential loop. *)
  let traces =
    Runner.map_obs ctx ~count:runs (fun i ~obs ->
        let run = i + 1 in
        let stream =
          Update_gen.generate
            (Rng.create (Ctx.run_seed ctx run))
            { Update_gen.steady_entries = h; add_period = 10.; tail_heavy = false;
              updates = max_cp }
        in
        ( unfairness_trace ctx ~obs ~lookups ~config:(Service.random_server x) ~stream ~run,
          unfairness_trace ctx ~obs ~lookups ~config:(Service.fixed x) ~stream ~run ))
  in
  Array.iter
    (fun (trace_rs, trace_fx) ->
      accumulate acc_rs trace_rs;
      accumulate acc_fx trace_fx)
    traces;
  List.iter
    (fun cp ->
      let mean tbl =
        match Hashtbl.find_opt tbl cp with Some a -> Stats.Accum.mean a | None -> nan
      in
      Table.add_row table [ Table.I cp; Table.F4 (mean acc_rs); Table.F4 (mean acc_fx) ])
    (List.sort compare checkpoints);
  table
