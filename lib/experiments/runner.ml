let map ctx ~count f = Plookup_util.Pool.map ~jobs:ctx.Ctx.jobs f (Array.init count Fun.id)

(* Observability threading: each unit of work gets a private child
   handle (no shared mutable cells across workers), and the children are
   merged back into [ctx.obs] by walking the result array in input
   order — the same discipline that makes the results themselves
   jobs-deterministic makes the metrics and trace so. *)
let map_obs ctx ~count f =
  let pairs =
    map ctx ~count (fun i ->
        let obs = Plookup_obs.Obs.child ctx.Ctx.obs in
        let r = f i ~obs in
        (r, obs))
  in
  Array.map
    (fun (r, obs) ->
      Plookup_obs.Obs.merge ctx.Ctx.obs obs;
      r)
    pairs

let replicates_obs ctx ~count f =
  map_obs ctx ~count (fun i ~obs -> f ~seed:(Ctx.run_seed ctx (i + 1)) ~obs)

let mean_of samples =
  let acc = Plookup_util.Stats.Accum.create () in
  Array.iter (Plookup_util.Stats.Accum.add acc) samples;
  Plookup_util.Stats.Accum.mean acc
