open Plookup_util
module Service = Plookup.Service

type measurement = { mean_cost : float; ci95 : float; failure_rate : float }

let measure_into acc failures service ~t ~lookups =
  for _ = 1 to lookups do
    let result = Service.partial_lookup service t in
    Stats.Accum.add acc (float_of_int result.Plookup.Lookup_result.servers_contacted);
    if not (Plookup.Lookup_result.satisfied result) then incr failures
  done

let finish acc failures =
  let n = Stats.Accum.count acc in
  { mean_cost = Stats.Accum.mean acc;
    ci95 = Stats.Accum.ci95_half_width acc;
    failure_rate = (if n = 0 then 0. else float_of_int !failures /. float_of_int n) }

let measure service ~t ~lookups =
  let acc = Stats.Accum.create ()
  and failures = ref 0 in
  measure_into acc failures service ~t ~lookups;
  finish acc failures

let measure_over_instances ?seed ?obs ~n ~entries ~config ~t ~runs ~lookups_per_run () =
  let acc = Stats.Accum.create ()
  and failures = ref 0 in
  Instances.iter ?seed ?obs ~n ~entries ~config ~runs (fun service _ ->
      measure_into acc failures service ~t ~lookups:lookups_per_run);
  finish acc failures
