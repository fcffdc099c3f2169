open Plookup_util
open Plookup_store
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

let measure_over_instances ?(seed = 0) ?obs ~n ~entries ~config ~t ~runs ~lookups_per_run
    () =
  let master = Rng.create seed in
  let acc = Stats.Accum.create () in
  let failures = ref 0 in
  for _ = 1 to runs do
    let run_seed = Int64.to_int (Rng.bits64 master) land max_int in
    let service = Service.create ~seed:run_seed ?obs ~n config in
    let gen = Entry.Gen.create () in
    Service.place service (Entry.Gen.batch gen entries);
    measure_into acc failures service ~t ~lookups:lookups_per_run
  done;
  finish acc failures
