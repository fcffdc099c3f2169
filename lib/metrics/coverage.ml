open Plookup_util
open Plookup_store
module Service = Plookup.Service

let measured cluster = Entry.Set.cardinal (Plookup.Cluster.coverage cluster)

let measured_over_instances ?(seed = 0) ?obs ~n ~entries ~config ?budget ~runs () =
  let master = Rng.create seed in
  let acc = Stats.Accum.create () in
  for _ = 1 to runs do
    let run_seed = Int64.to_int (Rng.bits64 master) land max_int in
    let service = Service.create ~seed:run_seed ?obs ~n config in
    let gen = Entry.Gen.create () in
    Service.place ?budget service (Entry.Gen.batch gen entries);
    Stats.Accum.add acc (float_of_int (measured (Service.cluster service)))
  done;
  (Stats.Accum.mean acc, Stats.Accum.ci95_half_width acc)
