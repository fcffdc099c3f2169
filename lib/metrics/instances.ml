open Plookup_util
open Plookup_store
module Service = Plookup.Service

let iter ?(seed = 0) ?obs ?budget ~n ~entries ~config ~runs f =
  let master = Rng.create seed in
  for _ = 1 to runs do
    let run_seed = Int64.to_int (Rng.bits64 master) land max_int in
    let service = Service.create ~seed:run_seed ?obs ~n config in
    let placed = Entry.Gen.batch (Entry.Gen.create ()) entries in
    Service.place ?budget service placed;
    f service placed
  done

let mean ?seed ?obs ?budget ~n ~entries ~config ~runs f =
  let acc = Stats.Accum.create () in
  iter ?seed ?obs ?budget ~n ~entries ~config ~runs (fun service placed ->
      Stats.Accum.add acc (f service placed));
  (Stats.Accum.mean acc, Stats.Accum.ci95_half_width acc)
