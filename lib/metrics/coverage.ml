open Plookup_store
module Service = Plookup.Service

let measured cluster = Entry.Set.cardinal (Plookup.Cluster.coverage cluster)

let measured_over_instances ?seed ?obs ~n ~entries ~config ?budget ~runs () =
  Instances.mean ?seed ?obs ?budget ~n ~entries ~config ~runs (fun service _ ->
      float_of_int (measured (Service.cluster service)))
