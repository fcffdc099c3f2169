open Plookup_util
open Plookup_store
module Service = Plookup.Service

let of_instance service ~live ~t ~lookups =
  if t <= 0 then invalid_arg "Unfairness.of_instance: t must be positive";
  if lookups <= 0 then invalid_arg "Unfairness.of_instance: lookups must be positive";
  if live = [] then invalid_arg "Unfairness.of_instance: no live entries";
  let h = List.length live in
  (* A store of the live entries numbers them by slot, which indexes
     an array of counts. *)
  let index = Server_store.create () in
  List.iter (fun e -> ignore (Server_store.add index e)) live;
  let counts = Array.make (Server_store.cardinal index) 0 in
  let count e =
    let i = Server_store.slot index e in
    (* -1: a stale entry still stored somewhere; not live. *)
    if i >= 0 then counts.(i) <- counts.(i) + 1
  in
  for _ = 1 to lookups do
    List.iter count (Service.partial_lookup service t).Plookup.Lookup_result.entries
  done;
  let probabilities =
    List.map
      (fun e -> float_of_int counts.(Server_store.slot index e) /. float_of_int lookups)
      live
    |> Array.of_list
  in
  Stats.coefficient_of_variation ~ideal:(float_of_int t /. float_of_int h) probabilities

let of_strategy ?seed ?obs ~n ~entries ~config ~t ~instances ~lookups_per_instance () =
  Instances.mean ?seed ?obs ~n ~entries ~config ~runs:instances (fun service live ->
      of_instance service ~live ~t ~lookups:lookups_per_instance)
