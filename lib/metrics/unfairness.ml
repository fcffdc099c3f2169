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

let of_strategy ?(seed = 0) ?obs ~n ~entries ~config ~t ~instances ~lookups_per_instance
    () =
  let master = Rng.create seed in
  let acc = Stats.Accum.create () in
  for _ = 1 to instances do
    let run_seed = Int64.to_int (Rng.bits64 master) land max_int in
    let service = Service.create ~seed:run_seed ?obs ~n config in
    let gen = Entry.Gen.create () in
    let live = Entry.Gen.batch gen entries in
    Service.place service live;
    Stats.Accum.add acc (of_instance service ~live ~t ~lookups:lookups_per_instance)
  done;
  (Stats.Accum.mean acc, Stats.Accum.ci95_half_width acc)
