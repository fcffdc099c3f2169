open Plookup
open Plookup_store
open Plookup_util
module Engine = Plookup_sim.Engine
module Churn = Plookup_workload.Churn

type t = {
  service : Service.t;
  engine : Engine.t;
  seed : int;
  live : bool array;
  deleted_at : float array;
}

let start ctx ~obs ~n ~h ~mttf ~mttr ~horizon ~update_every ~repair config =
  let seed = Ctx.run_seed ctx (Hashtbl.hash (Service.config_name config)) in
  let service = Service.create ~seed ~obs ~repair ~n config in
  let gen = Entry.Gen.create () in
  let initial = Entry.Gen.batch gen h in
  Service.place service initial;
  let cluster = Service.cluster service in
  let engine = Engine.create () in
  Plookup_net.Net.attach_engine (Cluster.net cluster) engine;
  Option.iter
    (fun rep -> Repair.attach_engine ~until:horizon rep engine)
    (Service.repair service);
  Churn.drive engine
    ~apply:(fun ev ->
      if ev.Churn.up then Cluster.recover cluster ev.Churn.server
      else Cluster.fail cluster ev.Churn.server)
    (Churn.generate (Rng.create (seed lxor 0xC0FFEE)) ~n ~mttf ~mttr ~horizon);
  (* Entry ids are issued sequentially by [Entry.Gen] and every update
     issues one, so arrays over the id space hold the ground truth, and
     a Fenwick tree over it gives the uniform victim pick by rank: the
     k-th smallest live id, in O(log ids). *)
  let updates = int_of_float (horizon /. update_every) in
  let ids = h + updates + 1 in
  let live = Array.make ids false and deleted_at = Array.make ids infinity in
  let live_ids = Fenwick.create ids in
  let set_live id alive =
    live.(id) <- alive;
    Fenwick.add live_ids id (if alive then 1 else -1)
  in
  List.iter (fun e -> set_live (Entry.id e) true) initial;
  let rng = Rng.create (seed lxor 0xBEEF) in
  for k = 1 to updates do
    let time = (float_of_int k *. update_every) +. 0.25 in
    ignore
      (Engine.schedule_at engine ~time (fun _ ->
           (* A client whose update gets no reply (coordinator down, or
              no server up) fails fast; the update never happened. *)
           if Service.can_update service then
             match Fenwick.total live_ids with
             | 0 -> ()
             | alive ->
               let victim = Fenwick.select live_ids (Rng.int rng alive) in
               Service.delete service (Entry.v victim);
               set_live victim false;
               deleted_at.(victim) <- time;
               let fresh = Entry.Gen.fresh gen in
               Service.add service fresh;
               set_live (Entry.id fresh) true))
  done;
  { service; engine; seed; live; deleted_at }
