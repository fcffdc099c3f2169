(** The churn drill: one service whose servers fail and recover while a
    steady update stream deletes and adds entries.  The [churn] and
    [day] experiments run on it; the drill keeps the ground truth of
    which entries are live, so a caller can tell stale reads from
    valid ones.

    The updates are what make recovery visible: a server that was down
    missed deletes (it serves stale reads) and adds (it hides entries)
    until the repair layer reconciles it. *)

type t = {
  service : Plookup.Service.t;
  engine : Plookup_sim.Engine.t;
      (** the network's clock; nothing has run yet when {!start}
          returns *)
  seed : int;  (** the service seed; callers derive their own streams from it *)
  live : bool array;
      (** by entry id: placed or added, and not deleted (yet, in engine
          time) *)
  deleted_at : float array;
      (** by entry id: the engine time of the entry's delete,
          [infinity] while it has none *)
}

val start :
  Ctx.t ->
  obs:Plookup_obs.Obs.t ->
  n:int ->
  h:int ->
  mttf:float ->
  mttr:float ->
  horizon:float ->
  update_every:float ->
  repair:Plookup.Repair.config ->
  Plookup.Service.config ->
  t
(** [start ctx ~obs ~n ~h ~mttf ~mttr ~horizon ~update_every ~repair config]
    builds and schedules one drill, in this order:

    - the service of [config] on [n] servers, seeded
      [Ctx.run_seed ctx (Hashtbl.hash name)] by the strategy's name,
      with [h] entries placed;
    - an engine, made the clock of the network and (until [horizon]) of
      the repair layer;
    - churn from {!Plookup_workload.Churn.generate} at seed
      [seed lxor 0xC0FFEE];
    - at [k * update_every + 0.25] for every [k >= 1] up to [horizon],
      one update: delete a uniformly drawn live entry (from seed
      [seed lxor 0xBEEF]) and add a fresh one.  The update is skipped
      when {!Plookup.Service.can_update} is false.

    The caller then schedules its lookups and runs the engine.  Events
    at equal times fire in insertion order, so churn goes before the
    updates, and both before the caller's own events. *)
