(** The paper's protocol over independent placements (Figs. 4, 6, 7
    and 9): run [i] places a fresh batch of [entries] entries (ids
    [0 .. entries-1]) on a fresh service of [n] servers, seeded with the
    [i]-th 64-bit draw of a generator seeded with [seed] (default 0),
    masked to a non-negative int. *)

val iter :
  ?seed:int ->
  ?obs:Plookup_obs.Obs.t ->
  ?budget:int ->
  n:int ->
  entries:int ->
  config:Plookup.Service.config ->
  runs:int ->
  (Plookup.Service.t -> Plookup_store.Entry.t list -> unit) ->
  unit
(** [f service placed] once per run, in run order, after placing
    [placed] on [service] (under [budget], if given). *)

val mean :
  ?seed:int ->
  ?obs:Plookup_obs.Obs.t ->
  ?budget:int ->
  n:int ->
  entries:int ->
  config:Plookup.Service.config ->
  runs:int ->
  (Plookup.Service.t -> Plookup_store.Entry.t list -> float) ->
  float * float
(** The mean and 95% CI half-width of [f]'s value over {!iter}'s runs. *)
