(** Client lookup cost (Section 4.2): the expected number of servers a
    client contacts per lookup, measured with no server failures. *)

type measurement = {
  mean_cost : float;  (** average servers contacted *)
  ci95 : float;  (** 95% confidence half-width over the lookups *)
  failure_rate : float;
      (** fraction of lookups returning fewer than [t] distinct entries
          (0 whenever coverage is at least the target) *)
}

val measure : Plookup.Service.t -> t:int -> lookups:int -> measurement
(** Run [lookups] independent partial lookups with target [t] against
    the service as placed, and average. *)

val measure_over_instances :
  ?seed:int ->
  ?obs:Plookup_obs.Obs.t ->
  n:int ->
  entries:int ->
  config:Plookup.Service.config ->
  t:int ->
  runs:int ->
  lookups_per_run:int ->
  unit ->
  measurement
(** The paper's protocol for Fig. 4: for each of [runs] independent
    placements of [entries] entries on [n] servers, run
    [lookups_per_run] lookups; aggregate over everything.  Each run
    re-places with a fresh generator split from [seed]. *)
