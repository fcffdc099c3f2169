(** Unfairness (Section 4.5): how unevenly a strategy returns the
    entries.  For an instance (one concrete placement), estimate each
    live entry's per-lookup return probability p_j over many lookups and
    compute the coefficient of variation around the fair value t/h
    (Eq. 1).  A strategy's unfairness is the mean over instances. *)

open Plookup_store

val of_instance :
  Plookup.Service.t -> live:Entry.t list -> t:int -> lookups:int -> float
(** [live] are the [h] entries currently in the system (entries no
    server stores contribute p_j = 0, exactly as the paper's coverage
    discussion requires).  [t] and [lookups] must be positive, [live]
    non-empty. *)

val of_strategy :
  ?seed:int ->
  ?obs:Plookup_obs.Obs.t ->
  n:int ->
  entries:int ->
  config:Plookup.Service.config ->
  t:int ->
  instances:int ->
  lookups_per_instance:int ->
  unit ->
  float * float
(** Mean and 95% CI over fresh placements — Fig. 9's protocol. *)
