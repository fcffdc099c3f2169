(** Maximum coverage (Section 4.3): the number of distinct entries a
    client can retrieve by contacting every operational server — the
    ceiling on any achievable target answer size. *)

val measured : Plookup.Cluster.t -> int

val measured_over_instances :
  ?seed:int ->
  ?obs:Plookup_obs.Obs.t ->
  n:int ->
  entries:int ->
  config:Plookup.Service.config ->
  ?budget:int ->
  runs:int ->
  unit ->
  float * float
(** Mean and 95% CI half-width of the coverage over [runs] fresh
    placements (Fig. 6's protocol).  [budget] caps total stored copies
    for Round-y / Hash-y. *)
