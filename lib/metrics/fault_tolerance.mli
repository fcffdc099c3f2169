(** Worst-case fault tolerance (Section 4.4, Appendix A): the maximum
    number of server failures — chosen adversarially — after which every
    [partial_lookup t] can still be satisfied.

    Finding the true minimum breaking set is SET-COVER-hard, so the
    paper uses a greedy heuristic: repeatedly fail the server with the
    highest importance score X_S = sum over its entries e of 1/f_e,
    where f_e counts the operational servers holding e.  {!exact} is a
    brute-force reference for validating the heuristic on small
    instances. *)

type placement = Plookup_util.Bitset.t array
(** One bitset of entry ids per server. *)

val snapshot : Plookup.Cluster.t -> capacity:int -> placement

val greedy : placement -> t:int -> int
(** Tolerance per the Appendix-A heuristic: the number of greedy
    failures that still leave coverage of at least [t].  Returns -1 when
    even the intact placement cannot cover [t] (no lookup of size [t]
    ever succeeds).  [t] must be positive. *)

val exact : placement -> t:int -> int
(** Exhaustive minimum breaking set (tolerance = |set| - 1), exponential
    in the server count; intended for <= ~15 servers in tests.  Same
    conventions as {!greedy}.  Greedy's breaking set is never smaller
    than the minimum one, so [exact p ~t <= greedy p ~t] always: the
    heuristic can over-estimate tolerance, never under-estimate it. *)

val greedy_failure_order : placement -> int list
(** The order in which the heuristic would fail all servers (most
    important first) — exposed for diagnostics and tests. *)

val measure_over_instances :
  ?seed:int ->
  ?obs:Plookup_obs.Obs.t ->
  n:int ->
  entries:int ->
  config:Plookup.Service.config ->
  t:int ->
  runs:int ->
  unit ->
  float * float
(** Mean and 95% CI of {!greedy} tolerance over fresh placements —
    Fig. 7's protocol. *)
