(** Closed-form results from the paper, asserted against simulation in
    the test suite and plotted next to measurements by the experiments.

    Sources: Table 1 (storage), Section 4.2 (lookup cost), Section 4.3
    (coverage), Section 4.4 (fault tolerance), Section 6.4 (the Fixed-x
    vs Hash-y update-overhead crossover). *)

val storage : Plookup.Service.config -> n:int -> h:int -> float
(** Table 1 storage cost (expected, for Hash-y): FullReplication [h*n],
    Fixed-x/RandomServer-x [x*n] (the paper assumes [x <= h]; computed
    as [min x h * n]), Round-y [h*y], Hash-y [h*n*(1-(1-1/n)^y)]. *)

val round_robin_lookup_cost : n:int -> h:int -> y:int -> t:int -> float
(** ceil(t*n / (y*h)) — each Round-y server holds [y*h/n] entries and
    consecutive probes are disjoint. *)

val fixed_lookup_cost : x:int -> t:int -> float option
(** 1 when [t <= x]; [None] (undefined) otherwise — Fixed-x cannot answer
    targets beyond x. *)

val coverage_full : h:int -> float
val coverage_fixed : x:int -> h:int -> float
(** min x h. *)

val coverage_random_server : n:int -> h:int -> x:int -> float
(** h * (1 - (1 - x/h)^n) — the chance an entry misses every server's
    random subset is (1 - x/h)^n. *)

val coverage_with_budget : h:int -> total_storage:int -> float
(** Round-y / Hash-y under a storage budget: min(total_storage, h),
    because their round-major placement stores each entry once before
    any duplicates. *)

val fault_tolerance_full : n:int -> int
(** n - 1: one survivor answers everything. *)

val fault_tolerance_fixed : n:int -> x:int -> t:int -> int
(** n - 1 when [t <= x]; -1 (never satisfiable) otherwise. *)

val fault_tolerance_round_robin : n:int -> h:int -> y:int -> t:int -> int
(** n - ceil(t*n/h) + y - 1 (Section 4.4), capped at n - 1 (a lone
    surviving server already holds y*h/n entries). *)

val hash_expected_entries_per_server : n:int -> h:int -> y:int -> float
(** h * (1 - (1 - 1/n)^y) — mean occupancy of one Hash-y server. *)

val update_cost_fixed : n:int -> h:int -> x:int -> float
(** Expected processed messages per update for Fixed-x:
    1 + (x/h) * n (Section 6.4). *)

val update_cost_hash : y:int -> float
(** 1 + y (Section 6.4, barring hash collisions). *)

val optimal_hash_y : n:int -> h:int -> t:int -> int
(** The y Section 6.4 selects per ratio t/h: y = ceil(t*n/h), the
    smallest y making the nominal entries-per-server [y*h/n] at least
    [t] so lookups cost ~1.  Never below 1 and capped at [n]. *)

val optimal_hash_y_collision_aware : n:int -> h:int -> t:int -> int
(** Like {!optimal_hash_y} but accounting for hash collisions: smallest
    y with {!hash_expected_entries_per_server} at least [t].  Slightly
    larger than the paper's choice near the breakpoints; used by the
    ablation bench. *)

val crossover_equal_cost : n:int -> h:int -> x:int -> y:int -> int
(** Sign of [update_cost_fixed - update_cost_hash]: negative when Fixed
    is cheaper, 0 at the crossover (x/h)*n = y, positive when Hash is
    cheaper. *)
