(** The observability handle: one {!Metrics} registry plus one {!Trace},
    created together and threaded together.

    A handle is what components accept ([?obs]) and what the experiment
    context carries: {!Plookup_experiments.Ctx} always holds one, each
    {!Plookup.Cluster} instruments itself against the one it is given.
    Per-replicate work gets a {!child} handle (same trace capacity and
    enablement, fresh state) so parallel replicates never contend on
    shared cells; {!merge} folds children back in input order —
    deterministic at any worker count. *)

type t = { metrics : Metrics.t; trace : Trace.t }

val create : ?trace_capacity:int -> unit -> t
(** Fresh registry and trace.  [trace_capacity] bounds the trace's
    retained ring (default 4096).  The trace's ring evictions are
    mirrored into the registry as the [obs.trace.evicted] counter.
    Tracing starts disabled; metrics are always on. *)

val child : t -> t
(** An empty handle inheriting the parent's trace capacity and
    enablement — hand one to each replicate, then {!merge} it back. *)

val merge : t -> t -> unit
(** [merge parent child] folds the child's metrics snapshot and trace
    spans into the parent ({!Metrics.absorb}, {!Trace.absorb}). *)
