(** A fixed-size, work-stealing-free parallel map.

    [Pool] is the single concurrency primitive of the repo and [--jobs]
    its single parallel axis: experiments hand it an array of
    independent replicate descriptions and get the results back {e in
    input order}, so aggregation code never observes completion order
    and every caller is deterministic at any [jobs] value (see
    DESIGN.md, "Parallelism").

    Workers are stdlib [Domain]s pulling indices from an atomic
    counter, and a failure re-raises the exception of the lowest-index
    failing element, so behaviour (results, exceptions, everything but
    wall-clock) is identical at every job count. *)

val recommended_jobs : unit -> int
(** A sensible default worker count: the runtime's recommended domain
    count (usually the core count). *)

val map : jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map ~jobs f arr] is [Array.map f arr] computed by up to [jobs]
    workers.  Results are returned in input order regardless of
    completion order.  [f] must not touch shared mutable state (every
    call site passes a self-contained replicate closure).

    [jobs <= 1], singleton and empty arrays short-circuit to a plain
    sequential map in the calling domain.

    If one or more applications of [f] raise, every element still runs
    to completion and the exception of the {e lowest} failing index is
    re-raised — the same exception a sequential [Array.map] would have
    produced first. *)
