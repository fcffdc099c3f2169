(** Shared experiment context: a master seed, a scale knob, and ambient
    network-fault knobs.

    The paper's data points average 5000 runs of up to 5000 lookups —
    minutes of CPU per figure.  Defaults here are sized for seconds per
    figure; [scale] multiplies every run/lookup count so the CLI can
    crank any experiment back up to paper scale (see EXPERIMENTS.md).

    [loss], [duplication] and [jitter] describe an ambient fault model
    (see {!Plookup_net.Net.set_faults}) that fault-aware experiments
    thread into the networks they build: [latency] and [day] install it
    whole ({!apply_faults}), and the [loss] sweep takes duplication and
    jitter from it and adds a non-zero [loss] to the rates it sweeps.
    The CLI exposes them as [--loss], [--duplication] and [--jitter]. *)

type overload = {
  capacity : int;  (** per-server inbox queue limit, >= 1 *)
  service_rate : float;  (** messages served per time unit, > 0 *)
  deadline : float;  (** per-lookup time budget for the tuned client, > 0 *)
  hedge : float;  (** latency quantile driving the hedge delay, in (0, 100) *)
  breaker : int;  (** circuit-breaker failure threshold, >= 1 *)
  degrade : float;  (** gray-failure service-time multiplier, >= 1 *)
}
(** Overload-model knobs for the production-day experiment: the server
    capacity model ({!Plookup.Cluster.set_capacity}), gray-failure
    injection ({!Plookup.Cluster.set_degraded}) and the tuned client's
    tail-tolerance settings ({!Plookup.Async_client.lookup}). *)

val default_overload : overload
(** capacity 8, service_rate 2.0, deadline 250, hedge p95, breaker 3,
    degrade 25x. *)

type cache = {
  cache_cap : int;  (** LRU capacity of the client-side cache, >= 1 *)
  cache_ttl : float;  (** entry freshness window (time units), > 0 *)
  swr : float;  (** stale-while-revalidate window past the TTL, >= 0 *)
  hotspot : float;
      (** hotspot-adversarial blend: fraction of lookups aimed at the
          strategy's worst-placed key instead of the Zipf draw, in
          [0, 1] ({!Plookup_workload.Hotspot}) *)
}
(** Client-cache knobs for the production-day experiment's third cell
    ({!Plookup.Client_cache}).  [None] in the context means the cached
    cell (and its extra report columns) is not run at all, keeping the
    default [day] output byte-identical to the cache-free build. *)

val default_cache : cache
(** cap 128, ttl 10 (the day experiment's update period — one
    delete+add cycle), swr 0, hotspot 0. *)

type t = {
  seed : int;
  scale : float;
  jobs : int;
      (** worker count for {!Runner}'s replicate fan-out, the repo's one
          parallel axis; results are byte-identical at any value
          (DESIGN.md, "Parallelism") *)
  loss : float;  (** per-transmission drop probability, in [0, 1) *)
  duplication : float;  (** per-transmission duplicate probability, in [0, 1] *)
  jitter : float;  (** max extra per-delivery delay (engine time units) *)
  mttf : float option;  (** churn mean time to failure; [None] = experiment default *)
  mttr : float option;  (** churn mean time to repair; [None] = experiment default *)
  horizon : float option;  (** churn simulation horizon; [None] = experiment default *)
  repair : Plookup.Repair.config;
      (** self-healing configuration for churn-aware experiments
          (default {!Plookup.Repair.default_config}) *)
  overload : overload;
      (** overload-model knobs for the production-day experiment
          (default {!default_overload}) *)
  cache : cache option;
      (** client-cache knobs for the production-day experiment's cached
          cell; [None] = no cached cell *)
  obs : Plookup_obs.Obs.t;
      (** where the experiment's services report: replicate work gets a
          child handle and is merged back in input order
          ({!Runner.map_obs}), so the registry snapshot and trace are
          byte-identical at any [jobs] value.  Tracing is off unless the
          caller enables it on this handle (the [plookup trace]
          command does). *)
}

val v :
  ?seed:int ->
  ?scale:float ->
  ?jobs:int ->
  ?loss:float ->
  ?duplication:float ->
  ?jitter:float ->
  ?mttf:float ->
  ?mttr:float ->
  ?horizon:float ->
  ?repair:Plookup.Repair.config ->
  ?overload:overload ->
  ?cache:cache ->
  ?obs:Plookup_obs.Obs.t ->
  unit ->
  t
(** Raises [Invalid_argument] on an out-of-range knob, with a message
    naming the CLI flag that sets it. *)

val apply_faults : t -> Plookup.Cluster.t -> unit
(** Install the context's ambient fault model on a cluster (seeded from
    the cluster seed); no-op when the context is fault-free. *)

val scaled : t -> int -> int
(** [scaled ctx base] is [base * scale], at least 1. *)

val run_seed : t -> int -> int
(** A per-run seed derived from the master seed and a run index —
    stable across scales, so adding runs refines rather than reshuffles
    the sample. *)
