(** Extension: a production day under overload — the chaos drill.

    One simulated "day" per (strategy, client) cell: an open-loop client
    population whose arrival rate follows a diurnal sine swing plus a 6x
    flash crowd in the window [0.45, 0.60] of the day, with Zipf key
    popularity (each rank owning a fixed probe-order permutation, so
    popular keys skew the load), while servers churn, the repair layer
    heals, a steady update stream deletes and adds entries, and — during
    the crowd — two servers gray-degrade (service time multiplied by the
    overload context's [degrade] factor).

    Every server runs the {!Plookup_net.Net} capacity model (finite
    service rate, bounded inbox, load shedding).  Each strategy is
    measured under two disciplines sharing the identical day:

    - {e naive}: silent shedding, plain retrying client — clients
      discover overload by timeout;
    - {e tuned}: [Busy] fast-nack shedding plus the tail-tolerant
      client — deadline budget, hedged backups at the cell's own
      observed latency quantile, shared per-server circuit breaker,
      decorrelated retry jitter;
    - {e tuned+cache} (only when the context carries a {!Ctx.cache}
      config): the tuned client plus a shared {!Plookup.Client_cache} —
      TTL'd LRU keyed by rank with singleflight coalescing, optional
      stale-while-revalidate.  The cache config's [hotspot] knob blends
      a hotspot-adversarial access pattern
      ({!Plookup_workload.Hotspot}) into {e every} cell's key draw, so
      the comparison stays apples-to-apples.

    Reported per cell: lookup success rate (counting only live
    entries), whole-day p50 and flash-crowd p99/p999 latency (from the
    observability layer's log-scale histograms via
    {!Plookup_obs.Metrics.histogram_quantile}), per-server load skew
    (peak/mean messages received), shed and hedge rates as a percent of
    data-plane sends, and stale reads (entries returned after their
    delete time).  With the cached cell enabled, two more columns:
    data-plane messages per lookup (background cache refreshes
    included) and cache-served lookup rate (hits + stale serves +
    singleflight joins). *)

val id : string
val title : string

val run : Ctx.t -> Plookup_util.Table.t
(** n=10, h=100, budget 200 (Fixed gets x = t+5 instead), t=35, 50
    Zipf keys at alpha=1.1, RTT uniform in [5, 50] ms with a 100 ms
    client timeout, base arrival rate 1 lookup per time unit, one
    delete+add every 10 ({!Churn_drill}).  Churn is gentle by default:
    mttf=250, mttr=20, over a horizon of 600 time units times the
    context's scale.  The context's [mttf]/[mttr]/[horizon]/[repair]/
    [overload] fields override those defaults (overload:
    {!Ctx.default_overload}). *)

val events_per_lookup : Ctx.t -> (string * float) list
(** Per strategy, in [run]'s row order: the engine events the tuned
    cell's day fires, all of them (arrivals, lookups, messages, churn,
    repair, updates), per lookup.  The cell is the one [run] reports,
    so the count is deterministic at a fixed seed and scale. *)
