(** Extension experiment: lookup cost and coverage as a function of
    message-loss rate.

    Sections 5–6 argue partial lookups stay cheap and available under
    failures; this sweep stresses the stronger fault model — per-link
    loss (plus any ambient duplication/jitter from the context) — and
    measures how the retrying {!Plookup.Async_client} pays for it: for
    loss rates 0/5/10/20 % it reports the satisfaction rate, contacts,
    attempts, retries, timeouts and latency per lookup for Fixed-x and
    RoundRobin-y. *)

val id : string
val title : string

val run : Ctx.t -> Plookup_util.Table.t
(** n=10, h=100, budget 200, t=35, one-hop latency uniform in
    [2.5, 25] ms, contact timeout 60 ms, 2 retries, 300 lookups per cell
    times the context's scale. *)
