(** Extension: lookup latency and Round-Robin's predictability advantage,
    measured on a simulated network.

    Section 3.5 notes that "a Round-y client can tell, in advance, how
    many servers it needs to contact for a lookup, a Hash-y client
    cannot".  Knowing the count up front lets a Round-y client issue the
    whole probe wave concurrently — one round trip — while the other
    strategies probe sequentially because each next contact depends on
    what the previous ones returned.

    Lookups run through {!Plookup.Async_client} on the simulation
    engine: every contact pays a random per-hop latency each way, dead
    servers never answer, and abandoned contacts cost a timeout — so the
    failure rows also demonstrate the Section-6.2 "retry after a time"
    masking, and the parallel wave's redundant in-flight contacts mask a
    dead server with no timeout stall at all. *)

val id : string
val title : string

val run : Ctx.t -> Plookup_util.Table.t
(** n=10, h=100, budget 200, t=35, round-trip times uniform in
    [5, 50] ms, contact timeout 100 ms (twice the longest round trip),
    2000 lookups per row times the context's scale. *)
