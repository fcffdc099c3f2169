(** Hotspot-adversarial access pattern (ROADMAP open item).

    The production-day experiment samples its key ranks from an
    independent Zipf law, which spreads even the popular keys' probe
    traffic across each key's own probe order.  An adversary does
    better: aim the crowd at the {e one} key whose probe order is worst
    placed for the strategy under test — the key whose order walks the
    longest prefix of thinly-stocked servers before accumulating the
    lookup target.  That concentrates misses, retries and queueing on
    exactly the servers least able to absorb them, and it is the
    hardest case for a client-side cache: one key means maximal
    contention on a single cache entry, so hit rate and singleflight
    coalescing — not capacity — decide whether the cache helps.

    The generator is a {e blend}: with probability [focus] it returns
    the precomputed worst key, otherwise it defers to the caller's
    background law (typically the day's own Zipf draw), so a sweep can
    turn one knob from the paper's independent workload ([focus = 0])
    to a single-key flash mob ([focus = 1]). *)

val worst : ?lo:int -> orders:int list array -> held:int array -> t:int -> unit -> int
(** The index in [\[lo, Array.length orders)] (default [lo = 0]) of the
    costliest order, smallest index on ties — the adversary's target
    key.  An order's cost is how many servers a greedy client walking
    it contacts before the entries held there ([held.(s)] per server)
    reach [t]; an order that never reaches [t] costs its length plus
    one.  Raises [Invalid_argument] when the range is empty. *)

val draw :
  Plookup_util.Rng.t -> focus:float -> worst:int -> rest:(Plookup_util.Rng.t -> int) -> int
(** One key draw of the blended law: [worst] with probability [focus],
    else [rest rng] (the background popularity law).  [focus] must be
    in [\[0, 1\]].  Always consumes exactly one uniform draw before any
    [rest] draw, so the blend is seed-stable as [focus] sweeps. *)
