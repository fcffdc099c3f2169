(** Client-side read cache: a bounded, TTL'd LRU over lookup results
    plus singleflight coalescing of concurrent probes for the same key.

    The flash-crowd population of the production-day experiment sends
    many near-simultaneous lookups for the same few Zipf-popular keys;
    every one of them fans out its own probe sequence.  A read cache
    turns the repeats into O(1) local hits at a bounded staleness cost
    (an entry deleted on the servers may be served from cache for up to
    [ttl] time units), and {e singleflight} turns the remaining
    simultaneous misses into one shared probe: the first lookup for a
    key becomes the {e leader} and actually contacts servers; lookups
    arriving while that probe is in flight become {e waiters} and all
    receive the leader's result when it lands.

    The cache is a plain client-local data structure driven by the
    caller's clock ({!Plookup_sim.Engine} time in the simulator): it
    owns no engine events, threads or draws, so attaching one to
    {!Async_client.lookup} changes nothing about the random sequence of
    the probes that do run.

    {2 Freshness}

    An entry inserted at time [now] is {e fresh} until [now + ttl] and —
    when [swr > 0] — {e stale-but-servable} until [now + ttl + swr]
    (stale-while-revalidate: the stale result is served immediately and
    the serving lookup refreshes the entry in the background).  Beyond
    that the entry is dead and the lookup is a miss.  A completed probe
    always {e replaces} whatever the cache held for its key, so a client
    that observes a newer value refreshes its cache on the spot;
    {!invalidate} drops a key explicitly.

    A failed probe (short of its target, or one that gave up on its
    deadline) is not cached.

    {2 Instrumentation}

    When built with [?obs], the cache mirrors its counters into the
    metrics registry as [client.cache.hits], [client.cache.misses],
    [client.cache.stale_served], [client.cache.coalesced] and
    [client.cache.evictions], and emits a [Mark] span per served hit
    when tracing is enabled. *)

type t

type verdict =
  | Hit of Lookup_result.t
      (** Fresh entry: serve it, contact nothing. *)
  | Stale of Lookup_result.t
      (** Expired but inside the [swr] window, no refresh in flight yet:
          serve it now {e and} probe in the background, completing with
          {!complete} [~refresh:true]. *)
  | Stale_wait of Lookup_result.t
      (** Expired but inside the [swr] window, refresh already in
          flight: serve it now, contact nothing. *)
  | Join
      (** Miss, but a probe for this key is already in flight: the
          [waiter] callback was enqueued and fires with the leader's
          result when it completes.  Contact nothing. *)
  | Lead
      (** Miss: probe for real and call {!complete} [~refresh:false]
          with the outcome (exactly once, even on failure — waiters are
          parked until it). *)

val create :
  ?obs:Plookup_obs.Obs.t ->
  ?ttl:float ->
  ?swr:float ->
  capacity:int ->
  unit ->
  t
(** An empty cache holding at most [capacity] entries, least recently
    used evicted first.  [ttl] defaults to 100.0 time units; [swr]
    defaults to 0 (no stale window).  Raises [Invalid_argument] on
    [capacity < 1], [ttl <= 0], or a negative [swr]. *)

val lookup :
  t -> key:int -> now:float -> waiter:(Lookup_result.t -> now:float -> unit) -> verdict
(** Consult the cache for [key] at time [now].  [waiter] is retained
    only on {!Join} (it must be safe to call at any later [now]); every
    other verdict ignores it.  {!Lead} and {!Stale} make the caller
    responsible for a matching {!complete}. *)

val complete : t -> key:int -> now:float -> ok:bool -> attempts:int -> Lookup_result.t -> unit
(** The leader's (or background refresher's) probe finished.  [ok]
    results are cached fresh-from-[now]; failed ones are not cached,
    and the previous entry (if any) is left in place.  Either way every
    parked waiter for [key] receives this result, in arrival order.
    [attempts] is the probe's request count, accumulated into
    {!stats}.[refresh_sends] for background refreshes so message
    accounting can see traffic that reaches no caller. *)

val invalidate : t -> key:int -> unit
(** Drop [key]'s cached entry (waiters of an in-flight probe are kept —
    they get the in-flight result). *)

val cardinal : t -> int
(** Entries currently cached — never exceeds [capacity]. *)

val capacity : t -> int

type stats = {
  hits : int;  (** lookups served from a fresh entry *)
  misses : int;  (** lookups that had to probe ({!Lead}) or wait ({!Join}) *)
  stale_served : int;  (** lookups served a stale result inside the [swr] window *)
  coalesced : int;  (** lookups that joined another lookup's in-flight probe *)
  evictions : int;  (** entries dropped by the LRU capacity bound *)
  refreshes : int;  (** background refresh probes launched ({!Stale}) *)
  refresh_sends : int;  (** requests those refreshes sent (their [attempts] sum) *)
}

val stats : t -> stats
