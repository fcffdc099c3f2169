(** Latency-aware asynchronous lookup client.

    The synchronous client ({!Probe.lookup}) measures *how many* servers
    a lookup touches; this client walks the same probing disciplines (as
    orders from {!Probe.order_list}) over a network with per-hop latency
    and real request/response timing on the simulation engine, so
    experiments can measure *how long* lookups take — including the
    paper's Section-6.2 failure masking, where a client whose contact
    never answers simply retries elsewhere after a timeout.

    Waves generalize both probing styles: [wave = 1] is sequential
    probing (each contact waits for the previous answer), a larger wave
    fires that many requests concurrently — the Round-Robin parallel
    client of Section 3.5 sets the wave to its predicted contact count.

    The client is robust to a faulty network ({!Plookup_net.Net}
    fault injection): a contact whose request or reply is lost times
    out and is retried against the *same* server up to [retries] times
    with exponentially backed-off timeouts before the client moves on to
    the next server in its order, and fault-injected duplicate replies
    are suppressed (counted, not double-merged).

    {b Tail tolerance} (all opt-in, all draw-sequence-neutral when
    off): a per-lookup [deadline] budget, hedged backup requests
    ([hedge]), a shared per-server circuit {!Breaker}, and decorrelated
    retry [jitter].  A [Busy] load-shed nack from the
    {!Plookup_net.Net} capacity model abandons the contact immediately
    (no retry against a server that said go away) and counts as a
    breaker failure.

    The client holds no global clock or threads: it is a callback state
    machine driven entirely by {!Plookup_sim.Engine} events, like every
    other component of the simulator.

    {b One timer per lookup.}  A lookup's pending expiries — its
    [deadline], each contact's [hedge] and each attempt's timeout — are
    fields of the lookup, each stamped with its place in the engine's
    order ({!Plookup_sim.Engine.reserve}) when it is registered, before
    the request it guards goes out.  The lookup keeps at most one engine
    event armed, at the earliest of them, scheduled at that expiry's
    time and stamp ({!Plookup_sim.Engine.schedule_reserved}); it fires
    that expiry and re-arms.  The event is armed at the end of the
    launch and of every reply and timer event; arming earlier cancels
    the later event.  So every expiry fires where one event per expiry
    would have fired it, also among other events due at the same
    instant: after those scheduled before it was registered, before
    those scheduled after.  In particular an attempt's timeout that
    falls due at the exact instant its reply lands is handled before
    the reply.  Outcomes, draws and spans are those of a client with one
    event per expiry; only the count of events fired falls.

    When the lookup finishes its event is cancelled, and a cancelled
    event (or a late reply) reaches the lookup only through a cell that
    finishing clears: a finished lookup leaves no timer pending, and
    its hops still in flight (a wave's other requests, hedged backups,
    duplicates) reach only the cleared cell, so nothing queued keeps
    its state alive.  A run that drains the engine between lookups
    therefore ends at its last live event, so the next lookup starts
    there. *)

(** Per-server circuit breaker, shared by all lookups of one client
    population (create it once per experiment cell, pass it to every
    {!lookup}).  Closed until [threshold] consecutive failures
    (timeouts or [Busy] nacks) against a server, then {e open} — the
    server is skipped — for [cooldown] time units; after the cooldown
    the next contact is the half-open probe: success closes the
    circuit, failure re-opens it for another cooldown. *)
module Breaker : sig
  type t

  val create : ?threshold:int -> ?cooldown:float -> n:int -> unit -> t
  (** [threshold] (default 3) must be >= 1, [cooldown] (default 50.0)
      positive; [n] must cover every server id the breaker will see. *)

  val allow : t -> int -> now:float -> bool
  (** Whether a contact to this server may proceed at time [now]. *)

  val is_open : t -> int -> now:float -> bool

  val record : t -> int -> now:float -> ok:bool -> unit
  (** Feed one contact outcome ([ok = false] for a timeout or [Busy]). *)
end

type outcome = {
  result : Lookup_result.t;
      (** [servers_contacted] counts distinct servers sent at least one
          request — counted at send time, so timed-out contacts are
          included in the lookup-cost metric. *)
  started_at : float;
  completed_at : float;  (** engine time when the target was met or the order exhausted *)
  attempts : int;  (** total requests sent, including retries *)
  retries : int;  (** re-sends to a server whose previous attempt timed out *)
  timeouts : int;  (** attempts abandoned after no reply (every expiry counts) *)
  duplicates : int;  (** fault-injected duplicate replies suppressed *)
  busies : int;  (** [Busy] load-shed nacks received *)
  hedges : int;  (** backup contacts launched by the hedge timer *)
  breaker_skips : int;  (** candidate servers skipped because their circuit was open *)
  gave_up : bool;  (** the deadline budget expired before the target was met *)
}

val elapsed : outcome -> float

val lookup :
  Cluster.t ->
  Plookup_sim.Engine.t ->
  latency:(unit -> float) ->
  timeout:float ->
  ?retries:int ->
  ?deadline:float ->
  ?hedge:float ->
  ?breaker:Breaker.t ->
  ?jitter:Plookup_util.Rng.t ->
  ?cache:Client_cache.t * int ->
  order:int list ->
  ?wave:int ->
  t:int ->
  (outcome -> unit) ->
  unit
(** Schedule an asynchronous [partial_lookup t] probing the servers of
    [order] (duplicates ignored).  Each contact costs one request and
    one reply latency draw; an attempt that has not answered within its
    timeout is retried against the same server — with the timeout
    doubled — up to [retries] times (default 0, i.e. at most one
    attempt per server); once a contact's attempts are exhausted the
    next server in [order] is tried.  [wave] (default 1) contacts run
    concurrently at all times until the target is met.  The callback fires exactly once,
    with the merged (and target-truncated) result.  Requires positive
    [t], [timeout] and [wave], and non-negative [retries].

    Tail-tolerance options, all off by default — when off the client
    makes no extra draws, so existing seeded runs are byte-identical.
    On or off, a lookup arms one engine event at a time (see the
    module's "One timer per lookup"):

    - [deadline]: total time budget for the whole lookup.  When it
      expires the callback fires immediately with whatever has been
      merged ([gave_up] set), instead of waiting out every retry.
    - [hedge]: per-contact hedge delay, typically a high latency
      quantile (p95/p99) of recent lookups.  A contact still unresolved
      after this long triggers a {e backup} contact to the next
      candidate server without abandoning the first; the first reply
      wins and the loser is ignored like any late datagram.  Backup
      contacts count in [hedges] and in [servers_contacted].
    - [breaker]: a shared {!Breaker.t}; candidate servers whose circuit
      is open are skipped (counted in [breaker_skips]).  Retries to an
      already-contacted server do not re-consult the breaker.
    - [jitter]: an RNG for decorrelated retry jitter — each retry's
      timeout is drawn uniformly from [[timeout, 3 * previous]] instead
      of the deterministic doubling, so synchronized clients spread
      their retries instead of storming in lockstep.
    - [cache]: a shared {!Client_cache.t} and this lookup's cache key.
      The cache is consulted at launch time: a fresh hit (or a stale
      one inside the cache's stale-while-revalidate window) answers the
      callback immediately with an outcome of zero [attempts] and zero
      [servers_contacted]; a lookup arriving while another lookup for
      the same key is probing {e joins} it (singleflight) and receives
      that probe's merged result; only a true miss probes the servers,
      and its result refreshes the cache for everyone.  Probes that do
      run draw and schedule exactly as without the cache. *)
