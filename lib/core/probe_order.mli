(** Lazy probe orders: the sequence of servers a lookup client contacts,
    generated only as far as the lookup walks it.

    A partial lookup usually stops after a handful of contacts, so an
    order is a cursor rather than a list: building and shuffling all n
    ids up front would cost O(n) per lookup, while a cursor costs O(1)
    (stride) or one RNG draw plus two probes of an int-keyed swap
    table (random_up) per server actually visited.  Every cursor owns
    its state — none shares scratch memory — so lookups on different
    domains never interfere. *)

type t

val random_up : ?keep:(int -> bool) -> Cluster.t -> t
(** A uniformly random order over the cluster's up servers for which
    [keep] holds (default: all), drawing from {!Cluster.rng}.  It runs
    a forward Fisher–Yates over the up-server ranks [0, up_count) that
    remembers only the displaced slots, in an open-addressing table of
    ints that starts at 8 cells and doubles when three quarters full:
    each step draws once, uniform over the ranks not yet yielded, and
    resolves the rank with {!Plookup_net.Net.kth_up}.  Ids failing
    [keep] are skipped, which leaves the order uniform over the kept
    servers.  The up set must not change while the cursor is in use —
    true of the synchronous probes, whose deliveries never fail a
    server. *)

val stride : n:int -> start:int -> step:int -> t
(** [start], [start + step], [start + 2*step], ... (mod n) until the
    cycle closes after [n / gcd step n] ids, then every remaining id in
    ascending order.  [start] and [step] may be any integers (both are
    normalized mod n); [n] must be positive.  Draws nothing. *)

val of_list : int list -> t
(** The given ids in order, later duplicates dropped.  A list whose ids
    are already distinct and each in [0, 62] is shared, not copied:
    checking it is one pass over an int bitmask and allocates nothing,
    so the cursor is the only allocation. *)

val next : t -> int option
(** The next server of the order, [None] once it is exhausted. *)

val to_list : t -> int list
(** The rest of the order, drained into a list — the explicit order
    {!Async_client.lookup} takes. *)
