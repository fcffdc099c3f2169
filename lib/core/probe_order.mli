(** Lazy probe orders: the sequence of servers a lookup client contacts,
    generated only as far as the lookup walks it.

    A partial lookup usually stops after a handful of contacts, so an
    order is a cursor rather than a list: building and shuffling all n
    ids up front would cost O(n) per lookup, while a cursor costs O(1)
    (stride) or one RNG draw plus one small-table operation (random)
    per server actually visited.  Every cursor owns its state — none
    shares scratch memory — so lookups on different domains never
    interfere. *)

type t

val random : Plookup_util.Rng.t -> n:int -> t
(** A uniformly random permutation of [0, n), drawn lazily from [rng]
    by a forward Fisher–Yates that remembers only the displaced slots
    (a swap map).  Each step draws once, uniform over the ids not yet
    yielded.  [n] must be non-negative. *)

val random_up : ?keep:(int -> bool) -> Cluster.t -> t
(** A uniformly random order over the cluster's up servers for which
    [keep] holds (default: all), drawing from {!Cluster.rng}.  It walks
    {!random} over the up-server ranks [0, up_count) and resolves each
    rank with {!Plookup_net.Net.kth_up} (O(log n)); ids failing [keep]
    are skipped, which leaves the order uniform over the kept servers.
    The up set must not change while the cursor is in use — true of the
    synchronous probes, whose deliveries never fail a server. *)

val stride : n:int -> start:int -> step:int -> t
(** [start], [start + step], [start + 2*step], ... (mod n) until the
    cycle closes after [n / gcd step n] ids, then every remaining id in
    ascending order.  [start] and [step] may be any integers (both are
    normalized mod n); [n] must be positive.  Draws nothing. *)

val of_list : int list -> t
(** The given ids in order, later duplicates dropped. *)

val next : t -> int option
(** The next server of the order, [None] once it is exhausted. *)
