(** The server fleet a strategy runs on: [n] servers, each with a local
    {!Plookup_store.Server_store}, wired together by a message-counting
    {!Plookup_net.Net}, plus the deterministic randomness source every
    randomized decision draws from. *)

open Plookup_store
open Plookup_util

type t

val create : ?seed:int -> ?obs:Plookup_obs.Obs.t -> n:int -> unit -> t
(** [create ~n ()] builds [n] empty servers.  [seed] (default 0) fixes
    the generator driving every random choice made on this cluster and
    the Hash-y hash-function family.

    [obs] (default: a fresh private handle) is where this cluster
    instruments itself: the network's counters live on its metrics
    registry, message deliveries are classified per {!Msg} plane, and —
    when the handle's trace is enabled — every transmission emits
    Send/Recv/Drop spans. *)

val n : t -> int
val seed : t -> int
val rng : t -> Rng.t

val answers : t -> Answer_set.t
(** The cluster's one answer set, made on first use so that a cluster
    that never merges answers holds none.  The synchronous client
    ({!Probe.lookup}) resets and reuses it for every lookup; like {!rng}
    it serves one synchronous lookup at a time.  Every
    {!Async_client} lookup keeps only an {!Answer_set.Buffer.t} of its
    entries and de-duplicates each merge through this set's id table,
    re-seating its buffer when another lookup used the table since. *)

val net : t -> (Msg.t, Msg.reply) Plookup_net.Net.t
val obs : t -> Plookup_obs.Obs.t
(** The observability handle this cluster reports into (the one given at
    {!create}, or its private one). *)

val store : t -> int -> Server_store.t

val pick : t -> int -> int -> Entry.t list
(** [pick t i k] is server [i]'s answer to a lookup for [k] entries:
    {!Server_store.random_pick} on its store, drawing from {!rng} over
    the one index buffer the cluster lends to all its stores. *)

(** {1 Failures} *)

val fail : t -> int -> unit
val recover : t -> int -> unit
val is_up : t -> int -> bool
val up_servers : t -> int list

val up_count : t -> int
(** Number of up servers, O(1). *)

val random_up_server : t -> int option
(** Uniform among up servers; [None] if all are down — the paper's
    "a client selects a server at random... if the server has failed,
    keep on selecting another". *)

val next_up_from : t -> int -> int option
(** [next_up_from t i] is the first up server strictly after [i] in ring
    order ([i+1, i+2, ... mod n]), never [i] itself; [None] when no
    other server is up.  The repair subsystem's deterministic buddy and
    sync-peer choice. *)

(** {1 Fault injection}

    Thin pass-throughs to {!Plookup_net.Net}'s deterministic
    fault-injection layer, so experiments configure loss, duplication
    and jitter without reaching for the raw network. *)

val set_faults :
  t -> ?seed:int -> ?loss:float -> ?duplication:float -> ?jitter:float -> unit -> unit
(** [seed] defaults to the cluster seed, keeping the fault schedule a
    function of the cluster's one master seed. *)

(** {2 Server capacity and gray failure}

    Pass-throughs to the {!Plookup_net.Net} overload model (queueing +
    service delay on engine-routed deliveries, bounded inboxes, load
    shedding, gray degradation).  See the Net documentation for the
    full semantics. *)

val set_capacity : t -> service_rate:float -> queue_limit:int -> ?nack:bool -> unit -> unit
(** Finite servers: [service_rate] messages per time unit, at most
    [queue_limit] queued requests.  [nack] (default [false]) makes a
    full queue answer with the fast {!Msg.reply} [Busy] nack instead of
    dropping silently. *)

val set_degraded : t -> int -> factor:float -> unit
(** Gray-fail one server: its service time is multiplied by [factor]
    ([>= 1]; [1.0] restores health).  Requires {!set_capacity} first. *)

val messages_shed : t -> int
(** Requests rejected by full inbox queues (dropped or nacked). *)

(** {1 Inspection (used by the metrics layer)} *)

val total_stored : t -> int
(** Combined number of entries over all servers — the paper's storage
    cost (failed servers still hold their entries and are counted; the
    storage was spent). *)

val coverage : t -> Entry.Set.t
(** Distinct entries retrievable when contacting every *up* server. *)

val snapshot_bitsets : t -> capacity:int -> Bitset.t array
(** Per-server entry-id bitsets, for the fault-tolerance heuristic. *)

val pp : Format.formatter -> t -> unit
