(** MultiProbe-YxK: multi-probe consistent hashing — one ring point per
    server, no virtual nodes.

    A single-point ring suffers O(log n) peak/mean load skew because arc
    lengths vary wildly.  Virtual nodes fix that with n*log n ring
    points; multi-probe hashing fixes it from the key side instead: an
    entry is hashed [k] independent times, each probe finds its
    clockwise successor server, and the probe landing closest wins.  A
    server with a long arc only captures keys all [k] probes agree on,
    so skew falls like 1 + O(1/k) with {e no} extra ring memory — the
    right trade at tens of thousands of servers.  Replication is
    Chord-style: the entry lives on [min y n] consecutive distinct
    successors starting at the winning server.

    Registered in {!Strategy_registry} as ["MultiProbe"] (keys
    [multiprobe], [mpch]), parameters [[y; k]] spelled
    [multiprobe-YxK]. *)

open Plookup_store

type t

val create : Cluster.t -> y:int -> k:int -> t
(** Bind the strategy to the cluster (installing its handler).  [y] is
    clamped to [n].  Raises [Invalid_argument] when [y < 1] or
    [k < 1]. *)

val y : t -> int

val servers_of : t -> Entry.t -> int list
(** The entry's [min y n] owners: the winning probe's successor and the
    following ring successors, in ring order. *)

val place : ?budget:int -> t -> Entry.t list -> unit
(** Round-major placement: every entry's first owner gets a copy before
    any entry's second, so a [budget] cut keeps coverage maximal. *)

val add : t -> Entry.t -> unit
val delete : t -> Entry.t -> unit
val partial_lookup : ?reachable:(int -> bool) -> t -> int -> Lookup_result.t

val check_invariants : t -> placed:Entry.t list -> (unit, string) result
(** Every server holds exactly the entries whose owner list names it,
    given [placed] is the current live set. *)

module Strategy : Strategy_intf.S with type t = t
