(** DxHash-y: consistent hashing on a pseudo-random probe sequence.

    The slot space is the smallest power of two covering the servers;
    slots [\[0, n)] are active (a bitmap, one slot per server), the rest
    inactive.  An entry lives on the first [min y n] {e distinct} active
    slots its deterministic probe sequence hits.  Because the slot space
    is at most twice the server count, each probe lands on an active
    slot with probability at least one half, so resolving an entry's
    owners is O(1) expected — no sorted ring and no binary search, which
    is what lets placement scale to tens of thousands of servers.
    Flipping one slot (a membership change) only remaps the entries
    whose probe walk crosses it: an expected [y/n] of them, the same
    churn bound as ring-based consistent hashing.

    Registered in {!Strategy_registry} as ["DxHash"] (keys [dxhash],
    [dx]). *)

open Plookup_store

type t

val create : Cluster.t -> y:int -> t
(** Bind the strategy to the cluster (installing its handler).  [y] is
    clamped to [n].  Raises [Invalid_argument] when [y < 1]. *)

val y : t -> int

val slots : t -> int
(** The power-of-two slot-space size, [n <= slots < 2n]. *)

val servers_of : t -> Entry.t -> int list
(** The entry's [min y n] owners, in probe-sequence order. *)

val owners_for : t -> active:int -> Entry.t -> int list
(** The owners if only the first [active] slots were active — the
    placement after shrinking the fleet to [active] servers, computed
    without building that smaller cluster.  The basis of the
    churn-stability (remap fraction) check.  Raises [Invalid_argument]
    unless [0 <= active <= n]. *)

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
