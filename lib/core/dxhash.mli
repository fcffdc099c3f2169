(** DxHash-y: consistent hashing on a pseudo-random probe sequence.

    The slot space is the smallest power of two covering the servers;
    slots [\[0, n)] are active (slot s is server s), the rest inactive.
    An entry lives on the first [min y n] {e distinct} active slots its
    deterministic probe sequence hits.  Because the slot space is at
    most twice the server count, each probe lands on an active slot with
    probability at least one half, so resolving an entry's owners is
    O(1) expected — no sorted ring and no binary search, which is what
    lets placement scale to tens of thousands of servers.  Shrinking the
    active prefix by one slot (a membership change) only remaps the
    entries whose probe walk picked it: an expected [y/n] of them, the
    same churn bound as ring-based consistent hashing.

    Runs the {!Owner_placement} protocol.  Registered in
    {!Strategy_registry} as ["DxHash"] (keys [dxhash], [dx]). *)

open Plookup_store

val create : Cluster.t -> y:int -> Owner_placement.t
(** The owners of an entry are [owners_for cluster ~y ~active:n].
    Raises [Invalid_argument] when [y < 1]. *)

val slot_count : int -> int
(** The slot-space size for [n] servers: the smallest power of two
    [>= n], so [n <= slot_count n < 2n]. *)

val owners_for : Cluster.t -> y:int -> active:int -> Entry.t -> int list
(** The entry's [min y active] owners, in probe-sequence order, if only
    the first [active] of the cluster's slots were active — the
    placement after shrinking the fleet to [active] servers, computed
    without building that smaller cluster.  The basis of the
    churn-stability (remap fraction) check.  Raises [Invalid_argument]
    unless [0 <= active <= n]. *)

module Strategy : Strategy_intf.S with type t = Owner_placement.t
