(** Round-Robin-y (Sections 3.4, 5.4): entry [i] is stored on the [y]
    consecutive servers [(i mod n) .. (i+y-1 mod n)], so every entry is
    on some server, servers are balanced to within [y] entries, and a
    client can harvest entries deterministically by striding [y] servers
    at a time.

    Dynamics follow the paper's centralized scheme: server 1 (index 0
    here) is the coordinator holding the [head] and [tail] counters and
    the round-robin sequence.  An [add] appends at [tail]; a [delete] in
    the middle of the sequence broadcasts to locate the victim and then
    *plugs the hole* by migrating the entry at [head] into the vacated
    position (Figs. 10–11).  This preserves the invariant that live
    positions form the contiguous window [head, tail) — the price is a
    coordinator bottleneck and broadcast-plus-migration per delete, which
    is exactly the weakness Section 6.3 discusses.  Each coordinator
    replica holds the window as an array, position [p] in slot
    [p mod length], whose power-of-two length doubles when an add finds
    it full, beside an id-to-position table. *)

open Plookup_store

type t

val create : ?coordinators:int -> Cluster.t -> y:int -> t
(** [y] must satisfy 1 <= y; values above [n] are clamped to [n]
    (storing more than one copy per server is meaningless).

    [coordinators] (default 1, must be in [1, n]) replicates the
    head/tail counters and the round-robin sequence on servers
    [0 .. coordinators-1] — the generalization of the paper's footnote 1
    ("the centralized head and tail scheme can be generalized to one
    where several servers store copies to improve reliability").
    Clients address the lowest-indexed operational replica; each update
    is mirrored to the standbys with one point-to-point Sync message
    apiece, and a recovering replica receives a state transfer (one
    [Sync_state]) from another operational one.  With every coordinator
    down, updates are dropped.  Recovery touches no store: a server that
    was down keeps what it held until the {!Repair} layer reconciles
    it. *)

val y : t -> int

val coordinators : t -> int

val acting_coordinator : t -> int option
(** The replica currently fielding updates; [None] when all coordinator
    servers are down. *)

val head : t -> int
val tail : t -> int
val live_count : t -> int
(** [tail - head]: entries currently managed. *)

val position_of : t -> Entry.t -> int option
(** The entry's current slot in the round-robin sequence, if present. *)

val entry_at : t -> int -> Entry.t option

val place : ?budget:int -> t -> Entry.t list -> unit
(** Distribute copies round-major (first one copy of every entry, then
    the second copy of every entry, ...).  [budget] caps the total number
    of stored copies — the paper's "when there is inadequate storage
    space, keep a subset" assumption used in the coverage study (Fig. 6),
    through {!Strategy_common.place_round_major}.  A truncated placement
    does not support subsequent updates. *)

val add : t -> Entry.t -> unit
val delete : t -> Entry.t -> unit

val check_invariants : t -> (unit, string) result
(** Verify the round-robin placement invariant: each live position's
    entry is stored at exactly its [y] consecutive servers and nothing
    else is stored anywhere ({!Strategy_common.check_placement}), and
    every operational replica's window matches the acting one's.  For
    tests. *)

module Strategy : Strategy_intf.S with type t = t
(** The packed form registered in {!Strategy_registry} as
    ["RoundRobin"], with discipline [Stride y]. *)

module Strategy_replicated : Strategy_intf.S with type t = t
(** The footnote-1 coordinator-replication ablation, registered as
    ["RoundRobinHA"] with parameters [[y; k]]. *)
