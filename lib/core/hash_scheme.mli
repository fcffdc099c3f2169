(** Hash-y (Sections 3.5, 5.5): entry [v] is stored at the servers
    [f_1(v) .. f_y(v)] given by [y] independent hash functions.

    Placement needs no coordination and — unlike Round-Robin — updates
    touch only the [<= y] servers the hash functions name: an add or
    delete costs one client message plus at most [y] point-to-point
    messages, no broadcast, no migration, no dedicated counters.  The
    trade-offs are uneven server loads (some lookups contact an extra
    server) and the inherent placement bias that caps its fairness
    (Fig. 9).

    The hash-function family is derived deterministically from the
    cluster seed, so placements are replayable. *)

open Plookup_store

type t

val create : Cluster.t -> y:int -> t
(** [y] must be at least 1. *)

val servers_of : t -> Entry.t -> int list
(** The distinct servers [f_1(v) .. f_y(v)] (collisions deduplicated —
    "if two hash functions assign an entry to the same server, the entry
    is stored only once"). *)

val place : ?budget:int -> t -> Entry.t list -> unit
(** [budget] caps total stored copies (round-major: all of f_1 first),
    for the Fig. 6 coverage study. *)

val add : t -> Entry.t -> unit
val delete : t -> Entry.t -> unit
val partial_lookup : ?reachable:(int -> bool) -> t -> int -> Lookup_result.t
(** Random-order probing, like RandomServer-x. *)

val check_invariants : t -> placed:Entry.t list -> (unit, string) result
(** After a non-truncated place (and any adds/deletes folded into
    [placed]), every entry must live at exactly [servers_of] and nowhere
    else.  For tests. *)

module Strategy : Strategy_intf.S with type t = t
(** The packed form registered in {!Strategy_registry}. *)
