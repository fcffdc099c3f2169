(** Hash-y (Sections 3.5, 5.5): entry [v] is stored at the servers
    [f_1(v) .. f_y(v)] given by [y] independent hash functions.

    Placement needs no coordination and — unlike Round-Robin — updates
    touch only the [<= y] servers the hash functions name (the
    {!Owner_placement} protocol).  The trade-offs are uneven server
    loads (some lookups contact an extra server) and the inherent
    placement bias that caps its fairness (Fig. 9).

    The hash-function family is derived deterministically from the
    cluster seed, so placements are replayable. *)

val create : Cluster.t -> y:int -> Owner_placement.t
(** Targets [f_1(v) .. f_y(v)], collisions included: {!Owner_placement.place}
    sends a message per hash function, and the owners are the distinct
    servers among them.  [y] must be at least 1. *)

module Strategy : Strategy_intf.S with type t = Owner_placement.t
(** The packed form registered in {!Strategy_registry}. *)
