(** Chord-y: consistent-hashing ring placement with y successors.

    Servers and entries hash onto one ring; an entry lives on the y
    distinct servers that succeed its ring point clockwise (Chord's
    successor-list replication).  Where Hash-y draws y independent hash
    functions — so collisions leave some entries with fewer copies —
    Chord-y always yields exactly [min y n] copies, and a membership
    change only moves entries between ring neighbours.

    This module is also the proof of the pluggable-strategy extension
    point: it registers itself in {!Strategy_registry} and is reachable
    from {!Service}, the CLI and the experiments without any of them
    naming it. *)

open Plookup_store

type t

val create : Cluster.t -> y:int -> t
(** Bind the strategy to the cluster (installing its handler).  [y] is
    clamped to [n].  Raises [Invalid_argument] when [y < 1]. *)

val y : t -> int

val servers_of : t -> Entry.t -> int list
(** The entry's [min y n] successor servers, in ring order. *)

val place : ?budget:int -> t -> Entry.t list -> unit
(** Round-major placement: every entry's first successor gets a copy
    before any entry's second, so a [budget] cut keeps coverage
    maximal. *)

val add : t -> Entry.t -> unit
val delete : t -> Entry.t -> unit
val partial_lookup : ?reachable:(int -> bool) -> t -> int -> Lookup_result.t

val check_invariants : t -> placed:Entry.t list -> (unit, string) result
(** Every server holds exactly the entries whose successor list names
    it, given [placed] is the current live set. *)

module Strategy : Strategy_intf.S with type t = t
