(** The traditional hashing-based lookup service (Figure 1, center) —
    the Chord/CAN-style baseline the paper argues against.

    Each *key* is hashed to a single home server, which stores that
    key's entire entry set; every lookup and every update for the key
    goes to the home server.  This is partitioning of the key space, not
    of a key's entries — so a popular key concentrates all of its load
    on one machine (the hot-spot problem the paper's conclusion calls
    out), and the key is entirely unavailable while its home server is
    down.

    Shares the {!Plookup_net.Net} cost model, so its message counts and
    per-server loads are directly comparable to the partial-lookup
    strategies'. *)

open Plookup_store

type t

val create : ?seed:int -> n:int -> unit -> t

val home : t -> string -> int
(** The key's home server (deterministic given the seed). *)

val place : t -> key:string -> Entry.t list -> unit
val add : t -> key:string -> Entry.t -> unit
val delete : t -> key:string -> Entry.t -> unit

val lookup : t -> key:string -> int -> Lookup_result.t
(** Contact the home server and take [t] random entries of the key's
    set.  If the home server is down the lookup fails outright — there
    is nowhere else to go. *)

val entries_of : t -> key:string -> Entry.t list
(** Current entry set of a key (empty for unknown keys). *)

(** {1 Failure injection and accounting} *)

val fail : t -> int -> unit
val recover : t -> int -> unit

val load : t -> int array
(** Messages received per server so far — the hot-spot measurement. *)

val reset_load : t -> unit
val total_stored : t -> int
