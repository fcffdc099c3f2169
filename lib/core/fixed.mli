(** Fixed-x (Sections 3.2, 5.2): every server stores the *same* fixed
    subset of at most [x] entries.

    On [place], the chosen server broadcasts only the first [x] entries.
    Updates use *selective broadcast*: an [add] is broadcast only while
    servers hold fewer than [x] entries; a [delete] is broadcast only if
    the contacted server actually stores the entry — this is what makes
    Fixed-x cheap under high update rates (Fig. 14).

    Deletes can leave servers below [x] with no replacement, so Section
    5.2 prescribes choosing [x = t + b] with a cushion [b] (Fig. 12);
    the cushion is purely a sizing decision, not extra mechanism. *)

open Plookup_store

type t

val create : Cluster.t -> x:int -> t
(** [x] must be positive. *)

val place : t -> Entry.t list -> unit
val add : t -> Entry.t -> unit
val delete : t -> Entry.t -> unit

module Strategy : Strategy_intf.S with type t = t
(** The packed form registered in {!Strategy_registry}.  Its discipline
    is [One_server]: all servers are identical, so contacting more can
    never help.  Its storage is [min x h * n]: the paper's Table-1
    formula [x*n], kept as its [storage_doc], assumes [x <= h]. *)
