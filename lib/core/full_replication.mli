(** Full Replication (Section 3.1, 5.1): every server stores every entry.

    [place], [add] and [delete] all go client → random server → broadcast;
    a lookup contacts exactly one server.  The baseline every partial
    scheme is compared against: ideal lookup cost, coverage, fault
    tolerance and fairness, at the price of [h * n] storage and a full
    broadcast per update. *)

open Plookup_store

type t

val create : Cluster.t -> t
(** Installs this strategy's message handler on the cluster's network.
    One strategy instance per cluster. *)

val place : t -> Entry.t list -> unit
val add : t -> Entry.t -> unit
val delete : t -> Entry.t -> unit

module Strategy : Strategy_intf.S with type t = t
(** The packed form registered in {!Strategy_registry}, with discipline
    [One_server]. *)
