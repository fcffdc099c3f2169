(** RandomServer-x (Sections 3.3, 5.3): every server keeps its *own*
    uniformly random subset of at most [x] entries.

    On [place], the full entry list is broadcast and each server samples
    [x] entries independently.  Incremental adds are broadcast and each
    server applies the reservoir-sampling rule (Vitter): with probability
    [x / h] keep the newcomer and evict a random resident, so each
    server's subset stays uniform over an insert-only history.  Deletes
    are broadcast, decrement each server's system-size counter, and by
    default leave a hole (the cushion scheme); the alternative the paper
    weighs and rejects — actively fetching a replacement entry from other
    servers — is available as [replacement_on_delete] for the ablation
    experiment.

    A lookup probes operational servers in random order until [t]
    distinct entries are merged. *)

open Plookup_store

type t

val create : ?replacement_on_delete:bool -> Cluster.t -> x:int -> t
(** [x] must be positive.  [replacement_on_delete] defaults to [false]
    (the paper's cushion scheme). *)

val system_count : t -> server:int -> int
(** The server's local belief of how many entries the system holds — the
    [h] counter of Section 5.3. *)

val place : t -> Entry.t list -> unit
val add : t -> Entry.t -> unit
val delete : t -> Entry.t -> unit

module Strategy : Strategy_intf.S with type t = t
(** The packed form registered in {!Strategy_registry} as
    ["RandomServer"], with discipline [Random].  Its storage is [min x h * n]: the paper's Table-1
    formula [x*n], kept as its [storage_doc], assumes [x <= h]; the same
    holds for {!Strategy_replacing}. *)

module Strategy_replacing : Strategy_intf.S with type t = t
(** The Section-5.3 replacement-on-delete ablation, registered as
    ["RandomServerReplacing"]. *)
