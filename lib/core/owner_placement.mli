(** The protocol shared by the strategies whose owners are a function of
    the entry alone: Hash-y ({!Hash_scheme}), Chord-y and MultiProbe-YxK
    ({!Ring}) and DxHash-y ({!Dxhash}).

    An entry lives on the servers its owner function names.  An add or
    delete goes to one random up server, which sends a point store or
    remove to each owner: one client message plus one message per
    owner, no broadcast, no coordinator.  Lookups probe in random order,
    like RandomServer-x.  The strategies differ only in their owner
    function; everything else exists once, here. *)

open Plookup_store

type t

val create : Cluster.t -> targets:(Entry.t -> int list) -> t
(** Bind the protocol to the cluster (installing its handler).
    [targets e] lists the servers that get [e]'s copies, in copy order.
    It must be deterministic and draw nothing from the cluster's RNG.
    Only Hash-y's list repeats a server, when two of its hash functions
    collide. *)

val servers_of : t -> Entry.t -> int list
(** The distinct owners of an entry, in first-occurrence order ("if two
    hash functions assign an entry to the same server, the entry is
    stored only once"). *)

val place : ?budget:int -> t -> Entry.t list -> unit
(** {!Strategy_common.place_round_major} with each entry's [targets] as
    its owners: [Msg.place] to one random up server, then each entry's
    first target gets a copy before any entry's second, so a [budget]
    cut keeps coverage maximal (Fig. 6).  Every target costs one message
    and one unit of [budget], a repeated one included. *)

val add : t -> Entry.t -> unit
val delete : t -> Entry.t -> unit

val check_invariants : t -> placed:Entry.t list -> (unit, string) result
(** {!Strategy_common.check_placement} with each entry of [placed] at
    its [servers_of]: after a non-truncated place (and any adds and
    deletes folded into [placed]), every entry must live at exactly its
    owners and nowhere else.  For tests. *)

(** What a strategy adds to the protocol: its name, its Table-1 formula
    and its constructor. *)
module type PLACEMENT = sig
  val meta : Strategy_intf.meta
  val analytic_storage : n:int -> h:int -> params:int list -> float
  val params_for_budget : n:int -> h:int -> total:int -> params:int list -> int list

  val create : Cluster.t -> params:int list -> t
  (** Raises [Invalid_argument] on bad [params]. *)
end

module Strategy (P : PLACEMENT) : Strategy_intf.S with type t = t
(** The packed form to register in {!Strategy_registry}: updates need
    one up server, the discipline is [Random], and the repair plan is
    [Owner_function servers_of]. *)
