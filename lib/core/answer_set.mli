(** The answers a lookup client has merged so far: the distinct entries
    returned by the servers it contacted, and the uniform truncation to
    the lookup's target.  Every lookup that can hear from more than one
    server merges and truncates through this one module: {!Probe}'s
    [Random] and [Stride] walks and every {!Async_client} lookup.  A
    synchronous [One_server] lookup returns its one server's answer as
    it stands: distinct and at most [target] long, it is what {!pick}
    would return.

    The set is an open-addressing table of entry ids beside a buffer of
    the entries in arrival order.  {!reset} empties it in O(1) by
    bumping a generation stamp, so a set can serve one lookup after
    another without allocating. *)

type t

val create : ?expect:int -> unit -> t
(** An empty set with room for [expect] (default 64) entries before it
    grows.  [expect] must be positive. *)

val reset : t -> unit
(** Empty the set for the next lookup.  A set that has grown to more
    than four times its [expect] (an exhaustive lookup merges every
    entry of the key) drops back to [expect]. *)

val add : t -> Plookup_store.Entry.t list -> unit
(** Merge one server's answer, in order; an entry whose id is already
    present is ignored. *)

val length : t -> int
(** Distinct entries merged since the last {!reset}. *)

val capacity : t -> int
(** Entries the set holds before it grows. *)

val pick : t -> rng:Plookup_util.Rng.t -> target:int -> Plookup_store.Entry.t list
(** The lookup's result: every merged entry when there are at most
    [target] (in arrival order, no draw), otherwise a uniform
    [target]-subset drawn with {!Plookup_util.Rng.subset_in_place}.  The
    draw reorders the buffer, so call it once, as the lookup's last step
    before the next {!reset}. *)
