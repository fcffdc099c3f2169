(** The answers a lookup client has merged so far: the distinct entries
    returned by the servers it contacted, and the uniform truncation to
    the lookup's target.  Every lookup that can hear from more than one
    server merges and truncates through this one module: {!Probe}'s
    [Random] and [Stride] walks and every {!Async_client} lookup.  A
    synchronous [One_server] lookup returns its one server's answer as
    it stands: distinct and at most [target] long, it is what {!pick}
    would return.

    A set is an open-addressing table of entry ids beside a buffer of
    the entries in arrival order.  {!reset} empties it in O(1) by
    bumping a generation stamp, so a set can serve one lookup after
    another without allocating.

    {b Who owns the table.}  A cluster owns one set
    ({!Cluster.answers}).  Its own buffer, a {!Buffer.t} that {!create}
    and {!reset} seat at the table's current generation, is the
    synchronous client's; each asynchronous lookup holds only a
    {!Buffer.t} of its distinct entries and merges it through the
    cluster's table.  Both kinds merge through the same code.  The table holds
    the ids of one buffer at a time, at the current generation, and a
    buffer records the generation it was last seated at.  A
    {!Buffer.merge} into a buffer seated at an older generation — some
    other lookup merged, reset or regrew the table since — re-seats it
    first: it bumps the generation and claims the buffer's ids again, at
    most the entries that lookup has merged so far.  The generation
    never goes back, not even across a regrowth or a shrink, so a stale
    buffer can never look seated.

    A synchronous lookup never needs to re-seat: it runs from {!reset}
    to {!pick} inside one call, so no other merge can come between its
    merges, and {!add} makes no seat check per entry. *)

type t

val create : ?expect:int -> unit -> t
(** An empty set with room for [expect] (default 64) entries before it
    grows.  [expect] must be positive. *)

val reset : t -> unit
(** Empty the set for the next synchronous lookup.  A set whose own
    buffer has grown to more than four times its [expect] (an exhaustive
    lookup merges every entry of the key) drops back to [expect], table
    included.  A table that only asynchronous merges grew keeps its
    size: it is as large as the most distinct entries one of them held. *)

val add : t -> Plookup_store.Entry.t list -> unit
(** Merge one server's answer, in order; an entry whose id is already
    present is ignored.  Call it only between a {!reset} and the next
    {!Buffer.merge} into the same set. *)

val length : t -> int
(** Distinct entries merged since the last {!reset}. *)

val capacity : t -> int
(** Entries the set's own buffer holds before it grows. *)

val pick : t -> rng:Plookup_util.Rng.t -> target:int -> Plookup_store.Entry.t list
(** The lookup's result: every merged entry when there are at most
    [target] (in arrival order, no draw), otherwise a uniform
    [target]-subset drawn with {!Plookup_util.Rng.subset_in_place}.  The
    draw reorders the buffer, so call it once, as the lookup's last step
    before the next {!reset}. *)

(** The distinct entries of one asynchronous lookup: about [expect + 5]
    words, against a whole set's two tables. *)
module Buffer : sig
  type set := t
  type t

  val create : expect:int -> t
  (** An empty buffer with room for [expect] entries before it doubles.
      [expect] must be positive. *)

  val merge : set -> t -> Plookup_store.Entry.t list -> unit
  (** [merge set b answer] merges one server's answer into [b], in
      order, de-duplicating through [set]'s table exactly as {!add}
      does, so [b] keeps the same entries in the same order as a set of
      its own would.  Re-seats [b] first when the table holds another
      buffer's ids; an empty answer touches nothing. *)

  val length : t -> int
  (** Distinct entries merged into the buffer. *)

  val pick : t -> rng:Plookup_util.Rng.t -> target:int -> Plookup_store.Entry.t list
  (** {!pick} on the buffer's entries: the same draws, so the lookup's
      last step. *)
end
