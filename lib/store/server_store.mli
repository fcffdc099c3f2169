(** A single server's local entry store.

    Every strategy's per-server state is a set of entries that must
    support the hot operation of the whole evaluation: "each contacted
    server returns t randomly selected entries stored on the server" —
    i.e. a uniform k-subset draw.  The store is an indexed hash set: an
    array of entries in slots, plus an open-addressing table from entry
    id to slot that the store owns, one int array of (id, slot) cells.
    Membership, insert, delete and uniform random selection are all O(1)
    (O(k) for a k-subset).  {!mem}, {!add}, {!remove} and {!slot}
    allocate nothing once the store has grown to its size.

    A store costs what it holds: an empty one holds no table and no
    slots at all; its first add makes a table of 4 cells and an array
    of 2 slots, the table doubling whenever an add would fill more than
    3/4 of it and the slots whenever they are full.  A 2-entry store is
    17 words (5 for the record, 9 for the table, 3 for the slots).

    While its table has at most 8 cells (6 entries), the record also
    keeps a summary of the ids it holds, in the word that holds the
    table's size: one mark per id out of 57, set by {!add} and
    recomputed by {!remove}.  {!mem}, {!remove} and {!slot} answer
    "absent" from the record alone when the id's mark is clear, without
    reading the table: most receivers of a broadcast delete do not hold
    the entry.  A larger table is probed as without a summary.  The
    summary costs no word. *)

type t

val create : unit -> t
val cardinal : t -> int
val is_empty : t -> bool
val mem : t -> Entry.t -> bool

val add : t -> Entry.t -> bool
(** [true] if the entry was absent and has been inserted; storing an
    entry twice is a no-op ("if two hash functions assign an entry to the
    same server, the entry is stored only once"). *)

val remove : t -> Entry.t -> bool
(** [true] if the entry was present and has been removed. *)

val clear : t -> unit
(** Empties the store and drops its slots and its id table. *)

type scratch
(** An index buffer for {!random_pick}, grown on demand to the largest
    store it has served.  A store owns none: its cluster owns one and
    lends it to every store's pick, since each pick finishes before the
    next begins. *)

val scratch : unit -> scratch
(** An empty buffer. *)

val random_pick : t -> scratch:scratch -> Plookup_util.Rng.t -> int -> Entry.t list
(** [random_pick t ~scratch rng k] is [min k (cardinal t)] distinct
    entries chosen uniformly — the paper's per-server lookup answer: "t
    randomly selected entries stored on the server or all the entries if
    the total is less than t".  A store holding at most [k] entries
    returns all of them, in slot order, without touching [rng] or
    [scratch].  A larger store draws with
    {!Plookup_util.Rng.subset_in_place} over [scratch]
    ([min k (cardinal t - k)] draws), so once the buffer has grown the
    only allocation is the returned list.  The entries and the draws do
    not depend on the buffer's size or on earlier picks through it. *)

val to_list : t -> Entry.t list
(** Unspecified order. *)

val slot : t -> Entry.t -> int
(** [slot t e] is the slot holding [e], so that [nth t (slot t e)] is
    [e], or [-1] if [t] does not hold it.  Slots run over
    [0 .. cardinal t - 1], so they index an array of per-entry values.
    Allocates nothing. *)

val nth : t -> int -> Entry.t
(** [nth t i], for [0 <= i < cardinal t], is the entry in the store's
    [i]-th slot.  Each stored entry sits in exactly one slot, in no
    particular order, and {!remove} moves the last slot's entry into the
    hole.  So a loop over [0 .. cardinal t - 1] that changes nothing
    visits every entry once, with no closure per entry. *)

val iter : (Entry.t -> unit) -> t -> unit
val fold : (Entry.t -> 'a -> 'a) -> t -> 'a -> 'a
val ids : t -> int list
val snapshot_bitset : t -> capacity:int -> Plookup_util.Bitset.t
(** Entry ids as a bitset; ids must be below [capacity]. *)

val longest_run : t -> int
(** The longest run of consecutive full cells in the id table, where
    linear probing walks: a {!mem}, {!add} or {!remove} reads at most
    one cell more than this.  0 for an empty store. *)

val pp : Format.formatter -> t -> unit
