(** Extension: the hot-spot claim of the paper's conclusion.

    "Partial lookup services are insensitive to the popular key or
    hot-spot problems which plague traditional hashing-based lookup
    services."  We drive a Zipf-popular key population against (a) the
    traditional key-partitioned service (every lookup for a key hits its
    single home server — Chord/CAN style) and (b) partial-lookup
    directories, and report per-server load concentration. *)

val id : string
val title : string

val run : Ctx.t -> Plookup_util.Table.t
(** n=10 servers, 50 keys with Zipf(1.0) popularity, 20 entries per
    key, t=3, 20000 lookups times the context's scale. *)
