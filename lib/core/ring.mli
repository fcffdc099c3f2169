(** Consistent-hashing rings with one point per server: Chord-y and
    MultiProbe-YxK.

    Servers and entries hash onto one ring.  An entry's home is the
    clockwise successor of its ring point, and it lives on the [min y n]
    consecutive distinct servers starting there (Chord's successor-list
    replication).  Where Hash-y draws y independent hash functions — so
    collisions leave some entries with fewer copies — a ring always
    yields exactly [min y n] copies, and a membership change only moves
    entries between ring neighbours.

    A single-point ring suffers O(log n) peak/mean load skew because arc
    lengths vary wildly.  MultiProbe-YxK fixes that from the key side
    instead of with virtual nodes: the entry is hashed [k] times, each
    probe finds its successor, and the probe landing closest wins.  A
    server with a long arc only captures keys all [k] probes agree on,
    so skew falls like 1 + O(1/k) with no extra ring memory — the right
    trade at tens of thousands of servers.  Chord-y is the one-probe
    ring on its own salts.

    Both run the {!Owner_placement} protocol, register themselves in
    {!Strategy_registry} and are reachable from {!Service}, the CLI and
    the experiments without any of them naming this module. *)

val chord : Cluster.t -> y:int -> Owner_placement.t
(** Chord-y: one probe per entry.  Raises [Invalid_argument] when
    [y < 1]. *)

val multi_probe : Cluster.t -> y:int -> k:int -> Owner_placement.t
(** MultiProbe-YxK: [k] probes per entry, on a ring independent of
    Chord's.  Raises [Invalid_argument] when [y < 1] or [k < 1]. *)

module Chord : Strategy_intf.S with type t = Owner_placement.t
(** Registered as ["Chord"] (keys [chord], [ring]). *)

module Multi_probe : Strategy_intf.S with type t = Owner_placement.t
(** Registered as ["MultiProbe"] (keys [multiprobe], [mpch]),
    parameters [[y; k]] spelled [multiprobe-YxK]. *)
