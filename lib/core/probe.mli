(** Client-side server probing disciplines.

    The strategies differ in *which* servers a client contacts and in
    what order; the accumulation rule is shared: keep contacting servers,
    merging the distinct entries returned, until at least [t] distinct
    entries are in hand or no further server remains, then keep a
    uniform [t]-subset.  The merge and the truncation are the cluster's
    one reusable {!Answer_set} ({!Cluster.answers}).  Each contact is a
    {!Msg.Lookup} message, so it shows up in the network's message
    accounting and in the returned lookup cost.

    All probes honour an optional [reachable] predicate (the
    limited-reachability variation of Section 7.2): servers outside the
    client's reach are never contacted.

    Orders are {!Probe_order} cursors, generated only as far as the
    probe walks them: a lookup that stops after k contacts costs O(k)
    order work (k draws and k rank selects for a random order), not
    O(n). *)

val single :
  ?reachable:(int -> bool) -> Cluster.t -> t:int -> Lookup_result.t
(** Contact one random reachable up server and return its answer as-is —
    the Full-Replication / Fixed-x client ("a client selects a random
    server to do the lookup").  If that one answer is short, no further
    server is tried, matching the paper (those strategies make every
    server identical, so retrying is pointless).  Returns
    {!Lookup_result.empty} if no server is reachable.  The pick is one
    draw over the reachable up servers, resolved by rank: a rank select
    without [reachable], an O(n) scan with it. *)

val random_order :
  ?reachable:(int -> bool) -> Cluster.t -> t:int -> Lookup_result.t
(** Contact reachable up servers in uniformly random order without
    repetition until satisfied — the RandomServer-x / Hash-y client.
    The order is {!Probe_order.random_up}: one draw per up server
    visited, unreachable ones skipped. *)

val stride :
  ?reachable:(int -> bool) -> Cluster.t -> start:int -> step:int -> t:int -> Lookup_result.t
(** Contact [start], [start+step], [start+2*step], ... (mod n) — the
    Round-Robin-y client, which knows servers [step] apart share the
    fewest entries.  A down or unreachable server in the sequence makes
    the client fall back to random probing over the remaining servers,
    as the paper prescribes ("if there are any server failures, choose
    random servers instead").  [start] and [step] may be any integers
    (both are normalized mod n, so negative, zero and >= n strides are
    all safe); when the stride cycle covers only some residues the probe
    extends to the remaining servers rather than looping.  The
    failure-free order is {!Probe_order.stride} and draws nothing; only
    a given [reachable] costs an O(n) scan, to decide between the two
    orders. *)
