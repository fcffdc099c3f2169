(** The client side of a lookup: one driver for every strategy's
    {!Strategy_intf.discipline}.

    The strategies differ in *which* servers a client contacts and in
    what order; the accumulation rule is shared: keep contacting servers,
    merging the distinct entries returned, until at least [t] distinct
    entries are in hand or no further server remains, then keep a
    uniform [t]-subset.  The merge and the truncation are the cluster's
    one reusable {!Answer_set} ({!Cluster.answers}), except for
    [One_server]: its one answer is already distinct and at most [t]
    long, which the set would keep whole and in order, so it is the
    result as it stands.  Each contact is a
    {!Msg.Lookup} message, so it shows up in the network's message
    accounting and in the returned lookup cost.

    Every lookup honours an optional [reachable] predicate (the
    limited-reachability variation of Section 7.2): servers outside the
    client's reach are never contacted.

    Orders are {!Probe_order} cursors, generated only as far as the
    lookup walks them: a lookup that stops after k contacts costs O(k)
    order work (k draws and k rank selects for a random order), not
    O(n). *)

val lookup :
  ?reachable:(int -> bool) ->
  Cluster.t ->
  Strategy_intf.discipline ->
  t:int ->
  Lookup_result.t
(** [lookup cluster discipline ~t] collects [t] distinct entries (fewer
    only when the servers reached hold fewer), drawing from
    {!Cluster.rng}.  Raises [Invalid_argument] when [t <= 0].

    - [One_server]: contact one random reachable up server and return
      its answer as-is ("a client selects a random server to do the
      lookup").  A short answer is not retried, matching the paper.
      Returns {!Lookup_result.empty} if no server is reachable.  The
      pick is one draw over the reachable up servers, even when only
      one is left, resolved by rank: a rank select without
      [reachable], an O(n) scan with it.
    - [Random]: contact reachable up servers in uniformly random order
      without repetition until satisfied.  The order is
      {!Probe_order.random_up}: one draw per up server visited,
      unreachable ones skipped.
    - [Stride step]: draw a start [s], then contact [s], [s+step],
      [s+2*step], ... (mod n), extending to the remaining servers when
      the cycle covers only some residues ({!Probe_order.stride}, which
      normalizes any integer [step]).  A down or unreachable server
      anywhere makes the client probe in random order instead, as the
      paper prescribes ("if there are any server failures, choose
      random servers instead"); the start is drawn either way.  Only a
      given [reachable] costs an O(n) scan, to decide between the two
      orders. *)

val order_list : Strategy_intf.discipline -> Plookup_util.Rng.t -> n:int -> int list
(** The discipline's order over all [n] server ids, drawn from [rng],
    as the explicit list {!Async_client.lookup} takes: [Rng.perm rng n]
    for [One_server] and [Random], and for [Stride step] the stride from
    a start drawn from [rng].  The asynchronous client keeps walking
    past one answer, so [One_server] gets a full order too. *)
