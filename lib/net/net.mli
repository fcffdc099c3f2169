(** Simulated message-passing network between [n] servers and external
    clients, with the paper's message-cost accounting.

    Section 6.4 defines the overhead model: "we count the total number of
    messages received and processed by all the servers... a broadcast has
    overhead cost n where n is the number of servers.  A point-to-point
    message has cost 1."  This module is the single place those counters
    live, so every strategy is measured identically.

    Delivery is synchronous: a send invokes the destination handler
    before returning, and an RPC returns the handler's reply.  This
    matches the paper's simulation (which measures message *counts*, not
    latencies).  {!call_async} routes a round trip through a
    {!Plookup_sim.Engine} instead, for latency-aware experiments.

    Nodes can be failed and recovered; messages to a failed node are
    dropped (and counted as dropped, not received).

    Beyond binary up/down servers, a deterministic {e fault-injection}
    layer models lossy links: seeded per-link message loss, duplication
    and delay jitter ({!set_faults}).  All fault decisions are drawn from
    per-link RNG streams derived from the fault seed, so a given seed
    always yields the identical drop/duplicate/jitter schedule.  An
    optional capacity model ({!set_capacity}) turns each server into a
    bounded queueing station on the engine-routed path.  Neither can be
    removed once installed. *)

type ('msg, 'reply) t

type sender =
  | Client  (** A request originating outside the server set. *)
  | Server of int

val create : ?metrics:Plookup_obs.Metrics.t -> n:int -> unit -> ('msg, 'reply) t
(** A network of [n] servers with no handlers installed.  [n] must be
    positive.

    Every counter below is a cell on [metrics] (default: a private
    registry), named [net.*]: per-server [net.messages.received]
    (labelled [server=i]), [net.messages.dropped]/[lost]/[duplicated],
    [net.broadcasts], [net.client_requests],
    [net.messages.repair], plus a [net.delivery.delay] histogram of
    engine-routed delivery delays.  The per-server counters are one
    {!Plookup_obs.Metrics.counters} family, one word per server, which a
    snapshot expands into one [server=i] entry per server, as separate
    cells would give; {!messages_received_by} reads one server's count
    and {!messages_received} their sum.
    Cells are private to this instance — the accessors report exactly
    this network's traffic even when many networks share one registry
    (a registry snapshot aggregates them). *)

val set_planes :
  ('msg, 'reply) t -> names:string array -> classify:('msg -> int) -> unit
(** Install per-plane accounting: each delivered message is also counted
    on a [net.messages.received] cell labelled [plane=names.(classify
    msg)].  {!Plookup.Cluster} wires this to [Msg.plane_index]. *)

val set_trace :
  ('msg, 'reply) t ->
  Plookup_obs.Trace.t ->
  coder:('msg -> int) ->
  unit
(** Attach a trace: every server-bound transmission emits a [Send] span
    and its resolution a cause-linked [Recv] or [Drop]
    ({!Plookup_obs.Span}).  [coder msg] is the packed plane/msg code for
    the message, from {!Plookup_obs.Trace.intern_message} against this
    trace — precompute it per constructor at setup
    ({!Plookup.Msg.trace_coder}) so an event costs no string work.
    Whether the trace is disabled or on, the hot path allocates
    nothing. *)

val set_handler : ('msg, 'reply) t -> (int -> sender -> 'msg -> 'reply) -> unit
(** Install the message handler, called as [handler dst src msg].  All
    servers share one handler (they dispatch on [dst]); this mirrors the
    paper where every server runs the same strategy code. *)

val wrap_handler :
  ('msg, 'reply) t ->
  ((int -> sender -> 'msg -> 'reply) -> int -> sender -> 'msg -> 'reply) ->
  unit
(** Middleware: replace the installed handler with a wrapper around it —
    tracing, targeted fault injection.  Raises [Invalid_argument] if no
    handler is installed yet. *)

(** {1 Failure injection} *)

val fail : ('msg, 'reply) t -> int -> unit
val recover : ('msg, 'reply) t -> int -> unit

val add_status_listener : ('msg, 'reply) t -> (int -> up:bool -> unit) -> unit
(** Install a listener called on every fail/recover {e transition} (not
    on no-op repeats); listeners stack and fire in installation order.
    Strategies use this to react to membership changes — the replicated
    Round-Robin coordinator re-syncs a recovering replica — and the
    repair subsystem stacks its recovery-sync trigger after them. *)

val is_up : ('msg, 'reply) t -> int -> bool
val up_servers : ('msg, 'reply) t -> int list

val up_count : ('msg, 'reply) t -> int
(** Number of up servers — O(1), maintained across fail/recover. *)

val kth_up : ('msg, 'reply) t -> int -> int
(** [kth_up t k] is the k-th smallest up server id (0-based) — the same
    element [List.nth (up_servers t) k] names: [k] itself in O(1) while
    every server is up, else in O(log n).  Requires
    [0 <= k < up_count t]. *)

(** {1 Fault injection}

    Orthogonal to whole-server failures: faults act on individual
    message transmissions.  [loss] drops a transmission outright,
    [duplication] delivers it twice, and [jitter] adds an independent
    uniform [0, jitter) delay to each engine-routed delivery (the
    synchronous {!send}/{!broadcast} path has no clock, so jitter only
    affects {!call_async}).  Every directed link (client or
    server X to server or client Y) draws from its own RNG stream seeded
    from [seed], so the fault schedule is a deterministic function of
    the seed and the per-link traffic sequence. *)

val set_faults :
  ('msg, 'reply) t ->
  seed:int ->
  ?loss:float ->
  ?duplication:float ->
  ?jitter:float ->
  unit ->
  unit
(** Install the fault layer; it acts on every later transmission.
    [loss] must be in [0, 1), [duplication] in [0, 1], [jitter]
    non-negative; all default to 0.  Replaces any previous fault
    configuration and resets the per-link streams. *)

(** {2 Server capacity and gray failure (overload model)}

    By default servers process messages instantly — the paper's
    infinitely-fast world.  Installing a {e capacity model} turns each
    server into a single-threaded queueing station: engine-routed
    deliveries ({!call_async}) wait in the destination's
    bounded inbox and then hold the server for one service time before
    the handler runs, so delivery time becomes network latency +
    queueing + service.  When the inbox is full the server {e sheds}
    the request at arrival time: silently, or — when a [nack] reply is
    configured — by answering immediately with it at zero service cost
    (the fast [Busy] nack of {!Plookup.Msg.reply}).

    The model also expresses {e gray failure}: {!set_degraded}
    multiplies one server's service time (10–100x models a server that
    is alive but crawling — the failure mode binary up/down cannot
    express and retry logic handles worst).

    The synchronous {!send}/{!broadcast} path has no clock and is
    unaffected, exactly like jitter.  Registry cells: a per-server
    [net.queue.depth] gauge holding the high-water inbox occupancy (one
    {!Plookup_obs.Metrics.gauges} family, labelled [server=i] in a
    snapshot) and a [net.messages.shed] counter.  Shed requests are
    counted neither as received (they were never processed) nor as
    dropped (the server is alive, only too busy). *)

val set_capacity :
  ('msg, 'reply) t -> service_rate:float -> queue_limit:int -> ?nack:'reply -> unit -> unit
(** Install (or replace) the capacity model: every server serves
    [service_rate] messages per time unit ([> 0]) and queues at most
    [queue_limit] ([>= 1]) requests (waiting + in service).  [nack]
    chooses the shed behaviour: [Some reply] answers a full-queue
    arrival with that reply instantly; [None] (default) drops it
    silently, indistinguishable from loss to the client. *)

val set_degraded : ('msg, 'reply) t -> int -> factor:float -> unit
(** Gray-fail one server: multiply its service time by [factor]
    ([>= 1]; [1.0] restores full health).  Requires an installed
    capacity model ([Invalid_argument] otherwise — without one there is
    no service time to stretch). *)

val degraded_factor : ('msg, 'reply) t -> int -> float
(** Current multiplier (1.0 when healthy or no capacity model). *)

val queue_depth : ('msg, 'reply) t -> int -> int
(** Current inbox occupancy (0 without a capacity model). *)

val messages_shed : ('msg, 'reply) t -> int
(** Requests rejected by a full inbox (dropped or nacked). *)

(** {1 Messaging} *)

val send : ('msg, 'reply) t -> src:sender -> dst:int -> 'msg -> 'reply option
(** Point-to-point.  [None] if [dst] is down (message dropped) or the
    fault layer loses the request; otherwise the handler's reply.
    Counts 1 received message per delivery (2 when duplication fires —
    the duplicate is processed and its reply discarded, as a datagram
    server would). *)

val broadcast :
  ('msg, 'reply) t -> src:sender -> ?on_reply:(int -> 'reply -> unit) -> 'msg -> unit
(** Deliver to every *up* server, from the highest id down to 0
    (including the sender if it is an up server — the paper charges
    broadcasts n messages).  Counts one received message per delivery
    and one broadcast.  Each delivered reply is passed to
    [on_reply dst reply] as soon as its handler returns; without
    [on_reply] the replies are discarded, so a broadcast allocates
    nothing per server.

    What every copy shares (the handler, the message's plane, the
    client and repair tallies, whether faults are installed, and under
    an enabled trace the message's code and the clock) is read once per
    broadcast.  A clean copy, sent with no fault layer to an up server,
    is delivered inline, traced or not: one fused Send/Recv pair when a
    trace is enabled; every other copy takes {!send}'s path.  Both count
    and trace a copy alike, so every counter and span is what {!send}
    to each server in turn would give. *)

(** {1 Accounting} *)

val messages_received : ('msg, 'reply) t -> int
(** Total messages received and processed by servers — the paper's
    overhead-cost metric. *)

val messages_received_by : ('msg, 'reply) t -> int -> int

val messages_dropped : ('msg, 'reply) t -> int
(** Transmissions that reached a {e down} server. *)

val messages_lost : ('msg, 'reply) t -> int
(** Transmissions dropped by injected link loss, on either leg of a
    {!call_async} round trip. *)

val duplicates_delivered : ('msg, 'reply) t -> int
(** Extra copies sent by injected duplication, on either leg of a
    {!call_async} round trip. *)

val broadcasts : ('msg, 'reply) t -> int
val client_requests : ('msg, 'reply) t -> int
(** Messages whose sender was {!Client}. *)

val repair_messages : ('msg, 'reply) t -> int
(** The subset of {!messages_received} delivered inside
    {!tally_as_repair} — repair-subsystem overhead, reported separately
    from the lookup/update message cost. *)

val tally_as_repair : ('msg, 'reply) t -> (unit -> 'a) -> 'a
(** [tally_as_repair t f] runs [f]; every message received during it
    (including nested handler-triggered sends) is additionally counted
    in {!repair_messages}.  Nests and restores the previous tally state
    on exit. *)

val reset_counters : ('msg, 'reply) t -> unit

(** {1 Latency-aware delivery} *)

val attach_engine : ('msg, 'reply) t -> Plookup_sim.Engine.t -> unit
(** Make [engine] the network's clock: from now on every span the
    network emits (sends, receives, drops, on both transports) carries
    the engine's time.  Attach the engine that drives {!call_async} and
    the run's other events, once, right after creating it
    ([Plookup.Repair.attach_engine] does this for a repaired cluster).
    Delivery itself does not change: {!send} and {!broadcast} stay
    synchronous. *)

val now : ('msg, 'reply) t -> float
(** The attached engine's clock, 0 without one — the timestamp the
    network's own trace spans carry. *)

val call_async :
  ('msg, 'reply) t ->
  Plookup_sim.Engine.t ->
  latency:(src:sender -> dst:int -> float) ->
  src:sender ->
  dst:int ->
  'msg ->
  ('reply -> unit) ->
  unit
(** Full asynchronous round trip: the request is delivered at
    [now + latency], handled there, and the reply callback fires another
    latency later (each direction draws its own latency).  If [dst] is
    down at delivery time the request is lost and the callback never
    fires — callers implement their own timeouts, exactly like a real
    datagram client.  The fault layer applies independently to each
    direction: a lost request (or reply) silences the callback, jitter
    stretches either hop, and duplication can make the callback fire
    more than once per call — callers must tolerate duplicate replies.
    Message accounting matches {!send}; {!messages_lost} and
    {!duplicates_delivered} also count the reply hop.  Each copy of a
    hop that arrives is one engine event: a hop on a network with no
    fault layer installed is exactly one. *)
