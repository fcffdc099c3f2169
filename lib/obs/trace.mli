(** Typed simulation tracing, int-coded for always-on use.

    A trace mints {!Span} ids and records events into a bounded,
    preallocated ring of fixed-width int cells: kind, actor, plane and
    message are small codes (strings interned per trace), times raw
    floats.  Nothing is boxed and nothing is rendered on the emit path —
    {!Span.t} is a {e decoded view} produced only when the ring is
    drained ({!spans}, {!absorb}) or when a streaming sink is attached.
    A disabled trace drops events in O(1).

    The ring is bounded, so long runs evict oldest spans — but never
    silently: {!dropped} counts what a full dump is missing (the seed
    repo's ring evicted silently, making truncated dumps look
    complete).

    An enabled trace records every span it is given: each transmission
    the network carries is one [Send] resolved by its [Recv]s or its
    [Drop], so the [Recv] spans count exactly the messages the paper
    prices.  Every message span's JSONL line names its [plane], so a
    stream can be filtered afterwards. *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] bounds the retained ring (default 4096); older spans are
    evicted first and counted in {!dropped}.  Extra sinks see every
    retained-or-evicted span regardless of capacity.  Tracing starts
    disabled.  Raises [Invalid_argument] on a non-positive capacity. *)

val enabled : t -> bool
val set_enabled : t -> bool -> unit

val capacity : t -> int

val add_sink : t -> Sink.t -> unit
(** Attach an extra sink; sinks fire in attachment order.  Attaching a
    sink makes emits eager again (each recorded span is decoded and
    streamed as it happens), so keep traces sink-free on benchmarked hot
    paths. *)

val set_evict_hook : t -> (int -> unit) -> unit
(** [f] is called with batches of newly detected ring evictions — how
    {!Obs} mirrors the eviction count into the metrics registry
    ([obs.trace.evicted]).  Evictions are derived, not counted on the
    emit path, so the hook fires when the ring becomes observable
    ({!spans}, {!absorb}, {!flush}, {!clear}), not per evicted span. *)

(** {1 Interning and coded emitters}

    The allocation-free hot interface.  Callers intern their strings
    once at setup time and pass plain ints per event; [src] is the actor
    code (-1 for a client, the server index otherwise), [pm] a packed
    plane/msg code from {!intern_message}.  [cause] follows the span-id
    convention of the coded emitters' return values: a positive id links
    to that span, 0 means no cause.  Intern codes survive {!clear}, so a
    coder precomputed per trace stays valid across runs.

    Every coded emitter writes the same spans whether it takes its
    inline fast path (tracing on, no sink, actors that fit the compact
    header) or its general body: a sink-free drain and a JSONL stream of
    the same emits hold the same JSON. *)

val intern_message : t -> plane:string -> msg:string -> int
(** The packed code for a (plane, msg) pair.  Raises [Invalid_argument]
    if the trace has interned more than 256 distinct strings (far beyond
    the protocol's fixed vocabulary). *)

val emit_send : t -> time:float -> src:int -> dst:int -> pm:int -> int
(** Record a [Send] and return its id for cause links — 0 when the trace
    is disabled. *)

val emit_recv : t -> time:float -> cause:int -> src:int -> dst:int -> pm:int -> unit

val emit_send_recv : t -> time:float -> src:int -> dst:int -> pm:int -> int
(** The fused fast path for a synchronously delivered message: a [Send]
    immediately resolved by its cause-linked [Recv], producing exactly
    the spans (and ids) the two separate emits would.  Returns the
    [Send]'s id. *)

val emit_drop :
  t -> time:float -> cause:int -> src:int -> dst:int -> pm:int -> reason:Span.drop_reason -> unit

val emit_timeout : t -> time:float -> dst:int -> after:float -> int
(** Returns an id with the same convention as {!emit_send}. *)

val emit_retry : t -> time:float -> cause:int -> dst:int -> attempt:int -> unit
val emit_repair_round :
  t -> time:float -> coordinator:int -> tick:int -> re_replications:int -> trims:int -> unit
val emit_migration : t -> time:float -> entry:int -> src:int -> dst:int -> unit

(** {1 The boxed interface} *)

val emit : t -> time:float -> ?cause:int -> Span.kind -> int
(** Record one span from its decoded form (interning any strings it
    carries) and return its id.  Returns 0 without recording when the
    trace is disabled.  Handy for tests and one-off annotations; hot
    paths use the coded emitters. *)

val record : t -> time:float -> label:string -> string -> unit
(** Free-form annotation — emits a [Mark] span (the legacy string-record
    interface). *)

(** {1 Draining} *)

val spans : t -> Span.t list
(** The ring's contents, decoded, oldest first. *)

val length : t -> int
(** Spans currently retained in the ring. *)

val emitted : t -> int
(** Total spans ever recorded (including evicted and absorbed ones). *)

val dropped : t -> int
(** Spans missing from {!spans}: evicted from the ring, plus drops
    carried over by {!absorb}.  [emitted t = length t + dropped t]. *)

val clear : t -> unit
(** Empty the ring and reset the id, emitted and dropped counts (extra
    sinks and the intern table are kept; sinks are not notified). *)

val absorb : t -> t -> unit
(** [absorb t child] re-records the child's retained spans into [t] in
    order — decoding each coded cell, remapping span ids (and their
    cause links) past [t]'s current id watermark, re-interning strings
    against [t]'s table — and adds the child's dropped count to [t]'s.
    This is how per-replicate traces merge deterministically into the
    experiment context's trace ({!Plookup_experiments.Runner}). *)

val flush : t -> unit
(** Flush every attached sink. *)

val dump : t -> string
(** Human-readable rendering of {!spans}, one line each
    ({!Span.pp}). *)
