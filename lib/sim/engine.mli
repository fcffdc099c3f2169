(** Discrete-event simulation engine.

    Drives the dynamic-update experiments of Sections 5–6: the workload
    generator schedules timestamped add/delete actions, the engine fires
    them in order, and handlers may schedule further events (e.g. message
    deliveries with latency).

    The clock only moves when an event fires; there is no wall-clock
    component anywhere, so runs are fully deterministic. *)

type t

type event_id
(** Handle for cancellation — the scheduled event's handle in the
    queue (see {!Event_queue.handle}), so {!cancel} is O(1) and engines
    keep no side tables. *)

val create : unit -> t

val now : t -> float
(** Current simulation time; 0 before any event has fired.  The clock
    is stored unboxed, so advancing it allocates nothing. *)

val schedule_at : t -> time:float -> (t -> unit) -> event_id
(** Fire the action when the clock reaches [time].  Scheduling in the
    past (before [now]) or at a NaN time raises [Invalid_argument].
    Scheduling allocates only the event's handle, three words, in a
    build that inlines across modules; without that inlining, [time] is
    boxed on its way to the queue, two words more. *)

val schedule_after : t -> delay:float -> (t -> unit) -> event_id
(** [schedule_at ~time:(now t +. delay)].  Negative and NaN delays
    raise [Invalid_argument]. *)

val reserve : t -> int
(** A stamp: the place among simultaneous events that an event
    scheduled now would take.  Events due at the same time fire in the
    order they were scheduled; stamps increase in that order. *)

val schedule_reserved : t -> time:float -> stamp:int -> (t -> unit) -> event_id
(** {!schedule_at}, with the event placed among the events due at
    [time] by a stamp from {!reserve}, as if it had been scheduled when
    the stamp was taken.  No two live events may carry one stamp. *)

val cancel : t -> event_id -> unit
(** Cancelled events are skipped when popped; cancelling twice, or after
    the event has fired, is a no-op (in particular it does not perturb
    {!pending}). *)

val pending : t -> int
(** Events scheduled and not yet fired or cancelled. *)

val step : t -> bool
(** Fire the single earliest event: move the clock to its
    {!Event_queue.min_time}, {!Event_queue.take} it and run it.
    [false] when the queue is empty.  Firing allocates nothing beyond
    what the action does, in a build that inlines across modules (the
    release profile); without that inlining, [min_time]'s float result
    is boxed, two words per event. *)

val run : ?max_events:int -> ?until:float -> t -> int
(** Fire events, as {!step} does, until the queue is empty,
    [max_events] have fired, or the next *live* event is strictly after
    [until] (cancelled events never fire and never count against the
    horizon).  Returns the number of events fired.  When stopped by
    [until] or by an empty queue, the clock is advanced to [until]. *)

val reset : t -> unit
(** Drop all pending events and rewind the clock to 0.  The event
    queue's capacity is kept, so a reused engine does not re-grow its
    heap from scratch. *)
