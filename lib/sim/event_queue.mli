(** A binary min-heap priority queue for simulation events, with O(1)
    lazy cancellation.

    Events are ordered by timestamp; ties are broken by insertion
    sequence so that simultaneous events fire in FIFO order, which keeps
    replays deterministic.  Times must not be NaN.

    The heap is three parallel arrays over heap positions: a float array
    of times, an int array of tie-break sequence numbers and an int
    array of slots into a payload pool.  A sift compares unboxed keys
    and moves only ints and floats, never a pointer.  Taking an event
    empties its pool slot, so the queue keeps no fired or discarded
    payload alive.

    {!push} allocates the event's {!handle}, a small node that carries
    the payload and a state flag; {!cancel_handle} just flips the flag.
    Cancelled events are discarded lazily when they surface at the
    heap root.  {!min_time} and {!take} are the one way events leave
    the queue.  [take] allocates nothing, and neither does [min_time]
    where it is inlined (a build without cross-module inlining boxes
    its float result); {!pop}, {!peek} and {!drain} are wrappers over
    them that build their option, tuple or list. *)

type 'a t

type 'a handle
(** A pushed event.  At most one of "fires" / "cancelled" happens. *)

val create : unit -> 'a t

val length : 'a t -> int
(** Events that will still fire; cancelled events do not count. *)

val is_empty : 'a t -> bool

val push : 'a t -> time:float -> 'a -> 'a handle
(** Schedule a payload at [time].  Times may be pushed in any order. *)

val cancel_handle : 'a t -> 'a handle -> bool
(** [cancel_handle t h] marks [h]'s event as never-to-fire, in O(1).
    Returns [true] the first time; cancelling twice, after the event
    was taken, or after {!clear} forgot it, is a no-op returning
    [false] (so callers can keep accurate pending counts). *)

val is_cancelled : 'a handle -> bool

val min_time : 'a t -> float
(** Time of the earliest event that will fire, [infinity] when none is
    left (an event pushed at [infinity] is told apart by {!is_empty}).
    Cancelled events ahead of it are discarded. *)

val take : 'a t -> 'a
(** Remove the earliest event that will fire, at {!min_time}, mark it
    fired and return its payload.  Raises [Invalid_argument] when none
    is left. *)

val pop : 'a t -> (float * 'a) option
(** {!min_time} and {!take} together; [None] when no event is left. *)

val peek : 'a t -> (float * 'a) option
(** The event {!pop} would return, without removing it. *)

val clear : 'a t -> unit
(** Forget all events, which then count as cancelled, but keep the
    arrays' capacity, so a reused queue does not re-grow from scratch. *)

val drain : 'a t -> (float * 'a) list
(** Pop everything, in order. *)
