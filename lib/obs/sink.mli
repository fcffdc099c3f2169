(** Span sinks: where a {!Trace} streams decoded spans.

    A sink consumes {!Span.t} values — the decoded view.  The trace's
    own bounded history lives int-coded inside {!Trace} and is only
    decoded at drain time; sinks are the {e streaming} side: they see
    every span as it is emitted (decoded on the fly), regardless of ring
    capacity, so a JSONL file stays complete even when the in-memory
    ring evicts. *)

type t

val emit : t -> Span.t -> unit
val flush : t -> unit

val jsonl : ?flush_every:int -> out_channel -> t
(** Stream each span as one JSON line.  The channel is flushed every
    [flush_every] spans (default 1024) and on {!flush}; closing the
    channel is the caller's job. *)

