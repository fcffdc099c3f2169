(** Typed trace spans and events.

    One span records one observable step of a simulation — a message
    transmission, a retry, a repair-daemon round — as a {e variant}
    payload instead of a formatted string, so dumps are machine-readable
    (JSONL, see {!Sink.jsonl}) and tests can assert on structure rather
    than substrings.

    Spans carry a per-trace id and an optional [cause] link naming the
    span that triggered them: a [Recv] is caused by its [Send], a
    [Retry] by the [Timeout] that provoked it.  Cause links always point
    backwards (to a smaller id), which is what makes a JSONL dump
    replayable as a DAG. *)

type actor =
  | Client  (** a request originating outside the server set *)
  | Server of int

type drop_reason =
  | Down  (** destination server was failed *)
  | Lost  (** injected link loss *)
  | Shed  (** rejected by a full inbox queue (capacity model load shed) *)

type kind =
  | Send of { src : actor; dst : int; plane : string; msg : string }
      (** a transmission left [src] for [dst] *)
  | Recv of { src : actor; dst : int; plane : string; msg : string }
      (** the transmission was delivered and processed (cause: the Send) *)
  | Drop of { src : actor; dst : int; plane : string; msg : string; reason : drop_reason }
      (** the transmission vanished (cause: the Send) *)
  | Retry of { dst : int; attempt : int }
      (** a client re-sent to [dst]; [attempt] counts from 2 (cause: the
          Timeout that provoked it) *)
  | Timeout of { dst : int; after : float }
      (** a client abandoned an attempt to [dst] after [after] time units *)
  | Repair_round of { coordinator : int; tick : int; re_replications : int; trims : int }
      (** one repair-daemon pass and what it changed *)
  | Migration of { entry : int; src : int; dst : int }
      (** an entry moved between servers (Round-Robin hole plugging) *)
  | Mark of { label : string; detail : string }
      (** free-form annotation (the legacy string-record form) *)

type t = {
  id : int;  (** unique within one trace, increasing *)
  time : float;  (** simulation time (0 when no engine is attached) *)
  cause : int option;  (** id of the span that triggered this one *)
  kind : kind;
}

val add_json : Buffer.t -> t -> unit
(** Append the span as one JSON object (no trailing newline).  Keys:
    [id], [t], [kind], optional [cause], then kind-specific fields. *)

val to_json : t -> string

val pp : Format.formatter -> t -> unit
(** One human-readable line, stable enough for {!Trace.dump}. *)
