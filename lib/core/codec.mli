(** Binary wire encoding for the service protocol.

    The simulator delivers {!Msg.t} values in memory, but a deployable
    lookup service speaks bytes.  This codec defines the wire format —
    length-prefixed frames, little-endian fixed-width integers, varint
    entry counts — and is its own inverse, so the same servers could be
    run over real sockets without touching strategy code.

    Frame layout: [tag:u8] [body], where the body encodes entries as
    [count:varint] followed by per-entry [id:varint]
    [payload_len:varint] [payload bytes] (payload_len 0 = no payload;
    a payload of length 0 is distinguished by length 1 + empty
    marker).  Decoding is total: malformed input yields
    [Error], never an exception.  Its allocation is bounded by the
    input's length, plus at most one digest of {!max_digest_capacity}. *)

val max_digest_capacity : int
(** The largest bitset capacity a [Digest_request] or [Digest] may
    declare: 2{^20} entry ids, a 128 KiB bitset.  {!decode} and
    {!decode_reply} return [Error] for a larger declared capacity before
    allocating it; {!encode} and {!encode_reply} raise
    [Invalid_argument] for a larger bitset. *)

val encode : Msg.t -> string
val decode : string -> (Msg.t, string) result

val encode_reply : Msg.reply -> string
val decode_reply : string -> (Msg.reply, string) result

val frame : string -> string
(** Prefix with a u32 length, for streaming transports. *)

val unframe : string -> pos:int -> (string * int, string) result
(** Read one length-prefixed frame at [pos]; returns the body and the
    position after the frame. *)
