(** The protocol between clients and servers, split into three typed
    planes.  {!Plookup_net.Net} delivers these values in memory and
    counts messages, never bytes.

    A strategy is precisely a server-side handler for these messages
    plus a client-side probing discipline, which is how the paper frames
    them (each scheme is given as the behaviour of
    [place]/[add]/[delete]/[partial_lookup] messages).

    {b Data plane} ({!data}): client-originated requests, sent to one
    server.  Every strategy must handle all four — the per-strategy
    totality test in the suite enforces it, and the plane split makes
    each handler exhaustive by construction.

    {b Strategy plane} ({!strategy}): server-to-server messages a
    strategy sends to itself.  A strategy handles its own subset and
    delegates the rest to [Strategy_common.default_strategy], which
    gives the uniform store/remove/replace semantics.

    {b Repair plane} ({!repair}): anti-entropy recovery sync and the
    degree-repair daemon.  Strategies never see these —
    the {!Repair} subsystem intercepts them before the strategy handler
    runs (and when no repair layer is installed they are acked and
    ignored).

    See PROTOCOL.md for flows and cost accounting. *)

open Plookup_store
open Plookup_util

(** Client-originated requests. *)
type data =
  | Place of Entry.t list  (** client's initial batch placement request *)
  | Add of Entry.t  (** client add *)
  | Delete of Entry.t  (** client delete *)
  | Lookup of int  (** client partial lookup with target answer size t *)

(** Strategy-internal server-to-server messages. *)
type strategy =
  | Store of Entry.t  (** keep a local copy *)
  | Store_batch of Entry.t list
      (** broadcast payload; receiver decides what to keep (everything,
          the first x, or a random x-subset). *)
  | Remove of Entry.t  (** drop the local copy *)
  | Add_sampled of Entry.t
      (** RandomServer-x incremental add: receiver applies the
          reservoir-sampling coin flip. *)
  | Remove_counted of Entry.t
      (** RandomServer-x delete: receiver decrements its local count of
          system entries and drops any local copy. *)
  | Fetch_candidate of int list
      (** RandomServer-x replacement-on-delete ablation: "send me one
          entry whose id is not in this list". *)
  | Sync_add of Entry.t
      (** RoundRobin coordinator replication (the paper's footnote 1):
          the acting coordinator tells a standby replica to apply an add
          to its copy of the head/tail counters and sequence. *)
  | Sync_delete of Entry.t
      (** Standby-replica mirror of a delete (including the implied
          hole-plugging migration, which each replica re-derives
          deterministically from its own copy). *)
  | Sync_state
      (** State transfer to a just-recovered coordinator replica; the
          receiver copies the sender's ledger. *)

(** Repair-subsystem messages. *)
type repair =
  | Digest_request of Bitset.t
      (** Recovery sync, step 1: a just-recovered server sends a compact
          digest of the entry ids it holds to a live peer. *)
  | Sync_fix of Entry.t list * int list
      (** Recovery sync, step 2: the peer ships the entries the digest
          shows missing and the ids to retract (deleted while the
          recoverer was down, or no longer assigned to it). *)
  | Digest_pull
      (** Repair-daemon scan: "reply with a digest of your store". *)
  | Repair_store of Entry.t
      (** Daemon re-replication: store this entry as a substitute copy
          to restore the strategy's replication degree. *)

type t = Data of data | Strategy of strategy | Repair of repair

type reply =
  | Ack
  | Entries of Entry.t list  (** lookup answer *)
  | Candidate of Entry.t option  (** reply to [Fetch_candidate] *)
  | Digest of Bitset.t  (** reply to [Digest_pull] *)
  | Busy
      (** load-shed fast nack: the destination's inbox queue was full, so
          the request was rejected {e without} being processed.  Emitted
          by the {!Plookup_net.Net} capacity model, never by a strategy
          handler; clients treat it as an immediate failure signal and move to
          the next candidate rather than waiting out a timeout. *)

(** {1 Smart constructors}

    Send sites say [Msg.store e] instead of spelling out the plane
    wrapper. *)

val place : Entry.t list -> t
val add : Entry.t -> t
val delete : Entry.t -> t
val lookup : int -> t
val store : Entry.t -> t
val store_batch : Entry.t list -> t
val remove : Entry.t -> t
val add_sampled : Entry.t -> t
val remove_counted : Entry.t -> t
val fetch_candidate : int list -> t
val sync_add : Entry.t -> t
val sync_delete : Entry.t -> t
val sync_state : t
val digest_request : Bitset.t -> t
val sync_fix : Entry.t list -> int list -> t
val digest_pull : t
val repair_store : Entry.t -> t

val plane_names : string array
(** [[| "data"; "strategy"; "repair" |]], indexed by {!plane_index} —
    the [names] a {!Plookup_net.Net.set_planes} call wants. *)

val plane_index : t -> int
(** 0 for data, 1 for strategy, 2 for repair. *)

val trace_coder : Plookup_obs.Trace.t -> t -> int
(** [trace_coder tr] interns every message's plane and short name
    (e.g. ["data"], ["lookup"]) into [tr] once and returns the
    packed-code function {!Plookup_net.Net.set_trace}'s [coder] wants;
    the names become the [plane] and [msg] fields of trace spans. *)
