(** Self-healing layer: anti-entropy recovery sync and a degree-restoring
    repair daemon, strategy-agnostic and metered.

    The paper's strategies (Section 3) lose copies silently under churn:
    a recovering server serves whatever its store held when it failed —
    deleted entries come back from the dead, adds issued during the
    outage are invisible, and the replication degree of entries whose
    holders died stays degraded forever.  No strategy heals a recovered
    server itself (Round-Robin's replicated coordinator, footnote 1,
    transfers only its ledger); this module is the one place that does,
    for every strategy, incrementally:

    {ul
    {- {e Recovery sync}: on an up-transition the recovering server
       sends its store's entry-id digest (a compact {!Plookup_util.Bitset})
       to a live peer; the peer answers with one [Sync_fix] shipping only
       the entries the digest proves missing and retracting the ids the
       catalog proves deleted.  Updates a server missed while down are
       reconciled by this sync alone.}
    {- {e Repair daemon}: a periodic {!Plookup_sim.Engine} task whose
       coordinator (lowest-indexed up server) broadcasts a [Digest_pull],
       counts live copies per entry, and re-replicates entries whose
       copy count fell below the strategy's target degree — after a
       grace period, so transient blips cost nothing.  Under an assigned
       placement it also trims stray substitute copies once every owner
       is back.}}

    All repair traffic flows through {!Plookup_net.Net} and is counted in
    the paper's message-cost model, but tallied separately
    ({!Plookup_net.Net.repair_messages}) so experiments report repair
    overhead next to — not mixed into — the lookup/update cost.

    What a server {e should} hold comes from a per-strategy {!plan}; what
    is {e alive} comes from a catalog maintained by observing the
    client-level [Place]/[Add]/[Delete] traffic — the repair
    coordinator's replicated metadata, analogous to Round-Robin's
    ledger.  Everything is deterministic: same seed and schedule, same
    syncs, same repairs, same message counts. *)

open Plookup_store

type mode =
  | Off
      (** No repair: a recovered server keeps the store it failed with,
          for every strategy. *)
  | Sync  (** Recovery sync only. *)
  | Full  (** Recovery sync + repair daemon. *)

val mode_name : mode -> string
val mode_of_string : string -> (mode, string) result

type config = {
  mode : mode;
  grace : float;  (** Seconds a server may be down before the daemon re-replicates. *)
  period : float;  (** Daemon tick interval. *)
}

val default_config : config
(** [mode = Full], [grace = 30.], [period = 10.]. *)

val disabled : config
(** [default_config] with [mode = Off]. *)

(** What the strategy's placement says a server should hold.  The type
    lives in {!Strategy_intf} (strategies describe their plan through
    {!Strategy_intf.S.repair_plan}); re-exported here because repair is
    its consumer. *)
type plan = Strategy_intf.plan =
  | Mirror
      (** Every live server holds the same set (FullReplication, Fixed-x):
          sync against any live peer's store. *)
  | Owner_function of (Entry.t -> int list)
      (** Owners that are a fixed function of the entry (Hash-y,
          Chord-y, DxHash-y and MultiProbe-YxK through
          {!Owner_placement}).  Repair reads a live entry's owners at
          its first repair event and keeps them, sorted, until the
          entry's delete or the next [Place].  Owners no repair event
          read are never computed, so a cluster that never fails or
          ticks computes none.  The function must not read strategy
          state that updates or status changes move: that is
          [Assigned]. *)
  | Assigned of (Entry.t -> int list option)
      (** Owners that move with the strategy's state (Round-Robin's
          ledger, where a delete moves the head entry into the hole).
          Repair asks again at every repair event (a daemon tick or a
          status change), once per live entry.  [None] means the
          placement is not describable (truncated Round-Robin) — sync
          is skipped.  Given an owner function, it gives the same
          repairs as [Owner_function] at that per-event cost. *)
  | Free of int
      (** Random x-subsets (RandomServer-x): sync only purges deleted
          entries, so a recovered server does not count or sample the
          adds and deletes it missed; the daemon restores the dynamic
          target degree [n*x / live_count]. *)

type t

val install : Cluster.t -> config:config -> plan:plan -> t
(** Wrap the cluster's installed strategy handler with the repair layer
    and hook its status listener.  Must be called {e after} the
    strategy's [create] (which installs the handler) and {e before}
    anything is placed — {!Service} does this when its repair config is
    not [Off].  Raises [Invalid_argument] on [mode = Off], non-positive
    timing parameters, or a cluster that already stores entries: the
    catalog starts empty, so a recovery sync under an [Owner_function]
    or [Assigned] plan would retract every entry placed before it. *)

val attach_engine : ?until:float -> t -> Plookup_sim.Engine.t -> unit
(** Make [engine] the cluster network's clock ({!Plookup_net.Net.attach_engine}),
    which is also repair's (grace periods are 0-based without one), and, in [Full] mode, schedule the daemon every
    [period] time units, stopping after [until] if given. *)

(** {1 Introspection} *)

val daemon_ticks : t -> int

val repair_messages : t -> int
(** Messages received on this cluster's network that were tallied as
    repair traffic ({!Plookup_net.Net.repair_messages}). *)

type stats = {
  syncs : int;  (** Recovery syncs initiated. *)
  entries_shipped : int;  (** Entries installed by [Sync_fix]. *)
  entries_retracted : int;  (** Entries deleted by [Sync_fix]. *)
  re_replications : int;  (** [Repair_store] copies pushed by the daemon. *)
  trims : int;  (** Stray over-degree copies removed by the daemon. *)
  restore_episodes : int;
      (** Completed below-degree episodes (degree later restored). *)
  mean_restore_time : float option;
      (** Mean duration of those episodes; [None] when none completed. *)
}

val stats : t -> stats
