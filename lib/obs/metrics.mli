(** The metrics registry: named counters, gauges and log-scale
    histograms, labelable (message plane, strategy name, server id) and
    cheap enough to increment on the network's per-message hot path.

    {2 Model}

    An {e instrument} is a mutable cell created once (at component
    construction time) and incremented directly — an increment is one
    field mutation, no lookup.  A registry is a bag of instruments:
    every [counter]/[gauge]/[histogram] call mints a {e fresh} cell and
    registers it, so two components asking for the same name never alias
    each other's hot-path state (each {!Plookup_net.Net} keeps exact
    per-instance accessors).  Aggregation happens at {!snapshot} time:
    instruments sharing a (name, labels) key are combined additively —
    counters and histogram buckets sum; gauges sum too, so use gauges
    for additive quantities (accumulated time, bytes).

    A {e family} ({!counters}, {!gauges}) is one registry item holding
    [n] instruments of one name that differ only in an integer label:
    an unboxed [int array] or [float array] whose index [i] is the
    instrument labelled [(label, string_of_int i)] beside the family's
    own [labels].  It costs one word per index, where a labelled cell
    costs about 19 (the cell, its registry item and list cell, its
    label list, pair and number string), so a per-server instrument
    scales with the servers it counts.  {!snapshot} expands it into one
    entry per index, which merges with every same-keyed instrument,
    plain or family, exactly as a labelled cell registered in the
    family's place would.

    {2 Determinism}

    A snapshot is sorted by (name, labels), and {!absorb} merges a
    snapshot into a registry additively, so folding per-replicate
    registries in input order yields the same totals at any worker
    count — the jobs-determinism contract of
    {!Plookup_experiments.Runner}. *)

type t

type counter
type gauge
type histogram

val create : unit -> t

(** {1 Instruments}

    [labels] default to [[]] and are canonicalized (sorted by key).
    Creation is O(|labels| log |labels|); increments are O(1). *)

val counter : t -> ?labels:(string * string) list -> string -> counter
val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int
val reset_counter : counter -> unit

val gauge : t -> ?labels:(string * string) list -> string -> gauge
val set_gauge : gauge -> float -> unit
val add_gauge : gauge -> float -> unit
val gauge_value : gauge -> float

(** {2 Families} *)

type counters
type gauges

val counters :
  t -> ?labels:(string * string) list -> label:string -> string -> int -> counters
(** [counters t ~label name n] registers [n] counters called [name],
    the [i]-th labelled [(label, string_of_int i) :: labels], all at
    zero.  They are indexed [0 .. n - 1]; an index outside raises
    [Invalid_argument].  An increment is one array store and allocates
    nothing. *)

val incr_at : counters -> int -> unit
val value_at : counters -> int -> int

val total : counters -> int
(** The sum over the family. *)

val reset_counters : counters -> unit
(** Zero every counter of the family. *)

val gauges :
  t -> ?labels:(string * string) list -> label:string -> string -> int -> gauges
(** As {!counters}, for [n] gauges at [0.]. *)

val set_gauge_at : gauges -> int -> float -> unit
val gauge_value_at : gauges -> int -> float

(** {2 Histograms} *)

val histogram : t -> ?labels:(string * string) list -> string -> histogram
(** Log-scale (powers of two): an observation [v] lands in bucket
    [ceil(log2 v)] clamped to [0, 63] — bucket [b] covers
    [(2^(b-1), 2^b]], bucket 0 everything at or below 1 (and NaN),
    bucket 63 everything above 2^62, [infinity] included.  Suited to
    latencies and sizes spanning orders of magnitude. *)

val observe : histogram -> float -> unit
val histogram_count : histogram -> int

val histogram_quantile : histogram -> float -> float
(** [histogram_quantile h q] estimates the [q]-th percentile
    ([0 <= q <= 100]) of the observations from the log-scale buckets:
    the rank position [q/100 * (count-1)] (the {!Plookup_util.Stats.percentile}
    convention) is located in its bucket and interpolated linearly
    between the bucket's bounds.

    {b Error bound}: the estimate lies in the same power-of-two bucket
    as the true sample quantile, so for values above 1 it is within a
    factor of 2 (one bucket width) of the exact answer — tight enough
    for tail reporting (p50/p99/p999) without materializing per-event
    float arrays.  Returns 0 on an empty histogram. *)

val reset_histogram : histogram -> unit

(** {1 Snapshots} *)

type kind =
  | Counter of int
  | Gauge of float
  | Histogram of { buckets : (int * int) list; count : int; sum : float }
      (** [buckets]: (bucket index, occupancy), ascending, zero buckets
          omitted. *)

type entry = { name : string; labels : (string * string) list; v : kind }

val snapshot : t -> entry list
(** Aggregated (additively, per (name, labels) key) and sorted by
    (name, labels) — deterministic for a deterministic program.  Each
    index of a family is one instrument here, with its index label
    added to the family's labels. *)

val absorb : t -> ?extra_labels:(string * string) list -> entry list -> unit
(** Merge a snapshot into this registry additively; [extra_labels] are
    appended to every entry's labels first (e.g. tagging a replicate's
    metrics with its strategy).  Used to fold per-replicate registries
    into the experiment context's.  The registry keeps one absorbed
    sum per (name, labels) key and adds every later entry of that key
    into it, so folding R snapshots costs what folding one does.  It
    never adds into an instrument made by {!counter}, {!gauge},
    {!histogram} or a family: those stay private to their owner, and
    {!snapshot} adds them to the absorbed sum. *)

val length : t -> int
(** The registry's cells: one per instrument or family made, and one
    per (name, labels) key {!absorb} has brought. *)

val sum_counters : entry list -> ?where:(string * string) list -> string -> int
(** Total of every counter entry called [name] whose labels include all
    of [where] (default: no constraint). *)

val to_json : entry list -> string
(** A JSON object [{"metrics": [ ... ]}], entries in snapshot order. *)
