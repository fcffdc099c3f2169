(** The partial lookup service: one key, [h] entries, [n] servers, one of
    the registered placement strategies behind a single interface.

    This is the public entry point of the library.  A service owns a
    {!Cluster}, dispatches [place]/[add]/[delete] to the configured
    strategy and runs [partial_lookup] by the strategy's
    {!Strategy_intf.discipline} — the strategy resolved by name through
    {!Strategy_registry}, so a strategy module that registers itself
    (see DESIGN.md, "Adding a placement strategy") is immediately
    constructible here, parseable from the CLI and enumerable by the
    experiments.  Multi-key deployments are, as the paper notes
    (Section 2), a family of independent single-key services — see
    {!Directory} for that generalization. *)

open Plookup_store

type config
(** A strategy name plus its parameters: a plain comparable value
    (structural equality and hashing work), resolved through
    {!Strategy_registry} when the service is created. *)

val v : kind:string -> params:int list -> config
(** [v ~kind ~params] names a strategy by its canonical registry name,
    e.g. [v ~kind:"Chord" ~params:[2]].  Parameters must be positive;
    the name is checked when the config is used (parse-time checking is
    {!config_of_string}'s job). *)

val kind : config -> string
(** The canonical strategy name, e.g. ["RoundRobin"]. *)

val params : config -> int list

(** {2 Convenience constructors for the built-in strategies} *)

val full_replication : config

val fixed : int -> config
(** [fixed x]: replicate the same x entries everywhere. *)

val random_server : int -> config
(** [random_server x]: random x-subset per server. *)

val random_server_replacing : int -> config
(** The Section-5.3 replacement-on-delete variant (ablation). *)

val round_robin : int -> config
(** [round_robin y]: y consecutive copies per entry. *)

val round_robin_replicated : int -> int -> config
(** [round_robin_replicated y k]: Round-Robin-y with the head/tail
    coordinator replicated on k servers (the paper's footnote 1; see
    {!Round_robin.create}).  Named ["RoundRobinHA-YxK"]. *)

val hash : int -> config
(** [hash y]: y hash functions place each entry. *)

val config_name : config -> string
(** E.g. ["Fixed-20"], ["Hash-2"], ["RoundRobinHA-2x3"] — the paper's
    naming. *)

val config_of_string : string -> (config, string) result
(** Inverse of {!config_name}, case-insensitive, accepting every
    registered parse key (e.g. ["fixed-20"], ["round-2"], ["full"],
    ["chord-2"]).  Unknown names get a did-you-mean suggestion.
    Delegates to {!Strategy_registry.parse}. *)

val param : config -> int option
(** The x or y parameter, if the strategy has one. *)

val storage_for_budget : config -> n:int -> h:int -> total:int -> config
(** Re-parameterize the strategy so its Table-1 storage cost fits a
    total budget of [total] entry slots when managing [h] entries on [n]
    servers: Fixed/RandomServer get [x = total / n], Round/Hash/Chord
    get [y = max 1 (total / h)].  This is how the paper derives the
    "comparable overhead" configurations (e.g. budget 200 with h=100,
    n=10 gives x=20, y=2). *)

val analytic_storage : config -> n:int -> h:int -> float
(** The strategy's Table-1 closed-form storage cost (see
    {!Strategy_intf.S.analytic_storage}). *)

val storage_formula : config -> string
(** The Table-1 formula as a string, e.g. ["x*n"] — registry metadata,
    for table headings. *)

type t

val create :
  ?seed:int -> ?obs:Plookup_obs.Obs.t -> ?repair:Repair.config -> n:int -> config -> t
(** Build a fresh cluster of [n] servers running the strategy.

    [obs] is handed to the {!Cluster}: the service's message counters
    land on its metrics registry and its trace (when enabled) records
    the wire traffic.

    [repair] (default {!Repair.disabled}) activates the self-healing
    layer: with any mode other than [Off], the strategy handler is
    wrapped by a {!Repair.t} built with the strategy's
    {!Strategy_intf.S.repair_plan}.  It is the only code that changes a
    recovered server's store: with [Off], no strategy heals one itself.

    Raises [Invalid_argument] when the config names an unregistered
    strategy or its parameters are malformed. *)

val of_cluster : ?repair:Repair.config -> Cluster.t -> config -> t
(** Run the strategy on an existing cluster (rebinding its network
    handler).  Used by experiments that inject failures between place
    and lookup.  [repair] is as for {!create}; with a mode other than
    [Off] it raises [Invalid_argument] when the cluster already stores
    entries (see {!Repair.install}). *)

val cluster : t -> Cluster.t
val config : t -> config
val name : t -> string
val n : t -> int

val repair : t -> Repair.t option
(** The repair layer, when one was activated at construction. *)

val discipline : t -> Strategy_intf.discipline
(** How the strategy's clients probe, read once at construction: what
    {!partial_lookup} runs, and what {!Probe.order_list} turns into an
    order for {!Async_client.lookup}. *)

val place : ?budget:int -> t -> Entry.t list -> unit
(** Initial batch placement.  [budget] caps total stored copies and is
    honoured by Round-Robin, Hash and Chord (the Fig. 6 "inadequate
    storage" regime); the other strategies bound storage through their
    own parameter and ignore it. *)

val add : t -> Entry.t -> unit
val delete : t -> Entry.t -> unit

val can_update : t -> bool
(** Whether an [add]/[delete] issued now would be accepted by the
    strategy: for Round-Robin, a coordinator replica is up (and the
    placement was not truncated); for the others, any server is up.
    When false the update would vanish without a trace — a real client
    would observe the missing reply, so workloads use this to model
    failing fast instead of silently losing writes. *)

val partial_lookup : ?reachable:(int -> bool) -> t -> int -> Lookup_result.t
(** [partial_lookup t target]: retrieve [target] distinct entries
    (fewer only when the servers reached hold fewer), contacting as few
    servers as the strategy allows: {!Probe.lookup} with the service's
    {!discipline}.  [reachable] restricts which servers this client may
    contact (Section 7.2).  Raises [Invalid_argument] when
    [target <= 0]. *)

val partial_lookup_pref :
  ?reachable:(int -> bool) -> t -> cost:(Entry.t -> float) -> int -> Lookup_result.t
(** Client-preference lookups (Section 7.1): contact servers as usual
    but keep collecting answers from *every* reachable server, then
    return the [target] entries with the lowest [cost].  The result's
    [servers_contacted] reflects the exhaustive probe.  Raises
    [Invalid_argument] when [target <= 0], before contacting anyone. *)

val all_configs : ?ablations:bool -> budget:int -> n:int -> h:int -> unit -> config list
(** Every registered strategy parameterized for a common storage budget
    — convenient for comparison tables.  Ordered by registry rank
    (FullReplication first).  [ablations] (default false) also includes
    the ablation variants (RandomServerReplacing, RoundRobinHA). *)
