(** The first-class signature every placement strategy implements.

    A strategy is the paper's unit of design: a server-side handler for
    the {!Msg.data} and {!Msg.strategy} planes plus a client-side
    probing discipline, which it names as data ({!discipline}) for
    {!Probe.lookup} to run.  Packing one as a [(module S)] lets
    {!Strategy_registry} carry all of them behind one value, which is
    what makes {!Service}, the CLI, the experiments and the bench
    strategy-agnostic.  See DESIGN.md, "Adding a placement strategy". *)

open Plookup_store

(** How the strategy's placement is described to the {!Repair} layer.

    [Mirror]: every up server should hold every entry the strategy
    tracked (FullReplication, Fixed-x).

    [Owner_function f]: [f e] names the servers that should hold [e],
    and it is a fixed function of the entry: it reads nothing that an
    update, a failure or a recovery changes, and draws nothing.  Repair
    reads an entry's owners once and keeps them until the entry's
    delete or the next placement.  Hash-y, Chord-y, DxHash-y and
    MultiProbe-YxK get this plan from {!Owner_placement}; a new
    strategy whose owners depend only on the entry and the cluster's
    seed and size picks it too.

    [Assigned f]: [f e] names the servers that should hold [e], or
    [None] when the assignment is currently unknowable (truncated
    Round-Robin), and the answer moves with the strategy's state (a
    Round-Robin delete moves the head entry into the hole).  Repair
    asks again at every repair event (daemon tick or status change).
    A strategy whose owners depend on anything an update or a status
    change can move picks this one.

    [Free x]: contents are a random x-subset per server by design;
    repair maintains an aggregate degree instead of per-server
    ownership (RandomServer-x). *)
type plan =
  | Mirror
  | Owner_function of (Entry.t -> int list)
  | Assigned of (Entry.t -> int list option)
  | Free of int

(** How a client probes the strategy's servers, the paper's per-strategy
    lookup rule; {!Probe.lookup} runs it.

    [One_server]: ask one random reachable up server and take its
    answer, however short: every server holds the same entries
    (FullReplication, Fixed-x).

    [Random]: ask reachable up servers in uniformly random order until
    [t] distinct entries are in hand (RandomServer-x and the
    owner-function strategies).

    [Stride y]: ask servers [y] apart from a random start, the fewest
    shared entries per contact, and fall back to random order when a
    server is down or unreachable (Round-Robin-y). *)
type discipline =
  | One_server
  | Random
  | Stride of int

type meta = {
  name : string;
      (** Canonical name, the paper's spelling: ["RoundRobin"],
          ["Hash"], ... Formatted with parameters by
          {!Service.config_name} (e.g. ["RoundRobinHA-2x3"]). *)
  keys : string list;
      (** Lowercase spellings accepted by the parser, e.g.
          [["roundrobin"; "round_robin"; "round"]].  The first key is
          the canonical one shown in listings and suggestions. *)
  arity : int;  (** Number of integer parameters: 0, 1 or 2. *)
  param_doc : string;
      (** What the parameter(s) mean, for the CLI [strategies]
          listing; [""] when [arity = 0]. *)
  storage_doc : string;
      (** The Table-1 storage-cost formula as a string, e.g. ["x*n"]. *)
  ablation : bool;
      (** Variant studied as an ablation (Section 5.3 replacement,
          footnote-1 coordinator replication): excluded from
          {!Service.all_configs} unless asked for. *)
  rank : int;
      (** Presentation order in listings and comparison tables (the
          registry sorts by it; registration order is irrelevant). *)
}

module type S = sig
  type t

  val meta : meta

  val analytic_storage : n:int -> h:int -> params:int list -> float
  (** The Table-1 closed form: expected total entry copies stored when
      managing [h] entries on [n] servers. *)

  val params_for_budget : n:int -> h:int -> total:int -> params:int list -> int list
  (** Re-parameterize so [analytic_storage] fits a budget of [total]
      entry slots (Fixed/RandomServer: [x = total / n]; Round/Hash/
      Chord: [y = total / h]; floor 1).  [params] carries the current
      parameters so secondary ones (RoundRobinHA's [k]) survive. *)

  val create : Cluster.t -> params:int list -> t
  (** Bind the strategy to the cluster (installing its network
      handler).  A strategy never heals a recovered server's store
      itself: that is the {!Repair} layer's job, driven by
      {!repair_plan}.  Raises [Invalid_argument] when [params] does not
      match [meta.arity] or a parameter is out of range. *)

  val place : t -> ?budget:int -> Entry.t list -> unit
  val add : t -> Entry.t -> unit
  val delete : t -> Entry.t -> unit
  val discipline : t -> discipline
  val can_update : t -> bool
  val repair_plan : t -> plan
end
