(** Multi-key lookup directory.

    The paper (Section 2) treats the multi-key service as a family of
    independent single-key strategies, and notes that different keys may
    want different strategies: "frequently updated keys require
    strategies with small update costs, while static keys want low
    lookup costs and fairness".  [Directory] packages exactly that: each
    key gets its own {!Service} (and server-side state), created on
    first use with the directory default or a per-key override. *)

open Plookup_store

type t

val create :
  ?seed:int -> ?obs:Plookup_obs.Obs.t -> n:int -> default:Service.config -> unit -> t
(** A directory whose keys are served by [n]-server strategy instances.
    Per-key services derive their seeds from [seed] and the key, so a
    directory is fully deterministic.  [obs], when given, is shared by
    every per-key service, so one registry aggregates the whole
    directory's traffic (per-key networks keep exact per-instance
    accessors regardless). *)

val n : t -> int

val declare : ?config:Service.config -> t -> string -> unit
(** Pre-register a key, optionally with its own strategy.  Re-declaring
    an existing key is an error ([Invalid_argument]) — the placement
    already lives under its original strategy. *)

val mem : t -> string -> bool
val keys : t -> string list
(** Sorted. *)

val config_of : t -> string -> Service.config option
val service_of : t -> string -> Service.t option
(** Escape hatch for metrics over a single key's placement. *)

val place : t -> key:string -> Entry.t list -> unit
(** Creates the key with the default strategy if it is new. *)

val add : t -> key:string -> Entry.t -> unit
val delete : t -> key:string -> Entry.t -> unit
(** Both create the key (empty) if it is new, mirroring the paper's
    [add]/[delete] semantics on a fresh key. *)

val partial_lookup : ?reachable:(int -> bool) -> t -> key:string -> int -> Lookup_result.t
(** Unknown keys return the empty result ("Else, return {}").  Raises
    [Invalid_argument] when the target is [<= 0], whether or not the key
    is known. *)

val partial_lookup_pref :
  ?reachable:(int -> bool) ->
  t ->
  key:string ->
  cost:(Entry.t -> float) ->
  int ->
  Lookup_result.t
(** {!Service.partial_lookup_pref} on the key's service; unknown keys
    return the empty result.  Raises [Invalid_argument] when the target
    is [<= 0], whether or not the key is known. *)

val total_storage : t -> int
(** Combined storage over every key's servers. *)

val key_count : t -> int
