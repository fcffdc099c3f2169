(** The single source of truth for which placement strategies exist.

    Strategy modules register themselves at module-initialization time
    (the [lib/core] library is linked with [-linkall] so an otherwise
    unreferenced strategy module still registers).  Everything that
    needs to enumerate or resolve strategies — {!Service} parsing and
    [all_configs], the CLI, the experiments, the bench — goes through
    this module, so adding a strategy is one new module and nothing
    else.  See DESIGN.md, "Adding a placement strategy". *)

type entry = (module Strategy_intf.S)

val register : entry -> unit
(** Called once per strategy module at init.  Raises [Invalid_argument]
    on a duplicate name or parse key. *)

val all : unit -> entry list
(** Every registered strategy, sorted by [meta.rank] (ablations
    included; filter on [meta.ablation] to exclude them). *)

val find : string -> entry option
(** Resolve a canonical name or parse key, case-insensitively. *)

val find_exn : string -> entry
(** Like {!find}; raises [Invalid_argument] on unknown names. *)

val spelling : Strategy_intf.meta -> string
(** The parameterized spelling shown in listings and errors:
    ["fixed-X"], ["roundrobinha-YxK"], ["full"]. *)

val parse : string -> (string * int list, string) result
(** Parse e.g. ["fixed-20"], ["roundrobinha-2x3"], ["full"] into
    (canonical name, parameters), validating arity and positivity.
    Unknown names get a did-you-mean suggestion based on edit
    distance. *)
