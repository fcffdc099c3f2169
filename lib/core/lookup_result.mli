(** The outcome of one [partial_lookup(t)]. *)

open Plookup_store

type t = {
  entries : Entry.t list;
      (** Distinct entries returned by the contacted servers, never more
          than [target]: when the merged answers overshoot, the client
          keeps a uniform [target]-subset.  Falls short only when the
          servers reached hold fewer than [target] distinct entries. *)
  servers_contacted : int;
      (** How many servers answered — the paper's client lookup cost for
          this lookup. *)
  target : int;
}

val satisfied : t -> bool
(** Whether at least [target] distinct entries were retrieved. *)

val count : t -> int
val empty : target:int -> t
val pp : Format.formatter -> t -> unit
