(** Dense bitsets over [0, capacity).

    The metrics layer (coverage, fault tolerance) works on snapshots of
    which entries each server stores; entry ids are dense small integers,
    so bitsets make union/count over thousands of heuristic iterations
    cheap. *)

type t

val create : int -> t
(** [create capacity] is an empty set over [\[0, capacity)]. *)

val capacity : t -> int
val add : t -> int -> unit
val remove : t -> int -> unit
val mem : t -> int -> bool
val cardinal : t -> int
val clear : t -> unit
val copy : t -> t
val union_into : t -> t -> unit
(** [union_into dst src] adds every member of [src] to [dst]. *)

val equal : t -> t -> bool

val is_empty : t -> bool
val iter : (int -> unit) -> t -> unit
val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
val to_list : t -> int list
val of_list : int -> int list -> t
(** [of_list capacity elements]. *)
