(** Replay an update stream against a service, with hooks for sampling
    between events — the measurement loop behind Figs. 12–14. *)

type probe_point = {
  index : int;  (** events applied so far *)
  time : float;  (** simulation time of the event just applied *)
  elapsed : float;  (** time since the previous event (since time 0 for the first) *)
}

val run :
  ?on_event:(probe_point -> unit) -> Plookup.Service.t -> Update_gen.stream -> unit
(** Place the initial population, then apply every event in order.
    [on_event] fires after each event is applied. *)

val run_timed :
  service:Plookup.Service.t ->
  stream:Update_gen.stream ->
  failed:(Plookup.Service.t -> bool) ->
  float
(** Time-weighted failure fraction (Fig. 12): the share of simulated
    time during which [failed service] holds, evaluated on each
    inter-event interval (the system is constant between events). *)

val messages_for_updates :
  service:Plookup.Service.t -> stream:Update_gen.stream -> int
(** Total messages received by servers while replaying the update events
    only — placement traffic excluded (Fig. 14 counts update overhead). *)
