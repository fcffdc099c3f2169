(** Synthetic update streams (Section 6.1).

    Adds arrive as a Poisson process (the paper uses one add per
    lambda = 10 time units); each added entry lives for a random
    lifetime — exponential or Zipf-like — scaled to expectation
    [lambda * h], so the system holds [h] entries in steady state.  The
    stream holds its events as two parallel arrays, their times and
    their operations, which callers replay in index order, exactly like
    the paper's event-driven simulation.

    The generator also emits an initial population of [h] entries (the
    steady state to start from) whose deletes are scheduled like any
    other entry's.

    Events are produced in time order by merging the Poisson add clock
    with a queue of pending deletes, and generation stops at the
    [updates]-th event.  The draws are [h] initial lifetimes, then an
    interarrival and a lifetime per add, but only for the adds the
    stream actually reaches: [generate] consumes a prefix of that
    sequence, so the caller's [rng] is left in a state that depends on
    how many adds were needed.  Pass a fresh generator per stream. *)

open Plookup_store

type op = Add of Entry.t | Delete of Entry.t

type spec = {
  steady_entries : int;  (** h: expected entries in steady state *)
  add_period : float;  (** lambda: mean time units between adds (10 in the paper) *)
  tail_heavy : bool;  (** false = exponential lifetimes, true = Zipf-like *)
  updates : int;  (** events to generate after the initial population *)
}

val default_spec : spec
(** h=100, lambda=10, exponential, 10000 updates — the paper's default. *)

type stream = {
  initial : Entry.t list;  (** the steady-state population placed at time 0 *)
  times : float array;  (** [times.(i)] is when event [i] happens; non-decreasing *)
  ops : op array;  (** [ops.(i)] is event [i]'s update; as long as [times] *)
}

val generate : Plookup_util.Rng.t -> spec -> stream
(** Exactly [spec.updates] events, written in place into the two arrays.
    Deletes of entries whose lifetime ends beyond the last event are
    never emitted (the entry simply outlives the simulation).  Equal
    times keep birth order: an entry's delete follows its own add but
    precedes the add of any entry born after it. *)

val live_after : stream -> int -> Entry.t list
(** The entries alive after applying the first [k] events (all of them
    when [k] exceeds the stream) to the initial population — for
    fairness measurements mid-replay. *)
