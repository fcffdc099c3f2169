module Metrics = Plookup_obs.Metrics
module Trace = Plookup_obs.Trace

(* LRU list node: intrusive doubly-linked, most recently used at the
   head.  [expires] is the end of the fresh window; the stale-servable
   window extends [swr] past it. *)
type node = {
  key : int;
  mutable result : Lookup_result.t;
  mutable expires : float;
  mutable prev : node option;
  mutable next : node option;
}

type counters = {
  c_hits : Metrics.counter;
  c_misses : Metrics.counter;
  c_stale : Metrics.counter;
  c_coalesced : Metrics.counter;
  c_evictions : Metrics.counter;
}

type stats = {
  hits : int;
  misses : int;
  stale_served : int;
  coalesced : int;
  evictions : int;
  refreshes : int;
  refresh_sends : int;
}

type t = {
  capacity : int;
  ttl : float;
  swr : float;
  table : (int, node) Hashtbl.t;
  mutable head : node option;  (* most recently used *)
  mutable tail : node option;  (* least recently used *)
  mutable size : int;
  (* Singleflight: one waiter queue per key with a probe in flight.  The
     bool marks a background refresh (its sends reach no caller, so they
     are accounted separately).  Waiters are kept in arrival order. *)
  flights : (int, bool * (Lookup_result.t -> now:float -> unit) Queue.t) Hashtbl.t;
  counters : counters option;
  trace : Trace.t option;
  mutable hits : int;
  mutable misses : int;
  mutable stale_served : int;
  mutable coalesced : int;
  mutable evictions : int;
  mutable refreshes : int;
  mutable refresh_sends : int;
}

let create ?obs ?(ttl = 100.) ?(swr = 0.) ~capacity () =
  if capacity < 1 then invalid_arg "Client_cache.create: capacity must be >= 1";
  if ttl <= 0. then invalid_arg "Client_cache.create: ttl must be positive";
  if swr < 0. then invalid_arg "Client_cache.create: swr must be non-negative";
  let counters =
    Option.map
      (fun o ->
        let m = o.Plookup_obs.Obs.metrics in
        { c_hits = Metrics.counter m "client.cache.hits";
          c_misses = Metrics.counter m "client.cache.misses";
          c_stale = Metrics.counter m "client.cache.stale_served";
          c_coalesced = Metrics.counter m "client.cache.coalesced";
          c_evictions = Metrics.counter m "client.cache.evictions" })
      obs
  in
  { capacity;
    ttl;
    swr;
    table = Hashtbl.create (2 * capacity);
    head = None;
    tail = None;
    size = 0;
    flights = Hashtbl.create 16;
    counters;
    trace = Option.map (fun o -> o.Plookup_obs.Obs.trace) obs;
    hits = 0;
    misses = 0;
    stale_served = 0;
    coalesced = 0;
    evictions = 0;
    refreshes = 0;
    refresh_sends = 0 }

let cardinal t = t.size
let capacity t = t.capacity

let stats t =
  { hits = t.hits;
    misses = t.misses;
    stale_served = t.stale_served;
    coalesced = t.coalesced;
    evictions = t.evictions;
    refreshes = t.refreshes;
    refresh_sends = t.refresh_sends }

(* ------------------------------------------------------------------ *)
(* LRU plumbing                                                        *)

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.head;
  n.prev <- None;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let touch t n =
  match t.head with
  | Some h when h == n -> ()
  | _ ->
    unlink t n;
    push_front t n

let remove t n =
  unlink t n;
  Hashtbl.remove t.table n.key;
  t.size <- t.size - 1

let evict_lru t =
  match t.tail with
  | None -> ()
  | Some n ->
    remove t n;
    t.evictions <- t.evictions + 1;
    Option.iter (fun c -> Metrics.incr c.c_evictions) t.counters

let insert t ~key ~now result =
  match Hashtbl.find_opt t.table key with
  | Some n ->
    n.result <- result;
    n.expires <- now +. t.ttl;
    touch t n
  | None ->
    if t.size >= t.capacity then evict_lru t;
    let n = { key; result; expires = now +. t.ttl; prev = None; next = None } in
    Hashtbl.replace t.table key n;
    push_front t n;
    t.size <- t.size + 1

(* ------------------------------------------------------------------ *)
(* The protocol                                                        *)

type verdict =
  | Hit of Lookup_result.t
  | Stale of Lookup_result.t
  | Stale_wait of Lookup_result.t
  | Join
  | Lead

let mark_hit t ~now =
  match t.trace with
  | Some tr when Trace.enabled tr -> Trace.record tr ~time:now ~label:"client.cache" "hit"
  | _ -> ()

let miss t ~key ~waiter =
  t.misses <- t.misses + 1;
  Option.iter (fun c -> Metrics.incr c.c_misses) t.counters;
  match Hashtbl.find_opt t.flights key with
  | Some (_, waiters) ->
    Queue.add waiter waiters;
    t.coalesced <- t.coalesced + 1;
    Option.iter (fun c -> Metrics.incr c.c_coalesced) t.counters;
    Join
  | None ->
    Hashtbl.replace t.flights key (false, Queue.create ());
    Lead

let lookup t ~key ~now ~waiter =
  match Hashtbl.find_opt t.table key with
  | None -> miss t ~key ~waiter
  | Some n ->
    if now < n.expires then begin
      t.hits <- t.hits + 1;
      Option.iter (fun c -> Metrics.incr c.c_hits) t.counters;
      touch t n;
      mark_hit t ~now;
      Hit n.result
    end
    else if now < n.expires +. t.swr then begin
      (* Stale but servable: serve it, and make this caller the
         background refresher unless one is already in flight. *)
      t.stale_served <- t.stale_served + 1;
      Option.iter (fun c -> Metrics.incr c.c_stale) t.counters;
      touch t n;
      mark_hit t ~now;
      if Hashtbl.mem t.flights key then Stale_wait n.result
      else begin
        Hashtbl.replace t.flights key (true, Queue.create ());
        t.refreshes <- t.refreshes + 1;
        Stale n.result
      end
    end
    else begin
      (* Dead entry: drop it lazily and fall through to the miss path. *)
      remove t n;
      miss t ~key ~waiter
    end

let complete t ~key ~now ~ok ~attempts result =
  let waiters =
    match Hashtbl.find_opt t.flights key with
    | None -> None
    | Some (refresh, waiters) ->
      Hashtbl.remove t.flights key;
      if refresh then t.refresh_sends <- t.refresh_sends + attempts;
      Some waiters
  in
  (* A failed probe is not cached and leaves the previous entry (if any)
     alone: a stale-while-revalidate refresh that comes back short does
     not erase the answer it set out to freshen. *)
  if ok then insert t ~key ~now result;
  match waiters with
  | None -> ()
  | Some waiters -> Queue.iter (fun k -> k result ~now) waiters

let invalidate t ~key =
  match Hashtbl.find_opt t.table key with None -> () | Some n -> remove t n
