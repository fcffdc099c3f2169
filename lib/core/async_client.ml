module Engine = Plookup_sim.Engine
module Net = Plookup_net.Net
module Trace = Plookup_obs.Trace
module Span = Plookup_obs.Span

type outcome = {
  result : Lookup_result.t;
  started_at : float;
  completed_at : float;
  attempts : int;
  retries : int;
  timeouts : int;
  duplicates : int;
  busies : int;
  hedges : int;
  breaker_skips : int;
  gave_up : bool;
}

let elapsed o = o.completed_at -. o.started_at

(* Per-server circuit breaker, shared across the lookups of one client
   population.  Closed until [threshold] consecutive failures, then open
   for [cooldown] time units; once the cooldown passes the next contact
   is the half-open probe — success closes the circuit, failure re-opens
   it for another cooldown (the failure count stays saturated, so one
   bad probe is enough). *)
module Breaker = struct
  type server_state = { mutable fails : int; mutable open_until : float }

  type t = { threshold : int; cooldown : float; states : server_state array }

  let create ?(threshold = 3) ?(cooldown = 50.) ~n () =
    if threshold < 1 then invalid_arg "Breaker.create: threshold must be >= 1";
    if cooldown <= 0. then invalid_arg "Breaker.create: cooldown must be positive";
    if n <= 0 then invalid_arg "Breaker.create: n must be positive";
    { threshold;
      cooldown;
      states = Array.init n (fun _ -> { fails = 0; open_until = neg_infinity }) }

  let allow t server ~now = t.states.(server).open_until <= now
  let is_open t server ~now = not (allow t server ~now)

  let record t server ~now ~ok =
    let s = t.states.(server) in
    if ok then begin
      s.fails <- 0;
      s.open_until <- neg_infinity
    end
    else begin
      s.fails <- s.fails + 1;
      if s.fails >= t.threshold then begin
        s.fails <- t.threshold;
        s.open_until <- now +. t.cooldown
      end
    end
end

(* The factor each unanswered attempt stretches the next timeout by. *)
let backoff = 2.

(* One lookup is a small state machine: [order] of servers not yet
   contacted, [inflight] contacts awaiting a reply, [seen] the merged
   distinct entries.  Replies and timeouts race per attempt; a flag per
   attempt makes the timeout a no-op once the reply has won (and vice
   versa).  A timed-out attempt is retried against the same server with
   the timeout doubled ([backoff]), up to [retries] retries, before the
   contact is abandoned and the next server in the order tried.

   The tail-tolerance extensions (all off by default, and adding no
   engine events or draws when off): [deadline] finishes the lookup
   with whatever has been merged once the budget is spent; [hedge]
   launches a backup contact to the next candidate when the current one
   has not resolved within the hedge delay (first reply wins, the loser
   is ignored like any late datagram); [breaker] skips servers whose
   circuit is open; [jitter] replaces the deterministic exponential
   backoff with decorrelated jitter draws.  A [Busy] nack abandons the
   contact immediately — no retry against a server that told us to go
   away — which is what makes nack-shedding cheaper than timeouts. *)
type state = {
  cluster : Cluster.t;
  engine : Engine.t;
  latency : unit -> float;
  timeout : float;
  retries_allowed : int;
  wave : int;
  target : int;
  hedge : float option;
  breaker : Breaker.t option;
  jitter : Plookup_util.Rng.t option;
  seen : Answer_set.t;
  order : Probe_order.t;
  mutable inflight : int;
  mutable contacted : int;
  mutable attempts : int;
  mutable retries : int;
  mutable timeouts : int;
  mutable duplicates : int;
  mutable busies : int;
  mutable hedges : int;
  mutable breaker_skips : int;
  mutable gave_up : bool;
  mutable finished : bool;
  started_at : float;
  k : outcome -> unit;
}

let finish st =
  if not st.finished then begin
    st.finished <- true;
    let entries = Answer_set.pick st.seen ~rng:(Cluster.rng st.cluster) ~target:st.target in
    st.k
      { result =
          { Lookup_result.entries; servers_contacted = st.contacted; target = st.target };
        started_at = st.started_at;
        completed_at = Engine.now st.engine;
        attempts = st.attempts;
        retries = st.retries;
        timeouts = st.timeouts;
        duplicates = st.duplicates;
        busies = st.busies;
        hedges = st.hedges;
        breaker_skips = st.breaker_skips;
        gave_up = st.gave_up }
  end

let satisfied st = Answer_set.length st.seen >= st.target

(* Take the next contactable server from the order, dropping (and
   counting) servers whose breaker circuit is open.  Without a breaker
   this is exactly "take the next". *)
let rec next_candidate st =
  match Probe_order.next st.order with
  | None -> None
  | Some server -> (
    match st.breaker with
    | Some b when not (Breaker.allow b server ~now:(Engine.now st.engine)) ->
      st.breaker_skips <- st.breaker_skips + 1;
      next_candidate st
    | _ -> Some server)

let record_breaker st server ~ok =
  match st.breaker with
  | Some b -> Breaker.record b server ~now:(Engine.now st.engine) ~ok
  | None -> ()

let rec pump st =
  if not st.finished then begin
    if satisfied st then finish st
    else if st.inflight < st.wave then begin
      match next_candidate st with
      | Some server ->
        contact st server;
        pump st
      | None ->
        (* The order is exhausted (or everything left was
           breaker-skipped); once nothing is in flight either, the
           lookup is over. *)
        if st.inflight = 0 then finish st
    end
  end

and contact st server =
  (* A contacted server is one we sent at least one request to — counted
     at send time, so lookups that go expensive through timeouts report
     their true cost (the reply-time count under-reported exactly when
     failures made lookups expensive). *)
  st.contacted <- st.contacted + 1;
  st.inflight <- st.inflight + 1;
  (* [live] spans the whole contact (all its retries): the hedge timer
     only fires while the contact is still unresolved. *)
  let live = ref true in
  (match st.hedge with
  | Some delay ->
    ignore
      (Engine.schedule_after st.engine ~delay (fun _ ->
           if !live && (not st.finished) && not (satisfied st) then begin
             match next_candidate st with
             | Some backup ->
               st.hedges <- st.hedges + 1;
               contact st backup
             | None -> ()
           end))
  | None -> ());
  attempt st server ~live ~tries_left:st.retries_allowed ~timeout:st.timeout

and attempt st server ~live ~tries_left ~timeout =
  st.attempts <- st.attempts + 1;
  let answered = ref false in
  (* The timeout and the reply race; whichever fires second is a no-op.
     A reply arriving after the timeout is simply dropped, like a
     datagram arriving after the client moved on. *)
  let timed_out = ref false in
  let tr = (Cluster.obs st.cluster).Plookup_obs.Obs.trace in
  ignore
    (Engine.schedule_after st.engine ~delay:timeout (fun _ ->
         if not !answered && not st.finished then begin
           timed_out := true;
           st.timeouts <- st.timeouts + 1;
           record_breaker st server ~ok:false;
           let tid =
             if Trace.enabled tr then
               Trace.emit_timeout tr ~time:(Engine.now st.engine) ~dst:server
                 ~after:timeout
             else 0
           in
           if tries_left > 0 then begin
             st.retries <- st.retries + 1;
             if Trace.enabled tr then
               Trace.emit_retry tr ~time:(Engine.now st.engine) ~cause:tid ~dst:server
                 ~attempt:(st.retries_allowed - tries_left + 2);
             let next_timeout =
               match st.jitter with
               | Some rng ->
                 (* Decorrelated jitter: uniform between the base
                    timeout and 3x the previous one, so synchronized
                    clients spread out instead of retrying in storms. *)
                 Plookup_util.Dist.uniform_in rng ~lo:st.timeout ~hi:(timeout *. 3.)
               | None -> timeout *. backoff
             in
             attempt st server ~live ~tries_left:(tries_left - 1) ~timeout:next_timeout
           end
           else begin
             live := false;
             st.inflight <- st.inflight - 1;
             pump st
           end
         end));
  Net.call_async (Cluster.net st.cluster) st.engine
    ~latency:(fun ~src:_ ~dst:_ -> st.latency ())
    ~src:Net.Client ~dst:server (Msg.lookup st.target)
    (fun reply ->
      if (not !timed_out) && not st.finished then begin
        if !answered then
          (* A fault-injected duplicate of a reply already merged. *)
          st.duplicates <- st.duplicates + 1
        else begin
          answered := true;
          live := false;
          st.inflight <- st.inflight - 1;
          (match reply with
          | Msg.Busy ->
            (* Load-shed fast nack: the server never processed the
               request, so move straight to the next candidate. *)
            st.busies <- st.busies + 1;
            record_breaker st server ~ok:false
          | Msg.Entries entries ->
            record_breaker st server ~ok:true;
            Answer_set.add st.seen entries
          | Msg.Ack | Msg.Candidate _ | Msg.Digest _ -> record_breaker st server ~ok:true);
          pump st
        end
      end)

let make_state cluster engine ~latency ~timeout ~retries ~wave ~t ~hedge
    ~breaker ~jitter ~order k =
  { cluster;
    engine;
    latency;
    timeout;
    retries_allowed = retries;
    wave;
    target = t;
    hedge;
    breaker;
    jitter;
    (* One set per lookup, sized for its target: lookups overlap in
       simulated time, so they cannot share the cluster's set. *)
    seen = Answer_set.create ~expect:(min t 64) ();
    order;
    inflight = 0;
    contacted = 0;
    attempts = 0;
    retries = 0;
    timeouts = 0;
    duplicates = 0;
    busies = 0;
    hedges = 0;
    breaker_skips = 0;
    gave_up = false;
    finished = false;
    started_at = Engine.now engine;
    k }

let schedule_deadline st deadline =
  match deadline with
  | Some budget ->
    ignore
      (Engine.schedule_after st.engine ~delay:budget (fun _ ->
           if not st.finished then begin
             st.gave_up <- true;
             finish st
           end))
  | None -> ()

(* The cursor over [order] is built when (and only if) the lookup
   probes: a cache-served lookup builds no order. *)
let lookup cluster engine ~latency ~timeout ?(retries = 0) ?deadline ?hedge
    ?breaker ?jitter ?cache ~order ?(wave = 1) ~t k =
  if t <= 0 then invalid_arg "Async_client.lookup: t must be positive";
  if timeout <= 0. then invalid_arg "Async_client.lookup: timeout must be positive";
  if wave <= 0 then invalid_arg "Async_client.lookup: wave must be positive";
  if retries < 0 then invalid_arg "Async_client.lookup: retries must be non-negative";
  (match deadline with
  | Some d when d <= 0. -> invalid_arg "Async_client.lookup: deadline must be positive"
  | _ -> ());
  (match hedge with
  | Some d when d <= 0. -> invalid_arg "Async_client.lookup: hedge must be positive"
  | _ -> ());
  match cache with
  | None ->
    let st =
      make_state cluster engine ~latency ~timeout ~retries ~wave ~t ~hedge
        ~breaker ~jitter ~order:(Probe_order.of_list order) k
    in
    schedule_deadline st deadline;
    (* Launch lazily from the engine so the caller can schedule lookups
       "now" before running the engine. *)
    ignore (Engine.schedule_after engine ~delay:0. (fun _ -> pump st))
  | Some (c, key) ->
    (* The cache is consulted at launch time (engine time), so the
       verdict reflects every probe already in flight.  Cache-served
       lookups contact no server, draw nothing and schedule nothing:
       their outcome carries zero attempts and the leader's result. *)
    ignore
      (Engine.schedule_after engine ~delay:0. (fun _ ->
           let started_at = Engine.now engine in
           let served result ~now =
             k
               { result;
                 started_at;
                 completed_at = now;
                 attempts = 0;
                 retries = 0;
                 timeouts = 0;
                 duplicates = 0;
                 busies = 0;
                 hedges = 0;
                 breaker_skips = 0;
                 gave_up = false }
           in
           let probe k =
             let st =
               make_state cluster engine ~latency ~timeout ~retries ~wave ~t
                 ~hedge ~breaker ~jitter ~order:(Probe_order.of_list order) k
             in
             schedule_deadline st deadline;
             pump st
           in
           let complete (o : outcome) =
             Client_cache.complete c ~key ~now:(Engine.now engine)
               ~ok:((not o.gave_up) && Lookup_result.satisfied o.result)
               ~attempts:o.attempts o.result
           in
           match Client_cache.lookup c ~key ~now:started_at ~waiter:served with
           | Client_cache.Hit r | Client_cache.Stale_wait r -> served r ~now:started_at
           | Client_cache.Join -> ()
           | Client_cache.Lead ->
             probe (fun o ->
                 complete o;
                 k o)
           | Client_cache.Stale r ->
             (* Stale-while-revalidate: the caller is answered from the
                cache immediately; the probe runs on in the background
                and only refreshes the entry (and any waiters). *)
             served r ~now:started_at;
             probe complete))
