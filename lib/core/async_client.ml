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
   contacted, [contacts] probed so far, [inflight] of them awaiting a
   reply, [seen] the merged distinct entries.  A timed-out attempt is
   retried against the same server with the timeout doubled
   ([backoff]), up to [retries] retries, before the contact is abandoned
   and the next server in the order tried.

   The tail-tolerance extensions (all off by default, and adding no
   draws when off): [deadline] finishes the lookup with whatever has
   been merged once the budget is spent; [hedge] launches a backup
   contact to the next candidate when the current one has not resolved
   within the hedge delay (first reply wins, the loser is ignored like
   any late datagram); [breaker] skips servers whose circuit is open;
   [jitter] replaces the deterministic exponential backoff with
   decorrelated jitter draws.  A [Busy] nack abandons the contact
   immediately — no retry against a server that told us to go away —
   which is what makes nack-shedding cheaper than timeouts.

   Expiries — the deadline, each contact's hedge, each attempt's
   timeout — are due times in the records below, [infinity] when not
   pending, each with the engine stamp ({!Engine.reserve}) taken when it
   was registered.  The lookup keeps at most one engine event armed, at
   its earliest expiry's (due time, stamp), so it fires among other
   events exactly where that expiry's own event would have; it fires
   that one expiry and re-arms at the next.  Arming happens at the end
   of every entry point (launch, reply, timer); an earlier expiry
   cancels the armed event, a cleared one leaves it to fire dead. *)
type contact = {
  lookup : cell;
  server : int;
  mutable attempt : int; (* the current attempt, from 1 *)
  mutable answered : bool; (* the current attempt's reply arrived *)
  mutable limit : float; (* the current attempt's timeout *)
  mutable timeout_at : float;
  mutable timeout_stamp : int;
  mutable hedge_at : float; (* pending only while the contact is unresolved *)
  mutable hedge_stamp : int;
}

(* The armed event and every reply reach the lookup only through its
   cell, which [finish] clears: a cancelled event stays in the queue
   until it surfaces, and a late reply lands whenever it lands, and
   neither may keep a finished lookup alive. *)
and cell = { mutable st : state option }

and state = {
  cluster : Cluster.t;
  engine : Engine.t;
  latency : src:Net.sender -> dst:int -> float;
  request : Msg.t;
  timeout : float;
  retries_allowed : int;
  wave : int;
  target : int;
  hedge : float option;
  breaker : Breaker.t option;
  jitter : Plookup_util.Rng.t option;
  seen : Answer_set.Buffer.t;
  order : Probe_order.t;
  cell : cell;
  wake : Engine.t -> unit; (* the armed event's action *)
  mutable contacts : contact list;
  deadline_at : float;
  deadline_stamp : int;
  mutable armed : Engine.event_id option;
  mutable armed_at : float;
  mutable armed_stamp : int;
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
    st.cell.st <- None;
    (match st.armed with Some e -> Engine.cancel st.engine e | None -> ());
    let entries =
      Answer_set.Buffer.pick st.seen ~rng:(Cluster.rng st.cluster) ~target:st.target
    in
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

let satisfied st = Answer_set.Buffer.length st.seen >= st.target

(* Whether the expiry due at [at1], stamped [stamp1], fires before the
   one due at [at2], stamped [stamp2]. *)
let[@inline] before at1 stamp1 at2 stamp2 = at1 < at2 || (at1 = at2 && stamp1 < stamp2)

(* A contact's first pending expiry. *)
let[@inline] hedge_first c = before c.hedge_at c.hedge_stamp c.timeout_at c.timeout_stamp
let[@inline] due c = if hedge_first c then c.hedge_at else c.timeout_at
let[@inline] due_stamp c = if hedge_first c then c.hedge_stamp else c.timeout_stamp

(* Nothing pending: the start of the search for the first contact. *)
let nobody =
  { lookup = { st = None };
    server = -1;
    attempt = 0;
    answered = false;
    limit = 0.;
    timeout_at = infinity;
    timeout_stamp = max_int;
    hedge_at = infinity;
    hedge_stamp = max_int }

let rec first_contact best = function
  | [] -> best
  | c :: rest ->
    first_contact
      (if before (due c) (due_stamp c) (due best) (due_stamp best) then c else best)
      rest

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

(* Arm the event at expiry ([at], [stamp]), unless one is armed no
   later; an event armed later is cancelled.  One armed earlier fires,
   finds its expiry cleared and re-arms. *)
let[@inline] arm_at st ~at ~stamp =
  if before at stamp st.armed_at st.armed_stamp then begin
    (match st.armed with Some e -> Engine.cancel st.engine e | None -> ());
    st.armed <- Some (Engine.schedule_reserved st.engine ~time:at ~stamp st.wake);
    st.armed_at <- at;
    st.armed_stamp <- stamp
  end

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
  let c =
    { lookup = st.cell;
      server;
      attempt = 0;
      answered = false;
      limit = st.timeout;
      timeout_at = infinity;
      timeout_stamp = max_int;
      hedge_at = infinity;
      hedge_stamp = max_int }
  in
  (* The hedge spans the whole contact (all its retries). *)
  (match st.hedge with
  | Some delay ->
    c.hedge_at <- Engine.now st.engine +. delay;
    c.hedge_stamp <- Engine.reserve st.engine
  | None -> ());
  st.contacts <- c :: st.contacts;
  attempt st c ~timeout:st.timeout

(* The timeout is stamped before the request is sent, so it goes before
   every event the request leads to. *)
and attempt st c ~timeout =
  st.attempts <- st.attempts + 1;
  let number = c.attempt + 1 in
  c.attempt <- number;
  c.answered <- false;
  c.limit <- timeout;
  c.timeout_at <- Engine.now st.engine +. timeout;
  c.timeout_stamp <- Engine.reserve st.engine;
  Net.call_async (Cluster.net st.cluster) st.engine ~latency:st.latency ~src:Net.Client
    ~dst:c.server st.request (fun msg -> reply c number msg)

(* A reply to attempt [number] of [c].  One to an earlier attempt, or
   to one that timed out, is dropped like a datagram arriving after the
   client moved on.  A timeout due at this very instant has fired
   already: it was stamped before the request went out. *)
and reply c number msg =
  match c.lookup.st with
  | None -> ()
  | Some st ->
    if number = c.attempt then begin
      if c.answered then
        (* A fault-injected duplicate of a reply already merged. *)
        st.duplicates <- st.duplicates + 1
      else if c.timeout_at < infinity then begin
        c.answered <- true;
        c.timeout_at <- infinity;
        c.hedge_at <- infinity;
        st.inflight <- st.inflight - 1;
        (match msg with
        | Msg.Busy ->
          (* Load-shed fast nack: the server never processed the
             request, so move straight to the next candidate. *)
          st.busies <- st.busies + 1;
          record_breaker st c.server ~ok:false
        | Msg.Entries entries ->
          record_breaker st c.server ~ok:true;
          Answer_set.Buffer.merge (Cluster.answers st.cluster) st.seen entries
        | Msg.Ack | Msg.Candidate _ | Msg.Digest _ -> record_breaker st c.server ~ok:true);
        pump st
      end
    end;
    arm st

and hedge st c =
  c.hedge_at <- infinity;
  match next_candidate st with
  | Some backup ->
    st.hedges <- st.hedges + 1;
    contact st backup
  | None -> ()

and time_out st c =
  c.timeout_at <- infinity;
  st.timeouts <- st.timeouts + 1;
  record_breaker st c.server ~ok:false;
  let tr = (Cluster.obs st.cluster).Plookup_obs.Obs.trace in
  let tid =
    if Trace.enabled tr then
      Trace.emit_timeout tr ~time:(Engine.now st.engine) ~dst:c.server ~after:c.limit
    else 0
  in
  if c.attempt <= st.retries_allowed then begin
    st.retries <- st.retries + 1;
    if Trace.enabled tr then
      Trace.emit_retry tr ~time:(Engine.now st.engine) ~cause:tid ~dst:c.server
        ~attempt:(c.attempt + 1);
    let timeout =
      match st.jitter with
      | Some rng ->
        (* Decorrelated jitter: uniform between the base timeout and 3x
           the previous one, so synchronized clients spread out instead
           of retrying in storms. *)
        Plookup_util.Dist.uniform_in rng ~lo:st.timeout ~hi:(c.limit *. 3.)
      | None -> c.limit *. backoff
    in
    attempt st c ~timeout
  end
  else begin
    c.hedge_at <- infinity;
    st.inflight <- st.inflight - 1;
    pump st
  end

(* Arm the lookup's one event at its earliest expiry. *)
and arm st =
  if not st.finished then begin
    let c = first_contact nobody st.contacts in
    if before st.deadline_at st.deadline_stamp (due c) (due_stamp c) then
      arm_at st ~at:st.deadline_at ~stamp:st.deadline_stamp
    else arm_at st ~at:(due c) ~stamp:(due_stamp c)
  end

(* The armed event: fire the expiry it was armed for, if it is still
   pending — then it is the earliest — and re-arm. *)
let wake st =
  let at = st.armed_at and stamp = st.armed_stamp in
  st.armed <- None;
  st.armed_at <- infinity;
  st.armed_stamp <- max_int;
  if st.deadline_at = at && st.deadline_stamp = stamp then begin
    st.gave_up <- true;
    finish st
  end
  else begin
    let c = first_contact nobody st.contacts in
    if due c = at && due_stamp c = stamp then begin
      if hedge_first c then hedge st c else time_out st c
    end;
    arm st
  end

let launch st =
  pump st;
  arm st

let make_state cluster engine ~latency ~timeout ~retries ~wave ~t ~deadline ~hedge
    ~breaker ~jitter ~order k =
  let now = Engine.now engine in
  let cell = { st = None } in
  let st =
    { cluster;
      engine;
      latency = (fun ~src:_ ~dst:_ -> latency ());
      request = Msg.lookup t;
      timeout;
      retries_allowed = retries;
      wave;
      target = t;
      hedge;
      breaker;
      jitter;
      (* Lookups overlap in simulated time, so each keeps its own
         entries, sized for its target; they share the cluster's id
         table, and a merge re-seats the buffer when another lookup
         used the table since (see [Answer_set]). *)
      seen = Answer_set.Buffer.create ~expect:(min t 64);
      order;
      cell;
      wake = (fun _ -> match cell.st with Some st -> wake st | None -> ());
      contacts = [];
      deadline_at = (match deadline with Some budget -> now +. budget | None -> infinity);
      deadline_stamp =
        (match deadline with Some _ -> Engine.reserve engine | None -> max_int);
      armed = None;
      armed_at = infinity;
      armed_stamp = max_int;
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
      started_at = now;
      k }
  in
  cell.st <- Some st;
  st

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
      make_state cluster engine ~latency ~timeout ~retries ~wave ~t ~deadline ~hedge
        ~breaker ~jitter ~order:(Probe_order.of_list order) k
    in
    (* Launch lazily from the engine so the caller can schedule lookups
       "now" before running the engine. *)
    ignore (Engine.schedule_after engine ~delay:0. (fun _ -> launch st))
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
             launch
               (make_state cluster engine ~latency ~timeout ~retries ~wave ~t ~deadline
                  ~hedge ~breaker ~jitter ~order:(Probe_order.of_list order) k)
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
