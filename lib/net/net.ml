open Plookup_util
module Metrics = Plookup_obs.Metrics
module Trace = Plookup_obs.Trace
module Span = Plookup_obs.Span

type sender = Client | Server of int

(* Senders are keyed by an integer code so that per-link RNG streams
   treat clients and servers uniformly: -1 is "the client side", 0..n-1
   are the servers. *)
let code = function Client -> -1 | Server i -> i

type faults = {
  loss : float;
  duplication : float;
  jitter : float;
  fault_seed : int;
  links : (int, Rng.t) Hashtbl.t; (* per-link streams, by [link_rng]'s key *)
}

(* [coder msg] is the packed plane/msg code for the message — from
   {!Trace.intern_message}, precomputed per constructor at setup so the
   per-event cost is one closure call returning an immediate int. *)
type 'msg tracing = { tr : Trace.t; coder : 'msg -> int }

(* The overload model: each server is a single-threaded queueing station
   with a finite inbox.  [busy_until] is when the server frees up,
   [depth] the inbox occupancy (waiting + in service), [slow] a
   per-server service-time multiplier — 1.0 healthy, 10-100x a
   gray-degraded server that is alive but crawling. *)
type 'reply capacity = {
  service_time : float; (* time units per message at full speed *)
  queue_limit : int;
  nack : 'reply option; (* Some r: shed with a fast nack; None: shed silently *)
  busy_until : float array;
  depth : int array;
  slow : float array;
  depth_g : Metrics.gauge array; (* high-water inbox depth, per server *)
  shed : Metrics.counter;
}

type ('msg, 'reply) t = {
  n : int;
  metrics : Metrics.t;
  mutable handler : (int -> sender -> 'msg -> 'reply) option;
  up : bool array;
  (* 0/1 per server, mirroring [up]: O(1) up-count and O(log n) k-th-up
     selection for the uniform-pick hot paths while a server is down. *)
  up_fen : Fenwick.t;
  (* Counters are registry cells private to this network instance, so the
     accessors below report exactly this network's traffic (snapshots
     aggregate across instances; see {!Plookup_obs.Metrics}). *)
  received : Metrics.counter array;
  mutable plane_received : Metrics.counter array; (* set by [set_planes] *)
  mutable classify : ('msg -> int) option;
  dropped : Metrics.counter;
  lost : Metrics.counter;
  duplicated : Metrics.counter;
  broadcast_count : Metrics.counter;
  client_count : Metrics.counter;
  repair_count : Metrics.counter;
  delay_h : Metrics.histogram;
  mutable in_repair : bool;
  mutable tracing : 'msg tracing option;
  mutable engine : Plookup_sim.Engine.t option; (* the clock; see [attach_engine] *)
  mutable status_listeners : (int -> up:bool -> unit) list;
  mutable faults : faults option;
  mutable capacity : 'reply capacity option;
}

let create ?metrics ~n () =
  if n <= 0 then invalid_arg "Net.create: n must be positive";
  let m = match metrics with Some m -> m | None -> Metrics.create () in
  let up_fen = Fenwick.create n in
  for i = 0 to n - 1 do
    Fenwick.add up_fen i 1
  done;
  { n;
    metrics = m;
    handler = None;
    up = Array.make n true;
    up_fen;
    received =
      Array.init n (fun i ->
          Metrics.counter m
            ~labels:[ ("server", string_of_int i) ]
            "net.messages.received");
    plane_received = [||];
    classify = None;
    dropped = Metrics.counter m "net.messages.dropped";
    lost = Metrics.counter m "net.messages.lost";
    duplicated = Metrics.counter m "net.messages.duplicated";
    broadcast_count = Metrics.counter m "net.broadcasts";
    client_count = Metrics.counter m "net.client_requests";
    repair_count = Metrics.counter m "net.messages.repair";
    delay_h = Metrics.histogram m "net.delivery.delay";
    in_repair = false;
    tracing = None;
    engine = None;
    status_listeners = [];
    faults = None;
    capacity = None }

let set_planes t ~names ~classify =
  t.plane_received <-
    Array.map
      (fun p -> Metrics.counter t.metrics ~labels:[ ("plane", p) ] "net.messages.received")
      names;
  t.classify <- Some classify

let set_trace t trace ~coder = t.tracing <- Some { tr = trace; coder }

let set_handler t h = t.handler <- Some h

let wrap_handler t wrap =
  match t.handler with
  | None -> invalid_arg "Net.wrap_handler: no handler installed"
  | Some inner -> t.handler <- Some (wrap inner)

let check_node t i =
  if i < 0 || i >= t.n then invalid_arg "Net: server index out of range"

let notify_status t i up = List.iter (fun f -> f i ~up) t.status_listeners

let fail t i =
  check_node t i;
  if t.up.(i) then begin
    t.up.(i) <- false;
    Fenwick.add t.up_fen i (-1);
    notify_status t i false
  end

let recover t i =
  check_node t i;
  if not t.up.(i) then begin
    t.up.(i) <- true;
    Fenwick.add t.up_fen i 1;
    notify_status t i true
  end

let add_status_listener t f = t.status_listeners <- t.status_listeners @ [ f ]

let is_up t i =
  check_node t i;
  t.up.(i)

let up_servers t =
  List.filter (fun i -> t.up.(i)) (List.init t.n Fun.id)

let up_count t = Fenwick.total t.up_fen

(* While every server is up, rank k is server k: the select is only
   needed once some server is down. *)
let kth_up t k =
  let up = up_count t in
  if k < 0 || k >= up then invalid_arg "Net.kth_up: rank out of range";
  if up = t.n then k else Fenwick.select t.up_fen k

(* {2 Fault injection} *)

let set_faults t ~seed ?(loss = 0.) ?(duplication = 0.) ?(jitter = 0.) () =
  if loss < 0. || loss >= 1. then invalid_arg "Net.set_faults: loss must be in [0, 1)";
  if duplication < 0. || duplication > 1. then
    invalid_arg "Net.set_faults: duplication must be in [0, 1]";
  if jitter < 0. then invalid_arg "Net.set_faults: jitter must be non-negative";
  t.faults <-
    Some { loss; duplication; jitter; fault_seed = seed; links = Hashtbl.create 16 }

(* Each directed link owns an RNG stream derived from the fault seed, so
   the drop/duplicate/jitter schedule of a link depends only on the
   sequence of transmissions on that link — deterministic regardless of
   how traffic on other links interleaves.  Both codes lie in
   [-1, n - 1] (reply legs go to the client), so
   [(from + 1) * (n + 1) + (to + 1)] names each directed link by one
   distinct int: the lookup allocates no tuple. *)
let link_rng t f ~from_code ~to_code =
  let key = ((from_code + 1) * (t.n + 1)) + to_code + 1 in
  match Hashtbl.find_opt f.links key with
  | Some rng -> rng
  | None ->
    let h = Rng.mix64 (Int64.of_int f.fault_seed) in
    let h = Rng.mix64 (Int64.logxor h (Int64.of_int (from_code + 1))) in
    let h = Rng.mix64 (Int64.logxor h (Int64.of_int (to_code + 1))) in
    let rng = Rng.create (Int64.to_int h land max_int) in
    Hashtbl.add f.links key rng;
    rng

(* {2 Server capacity (overload model)} *)

let set_capacity t ~service_rate ~queue_limit ?nack () =
  if service_rate <= 0. then invalid_arg "Net.set_capacity: service_rate must be positive";
  if queue_limit < 1 then invalid_arg "Net.set_capacity: queue_limit must be >= 1";
  t.capacity <-
    Some
      { service_time = 1. /. service_rate;
        queue_limit;
        nack;
        busy_until = Array.make t.n neg_infinity;
        depth = Array.make t.n 0;
        slow = Array.make t.n 1.;
        depth_g =
          Array.init t.n (fun i ->
              Metrics.gauge t.metrics
                ~labels:[ ("server", string_of_int i) ]
                "net.queue.depth");
        shed = Metrics.counter t.metrics "net.messages.shed" }

let capacity_exn t caller =
  match t.capacity with
  | Some c -> c
  | None -> invalid_arg (caller ^ ": no capacity model installed (see Net.set_capacity)")

let set_degraded t i ~factor =
  check_node t i;
  if factor < 1. then invalid_arg "Net.set_degraded: factor must be >= 1";
  (capacity_exn t "Net.set_degraded").slow.(i) <- factor

let degraded_factor t i =
  check_node t i;
  match t.capacity with None -> 1. | Some c -> c.slow.(i)

let queue_depth t i =
  check_node t i;
  match t.capacity with None -> 0 | Some c -> c.depth.(i)

let messages_shed t = match t.capacity with None -> 0 | Some c -> Metrics.value c.shed

(* {2 Tracing}

   Every helper first checks that a trace is attached and enabled, so a
   quiet network pays one tag test per hook and allocates nothing.  A
   traced network allocates nothing either: each event is a coded emit
   — plain ints into the trace's preallocated ring.  Span ids use 0 as
   "no span" and negative ids for sampled-out spans, which lets cause
   links thread through the delivery path as plain ints while keeping
   whole causal trees in or out together. *)

let[@inline always] now t =
  match t.engine with Some e -> Plookup_sim.Engine.now e | None -> 0.

let[@inline always] trace_send t ~src ~dst msg =
  match t.tracing with
  | Some c when Trace.enabled c.tr ->
    Trace.emit_send c.tr ~time:(now t) ~src:(code src) ~dst ~pm:(c.coder msg)
  | _ -> 0

(* A clean delivery's Send and Recv, fused into one pair cell. *)
let[@inline always] trace_send_recv t ~src ~dst msg =
  match t.tracing with
  | Some c when Trace.enabled c.tr ->
    ignore (Trace.emit_send_recv c.tr ~time:(now t) ~src:(code src) ~dst ~pm:(c.coder msg))
  | _ -> ()

let[@inline always] trace_recv t ~sid ~src ~dst msg =
  match t.tracing with
  | Some c when Trace.enabled c.tr ->
    Trace.emit_recv c.tr ~time:(now t) ~cause:sid ~src:(code src) ~dst ~pm:(c.coder msg)
  | _ -> ()

let[@inline always] trace_drop t ~sid ~src ~dst ~reason msg =
  match t.tracing with
  | Some c when Trace.enabled c.tr ->
    Trace.emit_drop c.tr ~time:(now t) ~cause:sid ~src:(code src) ~dst ~pm:(c.coder msg)
      ~reason
  | _ -> ()

(* {2 Messaging} *)

let handler_exn t =
  match t.handler with
  | Some h -> h
  | None -> invalid_arg "Net: no handler installed"

let account t ~src ~dst msg =
  Metrics.incr t.received.(dst);
  (match t.classify with
  | Some plane_of -> Metrics.incr t.plane_received.(plane_of msg)
  | None -> ());
  if t.in_repair then Metrics.incr t.repair_count;
  match src with Client -> Metrics.incr t.client_count | Server _ -> ()

(* Final delivery, on both transports: liveness check, accounting,
   handler.  All fault decisions have already been made by the caller;
   [sid] is the Send span this delivery resolves (0 when untraced). *)
let deliver t ~sid ~src ~dst msg =
  if not t.up.(dst) then begin
    Metrics.incr t.dropped;
    trace_drop t ~sid ~src ~dst ~reason:Span.Down msg;
    None
  end
  else begin
    account t ~src ~dst msg;
    trace_recv t ~sid ~src ~dst msg;
    Some ((handler_exn t) dst src msg)
  end

(* One synchronous server-bound transmission: loss, then delivery (twice
   when duplicated).  Jitter is meaningless without an engine, so the
   synchronous path never draws it.  Each outcome is traced through the
   hooks above, traced or not; a clean delivery to a live server with no
   fault layer, the common case, writes its Send and Recv as one pair
   cell. *)
let sync_transmit t ~src ~dst msg =
  match t.faults with
  | None when t.up.(dst) ->
    trace_send_recv t ~src ~dst msg;
    account t ~src ~dst msg;
    Some ((handler_exn t) dst src msg)
  | None -> deliver t ~sid:(trace_send t ~src ~dst msg) ~src ~dst msg
  | Some f ->
    let sid = trace_send t ~src ~dst msg in
    let rng = link_rng t f ~from_code:(code src) ~to_code:dst in
    if Rng.bernoulli rng f.loss then begin
      Metrics.incr t.lost;
      trace_drop t ~sid ~src ~dst ~reason:Span.Lost msg;
      None
    end
    else begin
      let reply = deliver t ~sid ~src ~dst msg in
      if Rng.bernoulli rng f.duplication then begin
        Metrics.incr t.duplicated;
        ignore (deliver t ~sid ~src ~dst msg)
      end;
      reply
    end

let send t ~src ~dst msg =
  check_node t dst;
  sync_transmit t ~src ~dst msg

(* Replies are handed to [on_reply] as they come rather than collected:
   at n = 10k a reply list per update is 10k cells that survive long
   enough to be promoted, and almost every caller ignores it. *)
let broadcast t ~src ?on_reply msg =
  Metrics.incr t.broadcast_count;
  for dst = t.n - 1 downto 0 do
    match (sync_transmit t ~src ~dst msg, on_reply) with
    | Some reply, Some f -> f dst reply
    | (Some _ | None), _ -> ()
  done

let messages_received t = Array.fold_left (fun acc c -> acc + Metrics.value c) 0 t.received

let messages_received_by t i =
  check_node t i;
  Metrics.value t.received.(i)

let messages_dropped t = Metrics.value t.dropped
let messages_lost t = Metrics.value t.lost
let duplicates_delivered t = Metrics.value t.duplicated
let broadcasts t = Metrics.value t.broadcast_count
let client_requests t = Metrics.value t.client_count
let repair_messages t = Metrics.value t.repair_count

let tally_as_repair t f =
  let saved = t.in_repair in
  t.in_repair <- true;
  Fun.protect ~finally:(fun () -> t.in_repair <- saved) f

let reset_counters t =
  Array.iter Metrics.reset_counter t.received;
  Array.iter Metrics.reset_counter t.plane_received;
  Metrics.reset_counter t.dropped;
  Metrics.reset_counter t.lost;
  Metrics.reset_counter t.duplicated;
  Metrics.reset_counter t.broadcast_count;
  Metrics.reset_counter t.client_count;
  Metrics.reset_counter t.repair_count;
  Metrics.reset_histogram t.delay_h

let attach_engine t engine = t.engine <- Some engine

(* One copy of a transmission, arriving [delay] from now. *)
let schedule_copy t engine ~delay action =
  Metrics.observe t.delay_h delay;
  ignore (Plookup_sim.Engine.schedule_after engine ~delay action)

(* Schedule [action] once for each copy of one engine-routed
   transmission that arrives: never when lost, twice when duplicated,
   each copy jittered independently, and once at [base] on a fault-free
   link.  Both legs of a round trip pass through here, so [lost] and
   [duplicated] count reply legs as well as requests.  Only the
   server-bound request leg carries [spanmsg] and gets a Lost Drop span;
   reply legs stay unspanned, so [lost] can exceed the trace's Lost
   spans.  [received] and [dropped] count at delivery, which only
   requests reach. *)
let transmit t engine ?(sid = 0) ?spanmsg ~from_code ~to_code ~base action =
  match t.faults with
  | None -> schedule_copy t engine ~delay:base action
  | Some f ->
    let rng = link_rng t f ~from_code ~to_code in
    if Rng.bernoulli rng f.loss then begin
      Metrics.incr t.lost;
      match spanmsg with
      | Some msg ->
        trace_drop t ~sid ~src:(if from_code < 0 then Client else Server from_code)
          ~dst:to_code ~reason:Span.Lost msg
      | None -> ()
    end
    else begin
      let jittered () =
        base +. (if f.jitter > 0. then Rng.float rng f.jitter else 0.)
      in
      let d1 = jittered () in
      if Rng.bernoulli rng f.duplication then begin
        Metrics.incr t.duplicated;
        let d2 = jittered () in
        schedule_copy t engine ~delay:d1 action;
        schedule_copy t engine ~delay:d2 action
      end
      else schedule_copy t engine ~delay:d1 action
    end

(* Engine-routed delivery through the capacity model.  The request
   waits in [dst]'s bounded inbox, then holds the server for one
   service time before the handler runs; a full inbox sheds the request
   at arrival time — silently, or with the configured fast nack, which
   costs the server no service time at all (the point of nacking: an
   overloaded server spends nothing telling the client to go away).
   Without a capacity model this is exactly [deliver], with no extra
   engine event, so existing runs are untouched.  [k] fires with the
   handler's reply (or the nack) once it is ready, or [None] when the
   message died. *)
let deliver_queued t engine ~sid ~src ~dst msg k =
  match t.capacity with
  | None -> k (deliver t ~sid ~src ~dst msg)
  | Some c ->
    if not t.up.(dst) then begin
      Metrics.incr t.dropped;
      trace_drop t ~sid ~src ~dst ~reason:Span.Down msg;
      k None
    end
    else if c.depth.(dst) >= c.queue_limit then begin
      Metrics.incr c.shed;
      trace_drop t ~sid ~src ~dst ~reason:Span.Shed msg;
      k c.nack
    end
    else begin
      let now = Plookup_sim.Engine.now engine in
      let dep = c.depth.(dst) + 1 in
      c.depth.(dst) <- dep;
      if float_of_int dep > Metrics.gauge_value c.depth_g.(dst) then
        Metrics.set_gauge c.depth_g.(dst) (float_of_int dep);
      let start = Float.max now c.busy_until.(dst) in
      let finish = start +. (c.service_time *. c.slow.(dst)) in
      c.busy_until.(dst) <- finish;
      ignore
        (Plookup_sim.Engine.schedule_after engine ~delay:(finish -. now) (fun _ ->
             c.depth.(dst) <- c.depth.(dst) - 1;
             (* Liveness is re-checked at service time: the server may
                have failed while the request sat in its queue. *)
             k (deliver t ~sid ~src ~dst msg)))
    end

let call_async t engine ~latency ~src ~dst msg k =
  check_node t dst;
  let base = latency ~src ~dst in
  let sid = trace_send t ~src ~dst msg in
  transmit t engine ~sid ~spanmsg:msg ~from_code:(code src) ~to_code:dst ~base
    (fun engine ->
      deliver_queued t engine ~sid ~src ~dst msg (function
        | None -> () (* lost: dst was down at delivery time *)
        | Some reply ->
          transmit t engine ~from_code:dst ~to_code:(code src) ~base:(latency ~src ~dst)
            (fun _ -> k reply)))
