type t = { metrics : Metrics.t; trace : Trace.t }

let create ?trace_capacity () =
  let metrics = Metrics.create () in
  let trace = Trace.create ?capacity:trace_capacity () in
  (* Mirror ring evictions into the registry so drained JSONL consumers
     can detect truncation from the metrics dump alone. *)
  let evicted = Metrics.counter metrics "obs.trace.evicted" in
  Trace.set_evict_hook trace (fun n -> Metrics.add evicted n);
  { metrics; trace }

let child t =
  let c = create ~trace_capacity:(Trace.capacity t.trace) () in
  Trace.set_enabled c.trace (Trace.enabled t.trace);
  c

let merge parent child =
  Metrics.absorb parent.metrics (Metrics.snapshot child.metrics);
  Trace.absorb parent.trace child.trace
