(* Spans owned by the benchmark.  The driver wraps each call it makes
   into a layer in [enter]/[exit]; nothing inside the library is
   instrumented.  Every span feeds exact per-kind accumulators (count,
   total and self nanoseconds, where self is the duration minus the
   child spans); the spans of a deterministic 1-in-64 sample of ops are
   also kept whole, in preallocated arrays, and written as JSONL at
   exit.  Nothing here allocates on the enter/exit path. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let names =
  [| "service.lookup";
     "service.update";
     "server.handler";
     "client.launch";
     "sim.update";
     "churn.apply";
     "sim.run";
     "experiment" |]

let lookup = 0
let update = 1
let handler = 2
let launch = 3
let sim_update = 4
let churn_apply = 5
let sim_run = 6
let experiment = 7
let kinds = Array.length names

(* Containers group ops; they are always recorded and never sampled
   away.  Every other span either starts an op (when no op encloses it)
   or belongs to the enclosing one. *)
let is_container k = k = sim_run || k = experiment

(* Off between traced rounds; the handler wrapper checks it per call. *)
let on = ref false

let count = Array.make kinds 0
let total_ns = Array.make kinds 0
let self_ns = Array.make kinds 0

(* [msgs.(k)]: server handler calls whose nearest non-handler ancestor
   is a span of kind [k] — the messages one call of that layer costs. *)
let msgs = Array.make kinds 0

(* Summed duration of the outermost spans: the traced wall time. *)
let top_ns = ref 0

let max_depth = 256
let st_kind = Array.make max_depth 0
let st_start = Array.make max_depth 0
let st_child = Array.make max_depth 0
let st_slot = Array.make max_depth (-1)
let st_op = Array.make max_depth (-1)
let st_ctx = Array.make max_depth 0
let depth = ref 0

let labels = Hashtbl.create 64
let label_names = ref [||]

(* Intern a span label (strategy, population, experiment id) once, at
   set-up time. *)
let label s =
  match Hashtbl.find_opt labels s with
  | Some i -> i
  | None ->
    let i = Hashtbl.length labels in
    Hashtbl.add labels s i;
    label_names := Array.append !label_names [| s |];
    i

let capacity = ref 0
let sp_kind = ref [||]
let sp_label = ref [||]
let sp_op = ref [||]
let sp_parent = ref [||]
let sp_start = ref [||]
let sp_end = ref [||]
let spans = ref 0
let spans_lost = ref 0
let next_op = ref 0

let alloc_spans n =
  capacity := n;
  sp_kind := Array.make n 0;
  sp_label := Array.make n 0;
  sp_op := Array.make n 0;
  sp_parent := Array.make n 0;
  sp_start := Array.make n 0;
  sp_end := Array.make n 0

let enter k lbl =
  let d = !depth in
  let parent_slot = if d = 0 then -1 else st_slot.(d - 1) in
  let parent_op = if d = 0 then -1 else st_op.(d - 1) in
  let op, keep =
    if is_container k then (-1, true)
    else if parent_op >= 0 then (parent_op, parent_slot >= 0)
    else begin
      incr next_op;
      (!next_op, !next_op land 63 = 0)
    end
  in
  let slot =
    if not keep then -1
    else if !spans < !capacity then begin
      let s = !spans in
      incr spans;
      !sp_kind.(s) <- k;
      !sp_label.(s) <- lbl;
      !sp_op.(s) <- op;
      !sp_parent.(s) <- parent_slot;
      s
    end
    else begin
      incr spans_lost;
      -1
    end
  in
  st_kind.(d) <- k;
  st_child.(d) <- 0;
  st_slot.(d) <- slot;
  st_op.(d) <- op;
  st_ctx.(d) <- (if k = handler && d > 0 then st_ctx.(d - 1) else k);
  depth := d + 1;
  let t = now_ns () in
  st_start.(d) <- t;
  if slot >= 0 then !sp_start.(slot) <- t

(* Close the innermost span and return its duration in nanoseconds. *)
let exit () =
  let t = now_ns () in
  let d = !depth - 1 in
  depth := d;
  let k = st_kind.(d) in
  let dur = t - st_start.(d) in
  count.(k) <- count.(k) + 1;
  total_ns.(k) <- total_ns.(k) + dur;
  self_ns.(k) <- self_ns.(k) + dur - st_child.(d);
  if k = handler && d > 0 then msgs.(st_ctx.(d - 1)) <- msgs.(st_ctx.(d - 1)) + 1;
  if d > 0 then st_child.(d - 1) <- st_child.(d - 1) + dur else top_ns := !top_ns + dur;
  let slot = st_slot.(d) in
  if slot >= 0 then !sp_end.(slot) <- t;
  dur

(* After an exception escaped a traced call: drop the open spans down
   to [d] without accounting them. *)
let unwind_to d = if !depth > d then depth := d

let mean_self_ns k = if count.(k) = 0 then 0. else float_of_int self_ns.(k) /. float_of_int count.(k)

let write_spans path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      for s = 0 to !spans - 1 do
        Printf.fprintf oc
          "{\"span\": %d, \"op\": %d, \"parent\": %d, \"name\": %S, \"label\": %S, \
           \"start_ns\": %d, \"end_ns\": %d}\n"
          s !sp_op.(s) !sp_parent.(s)
          names.(!sp_kind.(s))
          !label_names.(!sp_label.(s))
          !sp_start.(s) !sp_end.(s)
      done)
