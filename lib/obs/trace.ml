(* Spans are stored int-coded in a flat preallocated ring and decoded
   into {!Span.t} values only when drained ({!spans}, {!absorb}) or
   streamed to an attached sink.  The hot path — one [Send] plus one
   [Recv] per delivered message — therefore writes a handful of
   immediate ints and one unboxed float and allocates nothing.

   Cell geometry: each span occupies [cell_ints] consecutive slots of
   [ints] and [cell_floats] of [floats].  Both strides and the slot
   count are powers of two, so cell addressing is a shift and the ring
   wrap is a mask.

     ints.(base+0)   span id
     ints.(base+1)   cause id (0 = none)
     ints.(base+2)   header: bits 0-2 kind, bits 3-4 drop reason,
                     bit 5 wide flag; for compact message spans also
                     bits 6-25 src+1, bits 26-45 dst, bits 46-61 the
                     packed plane/msg code; bit 62 marks a fused
                     send/recv pair
     ints.(base+3..6) a b c d — kind-specific fields; for wide message
                     spans a=src, b=dst, c=plane code, d=msg code
     floats.(fbase+0) time
     floats.(fbase+1) aux (Timeout's [after])

   A fused pair cell (bit 62) encodes a synchronously delivered message
   — a [Send] at [id] immediately resolved by a [Recv] at [id + 1]
   whose cause is the send — in one compact cell: three stores total,
   and the cause slot is never read, so it is never written.  That cell
   is the always-on budget: everything else about a delivery (sink
   dispatch, eviction counting, emitted totals) is either precomputed
   into one flag ([fast]) or derived lazily at drain time.

   Strings (plane, msg, mark label/detail) are interned per trace into a
   dense code table; message spans carry [pm = plane_code lsl 8 lor
   msg_code], precomputed once by the caller (see {!intern_message}), so
   an emit does no string work at all. *)

let cell_ints = 8
let cell_floats = 2

let k_send = 0
let k_recv = 1
let k_drop = 2
let k_retry = 3
let k_timeout = 4
let k_repair = 5
let k_migration = 6
let k_mark = 7

(* Bit 62 of the header: this compact cell is a fused Send+Recv pair. *)
let pair_bit = 1 lsl 62

let reason_code : Span.drop_reason -> int = function
  | Span.Down -> 0
  | Span.Lost -> 1
  | Span.Shed -> 2

let reason_of_code = function
  | 0 -> Span.Down
  | 1 -> Span.Lost
  | _ -> Span.Shed

type t = {
  capacity : int;
  mutable ints : int array;
  mutable floats : float array;
  mutable slots : int; (* allocated slot count, a power of two *)
  mutable mask : int; (* slots - 1 *)
  mutable head : int; (* next slot to write *)
  mutable count : int; (* retained cells, <= capacity *)
  mutable on_evict : int -> unit;
  mutable evict_reported : int; (* drops already pushed to [on_evict] *)
  (* Intern table.  Codes are dense, and survive {!clear} so message
     coders precomputed against this trace stay valid across runs. *)
  mutable strings : string array;
  mutable n_strings : int;
  codes : (string, int) Hashtbl.t;
  mutable sinks : Sink.t list; (* attachment order *)
  mutable eager : bool; (* sinks <> []: decode and stream per emit *)
  mutable on : bool;
  mutable fast : bool; (* on && not eager, precomputed *)
  mutable next_id : int;
  mutable emitted_adjust : int; (* absorb's correction to the derived total *)
  mutable carried_dropped : int; (* inherited from absorbed children *)
}

let pow2_at_least n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

let create ?(capacity = 4096) () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive";
  let slots = min 64 (pow2_at_least capacity) in
  { capacity;
    ints = Array.make (slots * cell_ints) 0;
    floats = Array.make (slots * cell_floats) 0.;
    slots;
    mask = slots - 1;
    head = 0;
    count = 0;
    on_evict = (fun _ -> ());
    evict_reported = 0;
    strings = Array.make 16 "";
    n_strings = 0;
    codes = Hashtbl.create 32;
    sinks = [];
    eager = false;
    on = false;
    fast = false;
    next_id = 1;
    emitted_adjust = 0;
    carried_dropped = 0 }

let[@inline always] enabled t = t.on

let set_enabled t on =
  t.on <- on;
  t.fast <- on && not t.eager

let capacity t = t.capacity
let set_evict_hook t f = t.on_evict <- f

let add_sink t sink =
  t.sinks <- t.sinks @ [ sink ];
  t.eager <- true;
  t.fast <- false

(* {2 Interning} *)

let intern t s =
  match Hashtbl.find_opt t.codes s with
  | Some c -> c
  | None ->
    let c = t.n_strings in
    if c = Array.length t.strings then begin
      let strings = Array.make (2 * c) "" in
      Array.blit t.strings 0 strings 0 c;
      t.strings <- strings
    end;
    t.strings.(c) <- s;
    Hashtbl.add t.codes s c;
    t.n_strings <- c + 1;
    c

let intern_message t ~plane ~msg =
  let p = intern t plane and m = intern t msg in
  if p > 0xff || m > 0xff then
    invalid_arg "Trace.intern_message: more than 256 distinct interned strings";
  (p lsl 8) lor m

(* {2 Derived totals}

   The emit path maintains no counter beyond [next_id]: everything else
   falls out at drain time.  Every minted id was recorded, so

     emitted = (next_id - 1) + emitted_adjust

   where [emitted_adjust] is {!absorb}'s correction (a child advances
   [next_id] by its whole id watermark but re-records only its retained
   spans).  Every recorded span is either still retained or was evicted,
   so ring evictions are [emitted - retained]. *)

let emitted t = t.next_id - 1 + t.emitted_adjust

(* {2 The coded ring} *)

let grow t =
  let slots = t.slots * 2 in
  let ints = Array.make (slots * cell_ints) 0 in
  Array.blit t.ints 0 ints 0 (t.count * cell_ints);
  let floats = Array.make (slots * cell_floats) 0. in
  Array.blit t.floats 0 floats 0 (t.count * cell_floats);
  t.ints <- ints;
  t.floats <- floats;
  t.slots <- slots;
  t.mask <- slots - 1;
  (* The ring has never evicted when it grows, so the live cells are the
     prefix [0, count) — but [head] already wrapped at the old mask;
     point it past the blitted prefix again. *)
  t.head <- t.count

(* Claim the next slot.  Once [capacity] cells are retained the ring
   stops counting and [head] simply laps the oldest cells; evictions are
   derived at drain time, not counted here.  Before the first lap the
   ring has never wrapped ([head = count]), which is what lets [grow]
   blit the live prefix. *)
let reserve t =
  if t.count < t.capacity then begin
    if t.count = t.slots then grow t;
    t.count <- t.count + 1
  end;
  let slot = t.head in
  t.head <- (slot + 1) land t.mask;
  slot

(* The message writer behind the general paths: the compact header when
   the actor code and dst fit it (they do unless a run has over a
   million servers), the wide form otherwise.  [src] is the actor code:
   -1 client, otherwise the server index.  The slot indices are in range
   by construction ([reserve] keeps head under [mask]), hence the unsafe
   stores. *)
let write_msg t ~id ~cause ~kind ~reason ~src ~dst ~pm ~time =
  let slot = reserve t in
  let ints = t.ints in
  let base = slot * cell_ints in
  Array.unsafe_set ints base id;
  Array.unsafe_set ints (base + 1) cause;
  let s = src + 1 in
  if (s lor dst) lsr 20 = 0 then
    Array.unsafe_set ints (base + 2)
      (kind lor (reason lsl 3) lor (s lsl 6) lor (dst lsl 26) lor (pm lsl 46))
  else begin
    Array.unsafe_set ints (base + 2) (kind lor (reason lsl 3) lor 32);
    Array.unsafe_set ints (base + 3) src;
    Array.unsafe_set ints (base + 4) dst;
    Array.unsafe_set ints (base + 5) (pm lsr 8);
    Array.unsafe_set ints (base + 6) (pm land 0xff)
  end;
  Array.unsafe_set t.floats (slot * cell_floats) time;
  slot

(* A wide cell's stores: rare kinds, and message spans whose fields
   overflow the compact header (arbitrary ints from the compat
   {!emit}). *)
let[@inline always] store_wide t slot ~id ~cause ~kind ~reason ~a ~b ~c ~d ~time ~aux =
  let ints = t.ints in
  let base = slot * cell_ints in
  Array.unsafe_set ints base id;
  Array.unsafe_set ints (base + 1) cause;
  Array.unsafe_set ints (base + 2) (kind lor (reason lsl 3) lor 32);
  Array.unsafe_set ints (base + 3) a;
  Array.unsafe_set ints (base + 4) b;
  Array.unsafe_set ints (base + 5) c;
  Array.unsafe_set ints (base + 6) d;
  let fbase = slot * cell_floats in
  Array.unsafe_set t.floats fbase time;
  Array.unsafe_set t.floats (fbase + 1) aux

let write_wide t ~id ~cause ~kind ~reason ~a ~b ~c ~d ~time ~aux =
  let slot = reserve t in
  store_wide t slot ~id ~cause ~kind ~reason ~a ~b ~c ~d ~time ~aux;
  slot

(* {2 Decoding} — the lazy inverse of the writers. *)

let decode t slot =
  let ints = t.ints in
  let base = slot * cell_ints in
  let id = ints.(base) in
  let cause = match ints.(base + 1) with 0 -> None | c -> Some c in
  let h = ints.(base + 2) in
  let fbase = slot * cell_floats in
  let time = t.floats.(fbase) in
  let kind =
    match h land 7 with
    | (0 | 1 | 2) as k ->
      let src, dst, plane, msg =
        if h land 32 <> 0 then
          ( ints.(base + 3),
            ints.(base + 4),
            t.strings.(ints.(base + 5)),
            t.strings.(ints.(base + 6)) )
        else
          let pm = (h lsr 46) land 0xffff in
          ( ((h lsr 6) land 0xfffff) - 1,
            (h lsr 26) land 0xfffff,
            t.strings.(pm lsr 8),
            t.strings.(pm land 0xff) )
      in
      let src = if src < 0 then Span.Client else Span.Server src in
      if k = k_send then Span.Send { src; dst; plane; msg }
      else if k = k_recv then Span.Recv { src; dst; plane; msg }
      else Span.Drop { src; dst; plane; msg; reason = reason_of_code ((h lsr 3) land 3) }
    | 3 -> Span.Retry { dst = ints.(base + 3); attempt = ints.(base + 4) }
    | 4 -> Span.Timeout { dst = ints.(base + 3); after = t.floats.(fbase + 1) }
    | 5 ->
      Span.Repair_round
        { coordinator = ints.(base + 3);
          tick = ints.(base + 4);
          re_replications = ints.(base + 5);
          trims = ints.(base + 6) }
    | 6 ->
      Span.Migration { entry = ints.(base + 3); src = ints.(base + 4); dst = ints.(base + 5) }
    | _ -> Span.Mark { label = t.strings.(ints.(base + 3)); detail = t.strings.(ints.(base + 4)) }
  in
  { Span.id; time; cause; kind }

(* Apply [f] to each span in a cell, oldest first — one span, or the
   Send then the Recv of a fused pair cell (whose cause slot was never
   written: the send is a root, the recv's cause is the send). *)
let iter_slot t slot f =
  let base = slot * cell_ints in
  let h = t.ints.(base + 2) in
  if h land pair_bit = 0 then f (decode t slot)
  else begin
    let id = t.ints.(base) in
    let time = t.floats.(slot * cell_floats) in
    let pm = (h lsr 46) land 0xffff in
    let src = ((h lsr 6) land 0xfffff) - 1 in
    let src = if src < 0 then Span.Client else Span.Server src in
    let dst = (h lsr 26) land 0xfffff in
    let plane = t.strings.(pm lsr 8) and msg = t.strings.(pm land 0xff) in
    f { Span.id; time; cause = None; kind = Span.Send { src; dst; plane; msg } };
    f
      { Span.id = id + 1;
        time;
        cause = Some id;
        kind = Span.Recv { src; dst; plane; msg } }
  end

(* Retained spans: cells, with pair cells counting twice. *)
let length t =
  let n = ref 0 in
  let start = (t.head - t.count) land t.mask in
  for i = 0 to t.count - 1 do
    let h = t.ints.((((start + i) land t.mask) * cell_ints) + 2) in
    n := !n + (if h land pair_bit = 0 then 1 else 2)
  done;
  !n

let dropped t = emitted t - length t + t.carried_dropped

(* Push newly derived evictions to the hook ({!Obs} mirrors them into
   the metrics registry).  Called wherever the ring's contents become
   observable — drain, merge, flush, disable, clear — rather than per
   eviction, which keeps the hot path free of callback dispatch. *)
let sync_evicted t =
  let d = dropped t in
  if d > t.evict_reported then begin
    let delta = d - t.evict_reported in
    t.evict_reported <- d;
    t.on_evict delta
  end

let notify t slot = iter_slot t slot (fun span -> List.iter (fun sink -> Sink.emit sink span) t.sinks)

(* {2 Coded emitters} — the allocation-free hot interface.

   Each emitter is a small [@inline always] wrapper whose fast path —
   tracing on, no sinks, fields that fit the compact header — claims a
   slot and stores the cell inline at the call site (cmx bodies make the
   attribute work across modules even in classic mode); every other case
   falls to one out-of-line general body, which answers 0 when tracing
   is off. *)

(* Claim the next slot on the fast path: in steady state (ring full) a
   lap is just a masked bump; while the ring is still filling, fall to
   the general [reserve]. *)
let[@inline always] claim t =
  if t.count = t.capacity then begin
    let slot = t.head in
    t.head <- (slot + 1) land t.mask;
    slot
  end
  else reserve t

let emit_msg_gen t ~time ~cause ~kind ~reason ~src ~dst ~pm =
  if not t.on then 0
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    let slot = write_msg t ~id ~cause ~kind ~reason ~src ~dst ~pm ~time in
    if t.eager then notify t slot;
    id
  end

(* One message span: [kind] is Send, Recv or Drop, [reason] a drop
   reason's code (0 for the others).  Returns its id. *)
let[@inline always] emit_msg t ~time ~cause ~kind ~reason ~src ~dst ~pm =
  let s = src + 1 in
  if t.fast && (s lor dst) lsr 20 = 0 then begin
    let id = t.next_id in
    t.next_id <- id + 1;
    let slot = claim t in
    let base = slot * cell_ints in
    let ints = t.ints in
    Array.unsafe_set ints base id;
    Array.unsafe_set ints (base + 1) cause;
    Array.unsafe_set ints (base + 2)
      (kind lor (reason lsl 3) lor (s lsl 6) lor (dst lsl 26) lor (pm lsl 46));
    Array.unsafe_set t.floats (slot * cell_floats) time;
    id
  end
  else emit_msg_gen t ~time ~cause ~kind ~reason ~src ~dst ~pm

let[@inline always] emit_send t ~time ~src ~dst ~pm =
  emit_msg t ~time ~cause:0 ~kind:k_send ~reason:0 ~src ~dst ~pm

let[@inline always] emit_recv t ~time ~cause ~src ~dst ~pm =
  ignore (emit_msg t ~time ~cause ~kind:k_recv ~reason:0 ~src ~dst ~pm)

let[@inline always] emit_drop t ~time ~cause ~src ~dst ~pm ~reason =
  ignore (emit_msg t ~time ~cause ~kind:k_drop ~reason:(reason_code reason) ~src ~dst ~pm)

(* The unfused fallback: the Send and its Recv as two cells. *)
let emit_send_recv_gen t ~time ~src ~dst ~pm =
  let id = emit_msg_gen t ~time ~cause:0 ~kind:k_send ~reason:0 ~src ~dst ~pm in
  if id > 0 then ignore (emit_msg_gen t ~time ~cause:id ~kind:k_recv ~reason:0 ~src ~dst ~pm);
  id

(* The fused hot pair: one delivered message = one [Send] plus its
   cause-linked [Recv], written as a single pair cell — three stores and
   no counter maintenance.  This is the per-delivery cost the <10%
   always-on budget is spent on, so the fast path is kept small enough
   to inline into callers.  Returns the [Send]'s id (the [Recv] is the
   next one). *)
let[@inline always] emit_send_recv t ~time ~src ~dst ~pm =
  let s = src + 1 in
  if t.fast && (s lor dst) lsr 20 = 0 then begin
    let id = t.next_id in
    t.next_id <- id + 2;
    let slot = claim t in
    let base = slot * cell_ints in
    let ints = t.ints in
    Array.unsafe_set ints base id;
    Array.unsafe_set ints (base + 2)
      (k_send lor pair_bit lor (s lsl 6) lor (dst lsl 26) lor (pm lsl 46));
    Array.unsafe_set t.floats (slot * cell_floats) time;
    id
  end
  else emit_send_recv_gen t ~time ~src ~dst ~pm

let emit_wide_gen t ~time ~cause ~kind ~a ~b ~c ~d ~aux =
  if not t.on then 0
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    let slot = write_wide t ~id ~cause ~kind ~reason:0 ~a ~b ~c ~d ~time ~aux in
    if t.eager then notify t slot;
    id
  end

(* One span of the other coded kinds in a wide cell, inlined so the
   float arguments never box between the call site and the cell
   stores. *)
let[@inline always] emit_wide t ~time ~cause ~kind ~a ~b ~c ~d ~aux =
  if t.fast then begin
    let id = t.next_id in
    t.next_id <- id + 1;
    store_wide t (claim t) ~id ~cause ~kind ~reason:0 ~a ~b ~c ~d ~time ~aux;
    id
  end
  else emit_wide_gen t ~time ~cause ~kind ~a ~b ~c ~d ~aux

let[@inline always] emit_timeout t ~time ~dst ~after =
  emit_wide t ~time ~cause:0 ~kind:k_timeout ~a:dst ~b:0 ~c:0 ~d:0 ~aux:after

let[@inline always] emit_retry t ~time ~cause ~dst ~attempt =
  ignore (emit_wide t ~time ~cause ~kind:k_retry ~a:dst ~b:attempt ~c:0 ~d:0 ~aux:0.)

let emit_repair_round t ~time ~coordinator ~tick ~re_replications ~trims =
  ignore
    (emit_wide t ~time ~cause:0 ~kind:k_repair ~a:coordinator ~b:tick ~c:re_replications
       ~d:trims ~aux:0.)

let[@inline always] emit_migration t ~time ~entry ~src ~dst =
  ignore (emit_wide t ~time ~cause:0 ~kind:k_migration ~a:entry ~b:src ~c:dst ~d:0 ~aux:0.)

(* {2 The compat boxed interface} — encodes a {!Span.kind} into cells;
   used by tests, marks and {!absorb}'s re-recording. *)

(* Encode one span.  Message spans take the compact header when their
   fields fit, the wide form otherwise (so arbitrary ints round-trip). *)
let write_span t ~id ~cause ~time (kind : Span.kind) =
  let msg_span k reason src dst plane msg =
    let p = intern t plane and m = intern t msg in
    let a = match (src : Span.actor) with Span.Client -> -1 | Span.Server i -> i in
    if p < 0x100 && m < 0x100 && a >= -1 && dst >= 0 && ((a + 1) lor dst) lsr 20 = 0 then
      write_msg t ~id ~cause ~kind:k ~reason ~src:a ~dst ~pm:((p lsl 8) lor m) ~time
    else write_wide t ~id ~cause ~kind:k ~reason ~a ~b:dst ~c:p ~d:m ~time ~aux:0.
  in
  match kind with
  | Span.Send { src; dst; plane; msg } -> msg_span k_send 0 src dst plane msg
  | Span.Recv { src; dst; plane; msg } -> msg_span k_recv 0 src dst plane msg
  | Span.Drop { src; dst; plane; msg; reason } ->
    msg_span k_drop (reason_code reason) src dst plane msg
  | Span.Retry { dst; attempt } ->
    write_wide t ~id ~cause ~kind:k_retry ~reason:0 ~a:dst ~b:attempt ~c:0 ~d:0 ~time ~aux:0.
  | Span.Timeout { dst; after } ->
    write_wide t ~id ~cause ~kind:k_timeout ~reason:0 ~a:dst ~b:0 ~c:0 ~d:0 ~time ~aux:after
  | Span.Repair_round { coordinator; tick; re_replications; trims } ->
    write_wide t ~id ~cause ~kind:k_repair ~reason:0 ~a:coordinator ~b:tick ~c:re_replications
      ~d:trims ~time ~aux:0.
  | Span.Migration { entry; src; dst } ->
    write_wide t ~id ~cause ~kind:k_migration ~reason:0 ~a:entry ~b:src ~c:dst ~d:0 ~time
      ~aux:0.
  | Span.Mark { label; detail } ->
    write_wide t ~id ~cause ~kind:k_mark ~reason:0 ~a:(intern t label) ~b:(intern t detail)
      ~c:0 ~d:0 ~time ~aux:0.

let emit t ~time ?(cause = 0) kind =
  if not t.on then 0
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    let slot = write_span t ~id ~cause ~time kind in
    if t.eager then notify t slot;
    id
  end

let record t ~time ~label detail = ignore (emit t ~time (Span.Mark { label; detail }))

(* {2 Draining} *)

let spans t =
  sync_evicted t;
  let acc = ref [] in
  let start = (t.head - t.count) land t.mask in
  for i = 0 to t.count - 1 do
    iter_slot t ((start + i) land t.mask) (fun s -> acc := s :: !acc)
  done;
  List.rev !acc

let clear t =
  sync_evicted t;
  t.head <- 0;
  t.count <- 0;
  t.next_id <- 1;
  t.emitted_adjust <- 0;
  t.carried_dropped <- 0;
  t.evict_reported <- 0

let absorb t child =
  (* Shift the child's ids past our watermark so cause links stay
     unambiguous after the merge; causes pointing at spans the child's
     ring already evicted keep their (shifted) ids — dangling but
     honest, and accounted for by [dropped]. *)
  let offset = t.next_id - 1 in
  let merged = ref 0 in
  let start = (child.head - child.count) land child.mask in
  for i = 0 to child.count - 1 do
    iter_slot child ((start + i) land child.mask) (fun s ->
        incr merged;
        let cause = match s.Span.cause with None -> 0 | Some c -> c + offset in
        let slot = write_span t ~id:(s.Span.id + offset) ~cause ~time:s.Span.time s.Span.kind in
        if t.eager then notify t slot)
  done;
  t.next_id <- t.next_id + (child.next_id - 1);
  (* The child advanced our watermark by its whole minted range but
     contributed only its retained spans to the recorded total. *)
  t.emitted_adjust <- t.emitted_adjust + !merged - (child.next_id - 1);
  t.carried_dropped <- t.carried_dropped + (emitted child - !merged + child.carried_dropped);
  sync_evicted t

let flush t =
  sync_evicted t;
  List.iter Sink.flush t.sinks

let dump t =
  let buf = Buffer.create 1024 in
  List.iter
    (fun span -> Buffer.add_string buf (Format.asprintf "%a@." Span.pp span))
    (spans t);
  Buffer.contents buf
