type state = Live | Cancelled | Fired

(* A pool slot: empty, or the event's handle, which carries its payload
   and its state.  [Free] is an immediate, so an empty slot holds no
   pointer and the pool needs no dummy payload. *)
type 'a entry = Free | Node of { mutable state : state; payload : 'a }
type 'a handle = 'a entry

(* A binary min-heap kept as three parallel arrays over heap positions:
   [times] and [seqs] are the key, [slots] names the pool slot holding
   the event.  A sift compares unboxed floats and ints and moves only
   them, so it never passes the write barrier.

   [slots] is a permutation of 0 .. capacity-1: positions below [size]
   are the heap's, the rest are the free slots, so a push takes the
   free slot already sitting at position [size] and a removal leaves
   the root's slot just past the shrunk heap. *)
type 'a t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable slots : int array;
  mutable pool : 'a entry array;
  mutable size : int; (* physical entries, cancelled included *)
  mutable live : int; (* entries that will still fire *)
  mutable next_seq : int;
}

let create () =
  { times = [||]; seqs = [||]; slots = [||]; pool = [||]; size = 0; live = 0; next_seq = 0 }

let length t = t.live
let is_empty t = t.live = 0

let grow t =
  let old = Array.length t.times in
  let capacity = max 16 (2 * old) in
  let times = Array.make capacity 0. and seqs = Array.make capacity 0 in
  let slots = Array.init capacity Fun.id and pool = Array.make capacity Free in
  Array.blit t.times 0 times 0 t.size;
  Array.blit t.seqs 0 seqs 0 t.size;
  Array.blit t.slots 0 slots 0 old;
  Array.blit t.pool 0 pool 0 old;
  t.times <- times;
  t.seqs <- seqs;
  t.slots <- slots;
  t.pool <- pool

(* Whether the entry at heap position [i] goes before key (time, seq).
   Live entries' seqs are distinct, so among them this is a strict total
   order. *)
let[@inline] before t i time seq =
  let ti = Array.unsafe_get t.times i in
  ti < time || (ti = time && Array.unsafe_get t.seqs i < seq)

let[@inline] move t ~src ~dst =
  Array.unsafe_set t.times dst (Array.unsafe_get t.times src);
  Array.unsafe_set t.seqs dst (Array.unsafe_get t.seqs src);
  Array.unsafe_set t.slots dst (Array.unsafe_get t.slots src)

let[@inline] place t i time seq slot =
  Array.unsafe_set t.times i time;
  Array.unsafe_set t.seqs i seq;
  Array.unsafe_set t.slots i slot

let[@inline] reserve t =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  seq

let[@inline] push_reserved t ~time ~seq payload =
  if t.size = Array.length t.times then grow t;
  let node = Node { state = Live; payload } in
  let slot = t.slots.(t.size) in
  t.pool.(slot) <- node;
  (* Sift up: parents after the new key move down into the hole. *)
  let i = ref t.size in
  t.size <- t.size + 1;
  t.live <- t.live + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if before t parent time seq then continue := false
    else begin
      move t ~src:parent ~dst:!i;
      i := parent
    end
  done;
  place t !i time seq slot;
  node

let[@inline] push t ~time payload = push_reserved t ~time ~seq:(reserve t) payload

let cancel_handle t = function
  | Node ({ state = Live; _ } as n) ->
    n.state <- Cancelled;
    t.live <- t.live - 1;
    true
  | Node { state = Cancelled | Fired; _ } | Free -> false

let is_cancelled = function Node { state = Cancelled; _ } -> true | Node _ | Free -> false

(* Remove the heap root without inspecting its state: the last entry
   sifts down from the root's hole, and the root's slot is emptied, so
   the queue keeps no removed payload alive. *)
let remove_root t =
  let root_slot = t.slots.(0) in
  let last = t.size - 1 in
  t.size <- last;
  let time = t.times.(last) and seq = t.seqs.(last) and slot = t.slots.(last) in
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    if l >= last then continue := false
    else begin
      let c = if l + 1 < last && before t (l + 1) t.times.(l) t.seqs.(l) then l + 1 else l in
      if before t c time seq then begin
        move t ~src:c ~dst:!i;
        i := c
      end
      else continue := false
    end
  done;
  place t !i time seq slot;
  t.slots.(last) <- root_slot;
  t.pool.(root_slot) <- Free

(* Lazy deletion: cancelled entries stay in the heap until they surface,
   then are discarded here.  Every exported read goes through this, so
   callers only ever see events that will actually fire. *)
let discard_cancelled t =
  while t.size > 0 && is_cancelled t.pool.(t.slots.(0)) do
    remove_root t
  done

let[@inline] min_time t =
  discard_cancelled t;
  if t.size = 0 then infinity else Array.unsafe_get t.times 0

let take t =
  discard_cancelled t;
  if t.size = 0 then invalid_arg "Event_queue.take: no event left";
  match t.pool.(t.slots.(0)) with
  | Free -> assert false (* every heap position names a filled slot *)
  | Node n ->
    n.state <- Fired;
    t.live <- t.live - 1;
    remove_root t;
    n.payload

let pop t =
  if is_empty t then None
  else
    let time = min_time t in
    Some (time, take t)

let peek t =
  if is_empty t then None
  else
    let time = min_time t in
    match t.pool.(t.slots.(0)) with
    | Free -> assert false
    | Node n -> Some (time, n.payload)

(* Keep the arrays so a reused queue (Engine.reset, repeated Monte-Carlo
   runs on one engine) never re-grows from scratch.  A forgotten event
   counts as cancelled, so cancelling it later is a no-op. *)
let clear t =
  for i = 0 to t.size - 1 do
    let slot = t.slots.(i) in
    (match t.pool.(slot) with Node ({ state = Live; _ } as n) -> n.state <- Cancelled | _ -> ());
    t.pool.(slot) <- Free
  done;
  t.size <- 0;
  t.live <- 0

let drain t =
  let rec go acc =
    if is_empty t then List.rev acc
    else
      let time = min_time t in
      go ((time, take t) :: acc)
  in
  go []
