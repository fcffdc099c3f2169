module Rng = Plookup_util.Rng
module Bitset = Plookup_util.Bitset

(* Entry id -> slot is an open-addressing table the store owns: one int
   array of (id, slot) pairs, so that [mem], [add], [remove] and [slot]
   allocate nothing and no write to it passes the write barrier.  Cell
   c is [cells.(2c)], an id or [empty], and [cells.(2c + 1)], its slot.
   There are [2^bits] cells, at most 3/4 of them full; the array is
   made at a store's first add with 4 cells, doubles at 3/4 load and
   is dropped by [clear], so an empty store holds none and a store of
   up to 3 entries holds 4.

   A cell's home is the top [bits] bits of the id times 2^62 / phi
   (Fibonacci hashing, as in [Answer_set]).  A RoundRobin server's ids
   share one residue class mod n, and the product carries every bit of
   the id into the top bits, so strided ids still spread.  Collisions
   probe linearly, and [remove] shifts later cells of its run back
   into the hole, so there are no tombstones and a probe ends at the
   first empty cell.  Ids are never negative, so [-1] marks a free
   cell.

   The record's last word holds [bits] in its bits 0-5 and, while the
   table has at most 8 cells (6 entries), a summary of the held ids in
   bits 6-62: one mark per id, picked by a second multiplicative hash.
   [add] sets the id's mark and [remove] recomputes the marks, and a
   lookup whose mark is clear answers "absent" from the record alone,
   without reading [cells]: a delete broadcast to 10,000 servers finds
   its id on a few of them, and at 2 entries a store has 2 of 57 marks
   set.  A larger table is probed as it was without a summary: its
   marks would fill up, and recomputing them on each remove cost a
   10-entry store about 40% of its remove-and-add throughput. *)
type t = {
  mutable slots : Entry.t array; (* entries live in slots.(0 .. size-1) *)
  mutable size : int;
  mutable cells : int array; (* (id, slot) pairs; [||] before the first add *)
  mutable shape : int; (* [bits] lor the summary's marks *)
}

(* [random_pick]'s index buffer, grown on demand.  One serves every
   store of a cluster, since a pick finishes before the next begins. *)
type scratch = { mutable buf : int array }

let empty = -1
let dummy = Entry.v 0

let create () = { slots = [||]; size = 0; cells = [||]; shape = 0 }
let scratch () = { buf = [||] }

let cardinal t = t.size
let is_empty t = t.size = 0

(* log2 of the number of cells. *)
let[@inline] bits t = t.shape land 63

(* Whether the marks summarise the held ids: at most 8 cells. *)
let[@inline] summarised t = bits t <= 3

(* [id]'s summary mark: bit 6 + m for the top 31 bits of id times an
   odd constant scaled to m in [0, 57). *)
let[@inline] mark id = 1 lsl (6 + ((((id * 0x1CE4E5B9BF58476D) lsr 32) * 57) lsr 31))

(* The array index of [id]'s home cell. *)
let[@inline] home t id = ((id * 0x278DDE6E5FD29F05) lsr (63 - bits t)) lsl 1

(* The index of the cell holding [id], or of the empty cell that ends
   its probe; a table never fills, so the walk ends. *)
let rec find cells id i =
  let k = cells.(i) in
  if k = id || k = empty then i else find cells id ((i + 2) land (Array.length cells - 1))

(* The index of the cell holding [id], or -1; a clear mark, an empty
   store's included, answers without reading the cells. *)
let locate t id =
  if summarised t && t.shape land mark id = 0 then -1
  else
    let i = find t.cells id (home t id) in
    if t.cells.(i) = id then i else -1

let mem t e = locate t (Entry.id e) >= 0

let slot t e =
  let i = locate t (Entry.id e) in
  if i < 0 then -1 else t.cells.(i + 1)

(* A fresh table of [2^bits] cells indexing slots 0 .. size-1. *)
let rebuild t bits =
  let cells = Array.make (2 lsl bits) empty in
  t.cells <- cells;
  t.shape <- (t.shape land lnot 63) lor bits;
  for slot = 0 to t.size - 1 do
    let id = Entry.id t.slots.(slot) in
    let i = find cells id (home t id) in
    cells.(i) <- id;
    cells.(i + 1) <- slot
  done

let ensure_capacity t =
  if t.size = Array.length t.slots then begin
    let capacity = max 2 (2 * Array.length t.slots) in
    let slots = Array.make capacity dummy in
    Array.blit t.slots 0 slots 0 t.size;
    t.slots <- slots
  end

let add t e =
  let id = Entry.id e in
  if Array.length t.cells = 0 then rebuild t 2;
  let i = find t.cells id (home t id) in
  if t.cells.(i) = id then false
  else begin
    let i =
      if 4 * (t.size + 1) <= 3 lsl bits t then i
      else begin
        rebuild t (bits t + 1);
        find t.cells id (home t id)
      end
    in
    ensure_capacity t;
    t.slots.(t.size) <- e;
    t.cells.(i) <- id;
    t.cells.(i + 1) <- t.size;
    t.size <- t.size + 1;
    if summarised t then t.shape <- t.shape lor mark id;
    true
  end

(* Empty the cell at [hole] by walking the rest of its run: the cell at
   [j] moves back into the hole, and the hole moves to [j], unless its
   home lies in (hole, j], so that no probe for it passes the hole.
   Distances are taken forward around the table. *)
let rec shift_back t hole j =
  let cells = t.cells in
  let mask = Array.length cells - 1 in
  let j = (j + 2) land mask in
  let id = cells.(j) in
  if id = empty then cells.(hole) <- empty
  else if (j - home t id) land mask < (j - hole) land mask then shift_back t hole j
  else begin
    cells.(hole) <- id;
    cells.(hole + 1) <- cells.(j + 1);
    shift_back t j j
  end

(* [bits] with the marks of the ids [cells] holds. *)
let summarise cells bits =
  let shape = ref bits in
  for c = 0 to (Array.length cells / 2) - 1 do
    let id = cells.(2 * c) in
    if id <> empty then shape := !shape lor mark id
  done;
  !shape

let remove t e =
  let i = locate t (Entry.id e) in
  if i < 0 then false
  else begin
    let slot = t.cells.(i + 1) in
    shift_back t i i;
    let last = t.size - 1 in
    if slot <> last then begin
      let moved = t.slots.(last) in
      t.slots.(slot) <- moved;
      let id = Entry.id moved in
      t.cells.(find t.cells id (home t id) + 1) <- slot
    end;
    t.slots.(last) <- dummy;
    t.size <- last;
    if summarised t then t.shape <- summarise t.cells (bits t);
    true
  end

let clear t =
  t.slots <- [||];
  t.size <- 0;
  t.cells <- [||];
  t.shape <- 0

(* Two laps of the cells, so that a run wrapping past the end is
   counted whole; a table is never full, so no run is endless. *)
let longest_run t =
  let n = Array.length t.cells / 2 in
  let longest = ref 0 and run = ref 0 in
  for c = 0 to (2 * n) - 1 do
    if t.cells.(2 * (c land (n - 1))) = empty then run := 0
    else begin
      incr run;
      longest := Int.max !longest !run
    end
  done;
  !longest

let rec slots_to_list slots i acc =
  if i < 0 then acc else slots_to_list slots (i - 1) (slots.(i) :: acc)

let to_list t = slots_to_list t.slots (t.size - 1) []

let rec picked_to_list slots scratch lo i acc =
  if i < lo then acc else picked_to_list slots scratch lo (i - 1) (slots.(scratch.(i)) :: acc)

(* The per-server lookup answer is the hottest operation of the whole
   evaluation.  A store holding no more than [k] entries answers with
   all of them and draws nothing; otherwise the k-subset is drawn over
   the borrowed index buffer, so the only allocation is the returned
   list. *)
let random_pick t ~scratch rng k =
  if k <= 0 then []
  else if k >= t.size then to_list t
  else begin
    if Array.length scratch.buf < t.size then scratch.buf <- Array.make (max 8 (2 * t.size)) 0;
    let buf = scratch.buf in
    for i = 0 to t.size - 1 do
      buf.(i) <- i
    done;
    let lo = Rng.subset_in_place rng buf ~n:t.size ~k in
    picked_to_list t.slots buf lo (lo + k - 1) []
  end

(* [size <= Array.length slots], so the check covers the array's bounds. *)
let[@inline] nth t i =
  if i < 0 || i >= t.size then invalid_arg "Server_store.nth";
  Array.unsafe_get t.slots i

let iter f t =
  for i = 0 to t.size - 1 do
    f t.slots.(i)
  done

let fold f t init =
  let acc = ref init in
  iter (fun e -> acc := f e !acc) t;
  !acc

let ids t = fold (fun e acc -> Entry.id e :: acc) t []

let snapshot_bitset t ~capacity =
  let bs = Bitset.create capacity in
  iter (fun e -> Bitset.add bs (Entry.id e)) t;
  bs

let pp ppf t =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ") Entry.pp)
    (List.sort Entry.compare (to_list t))
