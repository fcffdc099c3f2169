open Plookup_store
module Rng = Plookup_util.Rng

(* The distinct entries of one lookup in arrival order: [items.(0 ..
   count-1)].  [seat] is the table generation at which those are exactly
   the ids the table holds; 0, below every generation, until the first
   merge. *)
type buffer = { mutable items : Entry.t array; mutable count : int; mutable seat : int }

(* An open-addressing table of entry ids beside the synchronous client's
   buffer.  Slot [i] of the table holds [ids.(i)] only while
   [stamps.(i) = gen], so bumping [gen] empties it in O(1).  [gen] never
   goes back, not even when a regrowth or a shrink makes a new table: a
   {!Buffer} seated at an old generation must find itself unseated.  A
   buffer and the table grow separately: the buffer doubles when full,
   the table doubles when it would pass a load of 3/4.

   [own] is the synchronous client's buffer, seated by [create] and
   [reset].  Each asynchronous lookup keeps a {!Buffer.t} of its own and
   merges it through the same table. *)
type t = {
  default : int; (* buffer length a reset returns to *)
  mutable ids : int array;
  mutable stamps : int array;
  mutable gen : int;
  mutable bits : int; (* log2 of the table length *)
  own : buffer;
}

let dummy = Entry.v 0

(* A reset drops a set grown past this multiple of its default back to
   the default, so one exhaustive lookup does not pin its memory. *)
let shrink_factor = 4

(* A new, empty table: its stamps are 0, below every generation. *)
let alloc_table t bits =
  t.ids <- Array.make (1 lsl bits) 0;
  t.stamps <- Array.make (1 lsl bits) 0;
  t.gen <- t.gen + 1;
  t.bits <- bits

(* The log2 length of the smallest table of at least 8 slots holding [n]
   ids at a load of at most 3/4. *)
let table_bits n =
  let rec from b = if 3 lsl b >= 4 * n then b else from (b + 1) in
  from 3

(* A buffer of [n] entries and the smallest table holding them. *)
let alloc t n =
  alloc_table t (table_bits n);
  t.own.items <- Array.make n dummy

(* Fibonacci hashing: the top bits of the id times 2^62 / phi. *)
let home t id = (id * 0x278DDE6E5FD29F05) lsr (63 - t.bits)

(* The slot holding [id], or the empty slot where it belongs. *)
let rec slot t id i =
  if t.stamps.(i) <> t.gen || t.ids.(i) = id then i
  else slot t id ((i + 1) land (Array.length t.ids - 1))

let claim t id =
  let i = slot t id (home t id) in
  t.stamps.(i) <- t.gen;
  t.ids.(i) <- id

let claim_all t entries len =
  for j = 0 to len - 1 do
    claim t (Entry.id entries.(j))
  done

(* [entries], whose [len] slots are all full, in a buffer twice as long. *)
let doubled entries len =
  let bigger = Array.make (2 * len) dummy in
  Array.blit entries 0 bigger 0 len;
  bigger

(* Seat [id], the [len + 1]-th distinct id of the buffer [entries], in a
   table twice as long as the one it would overfill. *)
let regrow t entries len id =
  alloc_table t (t.bits + 1);
  claim_all t entries len;
  claim t id

(* Append [e] to [b] and claim its id, unless the table holds the id
   already; the buffer and the table grow as they fill. *)
let add_one t b e =
  let id = Entry.id e in
  let i = slot t id (home t id) in
  if t.stamps.(i) <> t.gen then begin
    if b.count = Array.length b.items then b.items <- doubled b.items b.count;
    if 4 * (b.count + 1) > 3 * Array.length t.ids then regrow t b.items b.count id
    else begin
      t.stamps.(i) <- t.gen;
      t.ids.(i) <- id
    end;
    b.items.(b.count) <- e;
    b.count <- b.count + 1
  end

let rec add_all t b = function
  | [] -> ()
  | e :: rest ->
    add_one t b e;
    add_all t b rest

let rec range_to_list entries lo i acc =
  if i < lo then acc else range_to_list entries lo (i - 1) (entries.(i) :: acc)

let pick_from b ~rng ~target =
  let k = min target b.count in
  let lo = Rng.subset_in_place rng b.items ~n:b.count ~k in
  range_to_list b.items lo (lo + k - 1) []

let create ?(expect = 64) () =
  if expect <= 0 then invalid_arg "Answer_set.create: expect must be positive";
  let t =
    { default = expect; ids = [||]; stamps = [||]; gen = 0; bits = 0;
      own = { items = [||]; count = 0; seat = 0 } }
  in
  alloc t expect;
  t.own.seat <- t.gen;
  t

let reset t =
  t.own.count <- 0;
  if Array.length t.own.items > shrink_factor * t.default then alloc t t.default
  else t.gen <- t.gen + 1;
  t.own.seat <- t.gen

let add t entries = add_all t t.own entries
let length t = t.own.count
let capacity t = Array.length t.own.items
let pick t ~rng ~target = pick_from t.own ~rng ~target

module Buffer = struct
  type set = t
  type t = buffer

  let create ~expect =
    if expect <= 0 then invalid_arg "Answer_set.Buffer.create: expect must be positive";
    { items = Array.make expect dummy; count = 0; seat = 0 }

  (* A new generation holding [b]'s ids and no other, in a table first
     grown to hold them if a reset shrank it. *)
  let reseat (s : set) b =
    if 4 * b.count > 3 * Array.length s.ids then alloc_table s (table_bits b.count)
    else s.gen <- s.gen + 1;
    claim_all s b.items b.count

  (* A regrowth inside [add_all] moves the table to a new generation and
     claims [b]'s ids there, so [b] ends seated at the table's last. *)
  let merge s b = function
    | [] -> ()
    | entries ->
      if b.seat <> s.gen then reseat s b;
      add_all s b entries;
      b.seat <- s.gen

  let length b = b.count
  let pick = pick_from
end
