open Plookup_store
module Rng = Plookup_util.Rng

(* An open-addressing table of entry ids beside a buffer of the distinct
   entries in arrival order.  Slot [i] of the table holds [ids.(i)] only
   while [stamps.(i) = gen], so bumping [gen] empties it in O(1).  The
   buffer and the table grow separately: the buffer doubles when full,
   the table doubles when it would pass a load of 3/4. *)
type t = {
  default : int; (* buffer length a reset returns to *)
  mutable ids : int array;
  mutable stamps : int array;
  mutable gen : int;
  mutable bits : int; (* log2 of the table length *)
  mutable entries : Entry.t array;
  mutable len : int;
}

let dummy = Entry.v 0

(* A reset drops a set grown past this multiple of its default back to
   the default, so one exhaustive lookup does not pin its memory. *)
let shrink_factor = 4

let alloc_table t bits =
  t.ids <- Array.make (1 lsl bits) 0;
  t.stamps <- Array.make (1 lsl bits) 0;
  t.gen <- 1;
  t.bits <- bits

(* A buffer of [n] entries and the smallest table holding them at a load
   of at most 3/4. *)
let alloc t n =
  let rec bits b = if 3 lsl b >= 4 * n then b else bits (b + 1) in
  alloc_table t (bits 3);
  t.entries <- Array.make n dummy

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

let create ?(expect = 64) () =
  if expect <= 0 then invalid_arg "Answer_set.create: expect must be positive";
  let t =
    { default = expect; ids = [||]; stamps = [||]; gen = 1; bits = 0; entries = [||]; len = 0 }
  in
  alloc t expect;
  t

let reset t =
  t.len <- 0;
  if Array.length t.entries > shrink_factor * t.default then alloc t t.default
  else t.gen <- t.gen + 1

let add_one t e =
  let id = Entry.id e in
  let i = slot t id (home t id) in
  if t.stamps.(i) <> t.gen then begin
    if t.len = Array.length t.entries then begin
      let bigger = Array.make (2 * t.len) dummy in
      Array.blit t.entries 0 bigger 0 t.len;
      t.entries <- bigger
    end;
    if 4 * (t.len + 1) > 3 * Array.length t.ids then begin
      alloc_table t (t.bits + 1);
      for j = 0 to t.len - 1 do
        claim t (Entry.id t.entries.(j))
      done;
      claim t id
    end
    else begin
      t.stamps.(i) <- t.gen;
      t.ids.(i) <- id
    end;
    t.entries.(t.len) <- e;
    t.len <- t.len + 1
  end

let rec add t = function
  | [] -> ()
  | e :: rest ->
    add_one t e;
    add t rest

let length t = t.len
let capacity t = Array.length t.entries

let rec range_to_list entries lo i acc =
  if i < lo then acc else range_to_list entries lo (i - 1) (entries.(i) :: acc)

let pick t ~rng ~target =
  let k = min target t.len in
  let lo = Rng.subset_in_place rng t.entries ~n:t.len ~k in
  range_to_list t.entries lo (lo + k - 1) []
