module Rng = Plookup_util.Rng
module Bitset = Plookup_util.Bitset

(* Entry id -> slot, specialised to int keys so that no store
   operation calls the polymorphic hash or compare.  Buckets are picked
   by the hash's low bits, and a RoundRobin server's ids all fall in one
   residue class mod n: identity hashing would crowd them into a few
   buckets whenever n is a power of two.  So the hash multiplies by an
   odd constant, which carries every bit of the id upwards, and folds
   the high half of the product back into the low bits. *)
module Index = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash id =
    let h = id * 0x2545F4914F6CDD1D in
    (h lxor (h lsr 32)) land max_int
end)

type t = {
  mutable slots : Entry.t array; (* entries live in slots.(0 .. size-1) *)
  mutable size : int;
  index : int Index.t; (* entry id -> slot *)
  mutable scratch : int array; (* reused by random_pick; grown on demand *)
}

let dummy = Entry.v 0

let create () = { slots = [||]; size = 0; index = Index.create 16; scratch = [||] }

let cardinal t = t.size
let is_empty t = t.size = 0
let mem t e = Index.mem t.index (Entry.id e)

let ensure_capacity t =
  if t.size = Array.length t.slots then begin
    let capacity = max 8 (2 * Array.length t.slots) in
    let slots = Array.make capacity dummy in
    Array.blit t.slots 0 slots 0 t.size;
    t.slots <- slots
  end

let add t e =
  if mem t e then false
  else begin
    ensure_capacity t;
    t.slots.(t.size) <- e;
    Index.replace t.index (Entry.id e) t.size;
    t.size <- t.size + 1;
    true
  end

let remove t e =
  match Index.find_opt t.index (Entry.id e) with
  | None -> false
  | Some slot ->
    Index.remove t.index (Entry.id e);
    let last = t.size - 1 in
    if slot <> last then begin
      let moved = t.slots.(last) in
      t.slots.(slot) <- moved;
      Index.replace t.index (Entry.id moved) slot
    end;
    t.slots.(last) <- dummy;
    t.size <- last;
    true

let clear t =
  t.slots <- [||];
  t.size <- 0;
  Index.reset t.index

let rec slots_to_list slots i acc =
  if i < 0 then acc else slots_to_list slots (i - 1) (slots.(i) :: acc)

let to_list t = slots_to_list t.slots (t.size - 1) []

let rec picked_to_list slots scratch lo i acc =
  if i < lo then acc else picked_to_list slots scratch lo (i - 1) (slots.(scratch.(i)) :: acc)

(* The per-server lookup answer is the hottest operation of the whole
   evaluation.  A store holding no more than [k] entries answers with
   all of them and draws nothing; otherwise the k-subset is drawn over
   a per-store scratch index buffer, so the only allocation is the
   returned list. *)
let random_pick t rng k =
  if k <= 0 then []
  else if k >= t.size then to_list t
  else begin
    if Array.length t.scratch < t.size then t.scratch <- Array.make (max 8 (2 * t.size)) 0;
    for i = 0 to t.size - 1 do
      t.scratch.(i) <- i
    done;
    let lo = Rng.subset_in_place rng t.scratch ~n:t.size ~k in
    picked_to_list t.slots t.scratch lo (lo + k - 1) []
  end

let random_one t rng = if t.size = 0 then None else Some t.slots.(Rng.int rng t.size)

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
