open Plookup_util
module Net = Plookup_net.Net

(* Inline records keep every cursor one block: an async lookup holds its
   cursor for its whole lifetime, and at a flash crowd's peak thousands
   of them are in flight at once. *)
type t =
  | Shuffle of {
      (* Forward Fisher–Yates over the virtual array [0, m): step i
         swaps slot i with a uniform slot j in [i, m) and yields the new
         slot i.  Only displaced slots are stored, so k steps cost k
         draws and O(k) memory whatever m is.  [resolve] maps a yielded
         slot value to a server id, and ids failing [keep] are
         skipped. *)
      rng : Rng.t;
      m : int;
      mutable i : int;
      mutable swaps : int array; (* displaced slots, a table described below *)
      mutable stored : int; (* its occupied cells *)
      resolve : int -> int;
      keep : int -> bool;
    }
  | Stride of {
      (* The cycle yields [cycle = n / g] ids, g = gcd(step, n): exactly
         the ids congruent to [start] mod g.  The tail then scans
         ascending ids from [rest], skipping that residue class. *)
      n : int;
      step : int;
      g : int;
      residue : int;
      cycle : int;
      mutable j : int;
      mutable pos : int;
      mutable rest : int;
    }
  | Listed of { mutable pending : int list }

(* The displaced slots live in an open-addressing table of ints with
   linear probing, whose length is a power of two: a cell holds
   [slot lsl value_bits lor value], or [empty].  Slots and values are
   ranks below m, far below 2^31.  A slot is its own hash: the slots
   stored are uniform draws, and a long walk fills [0, m) densely,
   which identity hashing places without collisions.  Nothing is
   removed: a slot below the cursor is never read again, and each step
   stores at most one slot, so k steps still fill O(k) cells. *)
let empty = -1
let value_bits = 31
let value_mask = (1 lsl value_bits) - 1

let random_up ?(keep = fun _ -> true) cluster =
  Shuffle
    { rng = Cluster.rng cluster;
      m = Cluster.up_count cluster;
      i = 0;
      swaps = Array.make 8 empty;
      stored = 0;
      resolve = Net.kth_up (Cluster.net cluster);
      keep }

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

let stride ~n ~start ~step =
  if n <= 0 then invalid_arg "Probe_order.stride: n must be positive";
  (* OCaml's [mod] is sign-preserving: normalize both into [0, n). *)
  let step = ((step mod n) + n) mod n in
  let start = ((start mod n) + n) mod n in
  let g = gcd step n in
  Stride { n; step; g; residue = start mod g; cycle = n / g; j = 0; pos = start; rest = 0 }

(* Whether the ids are distinct and each in [0, 62]: one pass over a
   bitmask of the ids seen, allocating nothing. *)
let rec distinct_small seen = function
  | [] -> true
  | s :: rest ->
    s >= 0 && s <= 62
    && seen land (1 lsl s) = 0
    && distinct_small (seen lor (1 lsl s)) rest

(* A list that is already distinct is shared as it is.  Otherwise
   repeats are dropped up front, so the table is garbage before the
   walk starts rather than held for a lookup's lifetime. *)
let of_list order =
  if distinct_small 0 order then Listed { pending = order }
  else begin
    let seen = Hashtbl.create 16 in
    Listed
      { pending =
          List.filter
            (fun s ->
              if Hashtbl.mem seen s then false
              else begin
                Hashtbl.add seen s ();
                true
              end)
            order }
  end

(* The cell holding slot [k], or the empty cell where it would go. *)
let rec cell swaps k c =
  let e = swaps.(c) in
  if e = empty || e lsr value_bits = k then c
  else cell swaps k ((c + 1) land (Array.length swaps - 1))

let find swaps k = cell swaps k (k land (Array.length swaps - 1))

(* Slot [k]'s value, given its cell [c]: [k] itself unless displaced. *)
let value swaps c k =
  let e = swaps.(c) in
  if e = empty then k else e land value_mask

(* Double the table once it is three quarters full. *)
let grow swaps =
  let bigger = Array.make (2 * Array.length swaps) empty in
  for c = 0 to Array.length swaps - 1 do
    let e = swaps.(c) in
    if e <> empty then bigger.(find bigger (e lsr value_bits)) <- e
  done;
  bigger

let rec next t =
  match t with
  | Shuffle s ->
    if s.i >= s.m then None
    else begin
      let i = s.i in
      let j = if s.m - i > 1 then i + Rng.int s.rng (s.m - i) else i in
      let cj = find s.swaps j in
      let picked = value s.swaps cj j in
      if j <> i then begin
        let fresh = s.swaps.(cj) = empty in
        s.swaps.(cj) <- (j lsl value_bits) lor value s.swaps (find s.swaps i) i;
        if fresh then begin
          s.stored <- s.stored + 1;
          if 4 * s.stored > 3 * Array.length s.swaps then s.swaps <- grow s.swaps
        end
      end;
      s.i <- i + 1;
      let id = s.resolve picked in
      if s.keep id then Some id else next t
    end
  | Stride s ->
    if s.j < s.cycle then begin
      let id = s.pos in
      s.j <- s.j + 1;
      s.pos <- (s.pos + s.step) mod s.n;
      Some id
    end
    else begin
      while s.rest < s.n && s.rest mod s.g = s.residue do
        s.rest <- s.rest + 1
      done;
      if s.rest >= s.n then None
      else begin
        let id = s.rest in
        s.rest <- id + 1;
        Some id
      end
    end
  | Listed l -> (
    match l.pending with
    | [] -> None
    | s :: rest ->
      l.pending <- rest;
      Some s)

let to_list t =
  let rec go acc = match next t with Some s -> go (s :: acc) | None -> List.rev acc in
  go []
