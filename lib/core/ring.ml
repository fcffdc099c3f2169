open Plookup_store
open Plookup_util

(* Consistent-hashing rings with one point per server, after Chord
   (Stoica et al.) and multi-probe consistent hashing (Appleton &
   O'Reilly); see ring.mli.  Chord-y is MultiProbe's one-probe case on
   its own salts. *)

let ring_size = 1 lsl 30

(* A ring point and its server packed into one int, point above server:
   a point is below 2^30 and a server below 2^31, so the packed ints
   sort by point and the ring is one flat int array. *)
let server_bits = 31
let ring_point packed = packed lsr server_bits
let ring_server packed = packed land ((1 lsl server_bits) - 1)

(* Packed (ring point, server) ints sorted by point.  Collisions are
   re-salted deterministically so every cluster seed yields one
   well-defined ring; the two strategies' salt families are disjoint, so
   they use independent rings even on the same cluster seed. *)
let ring_points cluster ~salt =
  let n = Cluster.n cluster in
  let seed = Cluster.seed cluster in
  let taken = Hashtbl.create n in
  let point_of server =
    let rec probe attempt =
      let p =
        Rng.hash_in_range ~seed ~salt:(salt + (attempt * n) + server) ~value:server ring_size
      in
      if Hashtbl.mem taken p then probe (attempt + 1)
      else begin
        Hashtbl.replace taken p ();
        p
      end
    in
    probe 0
  in
  let points = Array.init n (fun s -> (point_of s lsl server_bits) lor s) in
  Array.sort Int.compare points;
  points

(* The smallest i in [lo, hi) with point(i) >= p, or [hi], given [key]
   = p packed with server 0: a packed int is at least [key] exactly when
   its point is at least p.  Top-level, so a search allocates no
   closure.  The annotation keeps the comparison on ints rather than
   polymorphic. *)
let rec search (points : int array) key lo hi =
  if lo >= hi then lo
  else begin
    let mid = (lo + hi) / 2 in
    if points.(mid) >= key then search points key lo mid else search points key (mid + 1) hi
  end

(* Index of the first ring point at or after [p] (clockwise successor),
   wrapping past the top of the ring. *)
let successor_index points p =
  let len = Array.length points in
  search points (p lsl server_bits) 0 len mod len

(* The winning probe's successor: the probe whose clockwise distance to
   its successor is smallest (ties keep the earliest probe, so the
   winner is deterministic).  With [k = 1] this is the successor of the
   entry's one point. *)
let home_index points ~seed ~probe_salt ~k id =
  let best = ref 0 in
  let best_dist = ref max_int in
  for j = 0 to k - 1 do
    let p = Rng.hash_in_range ~seed ~salt:(probe_salt + j) ~value:id ring_size in
    let i = successor_index points p in
    let dist = (ring_point points.(i) - p + ring_size) mod ring_size in
    if dist < !best_dist then begin
      best := i;
      best_dist := dist
    end
  done;
  !best

(* The servers at ring indices [start + r] for r < [count], in ring
   order, built from the last one back so no closure is allocated. *)
let rec successors points ~start count acc =
  if count = 0 then acc
  else
    let i = (start + count - 1) mod Array.length points in
    successors points ~start (count - 1) (ring_server points.(i) :: acc)

(* The entry lives on [min y n] consecutive distinct successors starting
   at its home server. *)
let create cluster ~ring_salt ~probe_salt ~y ~k =
  let points = ring_points cluster ~salt:ring_salt in
  let seed = Cluster.seed cluster in
  let y = min y (Array.length points) in
  Owner_placement.create cluster ~targets:(fun e ->
      successors points ~start:(home_index points ~seed ~probe_salt ~k (Entry.id e)) y [])

let chord cluster ~y =
  if y < 1 then invalid_arg "Chord.create: y must be at least 1";
  create cluster ~ring_salt:0x517C0 ~probe_salt:0xE17 ~y ~k:1

let multi_probe cluster ~y ~k =
  if y < 1 then invalid_arg "Multi_probe.create: y must be at least 1";
  if k < 1 then invalid_arg "Multi_probe.create: k must be at least 1";
  create cluster ~ring_salt:0x3B0CE ~probe_salt:0x3BD1 ~y ~k

module Chord = Owner_placement.Strategy (struct
  let meta =
    { Strategy_intf.name = "Chord";
      keys = [ "chord"; "ring" ];
      arity = 1;
      param_doc = "Y = successors holding each entry on the ring";
      storage_doc = "h*min(y,n)";
      ablation = false;
      rank = 60 }

  let analytic_storage ~n ~h ~params =
    float_of_int (h * min (Strategy_common.one_param ~who:"Chord" ~what:"y" params) n)

  let params_for_budget ~n:_ ~h ~total ~params:_ = [ max 1 (total / h) ]

  let create cluster ~params =
    chord cluster ~y:(Strategy_common.one_param ~who:"Chord.create" ~what:"y" params)
end)

module Multi_probe = Owner_placement.Strategy (struct
  let meta =
    { Strategy_intf.name = "MultiProbe";
      keys = [ "multiprobe"; "mpch" ];
      arity = 2;
      param_doc = "Y = replicas on consecutive ring successors, K = probe hashes per key";
      storage_doc = "h*min(y,n)";
      ablation = false;
      rank = 80 }

  let split_params = function
    | [ y; k ] when y > 0 && k > 0 -> (y, k)
    | _ -> invalid_arg "MultiProbe: bad parameters (expected [y; k])"

  let analytic_storage ~n ~h ~params =
    let y, _ = split_params params in
    float_of_int (h * min y n)

  let params_for_budget ~n:_ ~h ~total ~params =
    let _, k = split_params params in
    [ max 1 (total / h); k ]

  let create cluster ~params =
    let y, k = split_params params in
    multi_probe cluster ~y ~k
end)

let () =
  Strategy_registry.register (module Chord);
  Strategy_registry.register (module Multi_probe)
