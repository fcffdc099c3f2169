open Plookup_util
module Service = Plookup.Service

type placement = Bitset.t array

let snapshot cluster ~capacity = Plookup.Cluster.snapshot_bitsets cluster ~capacity

(* Shared greedy machinery: iteratively fail the alive server with the
   highest X_S = sum 1/f_e, calling [on_fail] after each failure with the
   updated coverage; stop when [continue] says so. *)
let greedy_loop placement ~on_fail =
  let n = Array.length placement in
  if n = 0 then ()
  else begin
    let capacity = Bitset.capacity placement.(0) in
    let f = Array.make capacity 0 in
    Array.iter (fun bs -> Bitset.iter (fun e -> f.(e) <- f.(e) + 1) bs) placement;
    let coverage = ref (Array.fold_left (fun acc c -> if c > 0 then acc + 1 else acc) 0 f) in
    let alive = Array.make n true in
    let continue = ref true in
    let remaining = ref n in
    while !continue && !remaining > 0 do
      (* Highest importance score among alive servers; ties break to the
         lowest index for determinism. *)
      let best = ref (-1) in
      let best_score = ref neg_infinity in
      for s = 0 to n - 1 do
        if alive.(s) then begin
          let score =
            Bitset.fold (fun e acc -> acc +. (1. /. float_of_int f.(e))) placement.(s) 0.
          in
          if score > !best_score then begin
            best_score := score;
            best := s
          end
        end
      done;
      let victim = !best in
      alive.(victim) <- false;
      decr remaining;
      Bitset.iter
        (fun e ->
          f.(e) <- f.(e) - 1;
          if f.(e) = 0 then decr coverage)
        placement.(victim);
      continue := on_fail ~victim ~coverage:!coverage
    done
  end

let initial_coverage placement =
  if Array.length placement = 0 then 0
  else begin
    let capacity = Bitset.capacity placement.(0) in
    let union = Bitset.create capacity in
    Array.iter (fun bs -> Bitset.union_into union bs) placement;
    Bitset.cardinal union
  end

let greedy placement ~t =
  if t <= 0 then invalid_arg "Fault_tolerance.greedy: t must be positive";
  if initial_coverage placement < t then -1
  else begin
    let tolerated = ref 0 in
    greedy_loop placement ~on_fail:(fun ~victim:_ ~coverage ->
        if coverage >= t then begin
          incr tolerated;
          true
        end
        else false);
    !tolerated
  end

let greedy_failure_order placement =
  let order = ref [] in
  greedy_loop placement ~on_fail:(fun ~victim ~coverage:_ ->
      order := victim :: !order;
      true);
  List.rev !order

let exact placement ~t =
  if t <= 0 then invalid_arg "Fault_tolerance.exact: t must be positive";
  let n = Array.length placement in
  if n > 25 then invalid_arg "Fault_tolerance.exact: too many servers for brute force";
  if initial_coverage placement < t then -1
  else begin
    let capacity = if n = 0 then 0 else Bitset.capacity placement.(0) in
    (* Coverage of the servers *outside* the failure mask. *)
    let coverage_without mask =
      let union = Bitset.create capacity in
      for s = 0 to n - 1 do
        if mask land (1 lsl s) = 0 then Bitset.union_into union placement.(s)
      done;
      Bitset.cardinal union
    in
    let popcount mask =
      let rec go m acc = if m = 0 then acc else go (m lsr 1) (acc + (m land 1)) in
      go mask 0
    in
    (* Smallest failure-set size that breaks coverage. *)
    let best = ref n in
    for mask = 1 to (1 lsl n) - 1 do
      let k = popcount mask in
      if k < !best && coverage_without mask < t then best := k
    done;
    !best - 1
  end

let measure_over_instances ?seed ?obs ~n ~entries ~config ~t ~runs () =
  Instances.mean ?seed ?obs ~n ~entries ~config ~runs (fun service _ ->
      (* The placed ids are 0 .. entries-1. *)
      float_of_int (greedy (snapshot (Service.cluster service) ~capacity:entries) ~t))
