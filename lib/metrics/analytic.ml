let check_nh ~n ~h =
  if n <= 0 || h <= 0 then invalid_arg "Analytic: n and h must be positive"

let storage config ~n ~h =
  check_nh ~n ~h;
  (* Dispatched through the registry so a newly registered strategy's
     Table-1 formula is picked up without this module changing. *)
  Plookup.Service.analytic_storage config ~n ~h

let round_robin_lookup_cost ~n ~h ~y ~t =
  check_nh ~n ~h;
  if y <= 0 || t <= 0 then invalid_arg "Analytic.round_robin_lookup_cost";
  (* ceil(t*n / (y*h)) in exact integer arithmetic *)
  float_of_int (((t * n) + (y * h) - 1) / (y * h))

let fixed_lookup_cost ~x ~t = if t <= x then Some 1. else None

let coverage_full ~h = float_of_int h
let coverage_fixed ~x ~h = float_of_int (min x h)

let coverage_random_server ~n ~h ~x =
  check_nh ~n ~h;
  let fh = float_of_int h in
  fh *. (1. -. ((1. -. (float_of_int x /. fh)) ** float_of_int n))

let coverage_with_budget ~h ~total_storage = float_of_int (min total_storage h)

let fault_tolerance_full ~n = n - 1
let fault_tolerance_fixed ~n ~x ~t = if t <= x then n - 1 else -1

let fault_tolerance_round_robin ~n ~h ~y ~t =
  check_nh ~n ~h;
  let needed = ((t * n) + h - 1) / h in
  (* The paper's n - ceil(tn/h) + y - 1, capped: at least one server must
     survive, and a lone survivor already holds y*h/n entries. *)
  min (n - 1) (n - needed + y - 1)

let hash_expected_entries_per_server ~n ~h ~y =
  check_nh ~n ~h;
  float_of_int h *. (1. -. ((1. -. (1. /. float_of_int n)) ** float_of_int y))

let update_cost_fixed ~n ~h ~x =
  check_nh ~n ~h;
  1. +. (float_of_int x /. float_of_int h *. float_of_int n)

let update_cost_hash ~y = 1. +. float_of_int y

let optimal_hash_y ~n ~h ~t =
  check_nh ~n ~h;
  min n (max 1 (((t * n) + h - 1) / h))

let optimal_hash_y_collision_aware ~n ~h ~t =
  check_nh ~n ~h;
  let rec go y =
    if y >= n then n
    else if hash_expected_entries_per_server ~n ~h ~y >= float_of_int t then y
    else go (y + 1)
  in
  go 1

let crossover_equal_cost ~n ~h ~x ~y =
  compare (update_cost_fixed ~n ~h ~x) (update_cost_hash ~y)
