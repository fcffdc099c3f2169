type overload = {
  capacity : int;
  service_rate : float;
  deadline : float;
  hedge : float;
  breaker : int;
  degrade : float;
}

let default_overload =
  { capacity = 8; service_rate = 2.0; deadline = 250.; hedge = 95.; breaker = 3; degrade = 25. }

type cache = { cache_cap : int; cache_ttl : float; swr : float; hotspot : float }

(* TTL defaults to the day experiment's update period: one delete+add
   cycle is how long a cached answer stays plausibly fresh. *)
let default_cache = { cache_cap = 128; cache_ttl = 10.; swr = 0.; hotspot = 0. }

let check_cache c =
  if c.cache_cap < 1 then invalid_arg "Ctx: cache-cap must be >= 1";
  if c.cache_ttl <= 0. then invalid_arg "Ctx: cache-ttl must be positive";
  if c.swr < 0. then invalid_arg "Ctx: swr must be non-negative";
  if c.hotspot < 0. || c.hotspot > 1. then invalid_arg "Ctx: hotspot must be in [0, 1]"

let check_overload o =
  if o.capacity < 1 then invalid_arg "Ctx: capacity must be >= 1";
  if o.service_rate <= 0. then invalid_arg "Ctx: service-rate must be positive";
  if o.deadline <= 0. then invalid_arg "Ctx: deadline must be positive";
  if o.hedge <= 0. || o.hedge >= 100. then invalid_arg "Ctx: hedge must be in (0, 100)";
  if o.breaker < 1 then invalid_arg "Ctx: breaker must be >= 1";
  if o.degrade < 1. then invalid_arg "Ctx: degrade must be >= 1"

(* Repair.install checks these too, but as a crash deep in a run; here
   they are usage errors that name the CLI flag. *)
let check_repair r =
  if r.Plookup.Repair.grace < 0. then invalid_arg "Ctx: grace must be non-negative";
  if r.period <= 0. then invalid_arg "Ctx: repair-period must be positive"

type t = {
  seed : int;
  scale : float;
  jobs : int;
  loss : float;
  duplication : float;
  jitter : float;
  mttf : float option;
  mttr : float option;
  horizon : float option;
  repair : Plookup.Repair.config;
  overload : overload;
  cache : cache option;
  obs : Plookup_obs.Obs.t;
}

let v ?(seed = 42) ?(scale = 1.0) ?(jobs = 1) ?(loss = 0.) ?(duplication = 0.)
    ?(jitter = 0.) ?mttf ?mttr ?horizon ?(repair = Plookup.Repair.default_config)
    ?(overload = default_overload) ?cache ?obs () =
  if scale <= 0. then invalid_arg "Ctx: scale must be positive";
  if jobs < 1 then invalid_arg "Ctx: jobs must be at least 1";
  if loss < 0. || loss >= 1. then invalid_arg "Ctx: loss must be in [0, 1)";
  if duplication < 0. || duplication > 1. then
    invalid_arg "Ctx: duplication must be in [0, 1]";
  if jitter < 0. then invalid_arg "Ctx: jitter must be non-negative";
  let positive name = function
    | Some x when x <= 0. -> invalid_arg (Printf.sprintf "Ctx: %s must be positive" name)
    | _ -> ()
  in
  positive "mttf" mttf;
  positive "mttr" mttr;
  positive "horizon" horizon;
  check_repair repair;
  check_overload overload;
  Option.iter check_cache cache;
  let obs = match obs with Some o -> o | None -> Plookup_obs.Obs.create () in
  { seed;
    scale;
    jobs;
    loss;
    duplication;
    jitter;
    mttf;
    mttr;
    horizon;
    repair;
    overload;
    cache;
    obs }

let faulty t = t.loss > 0. || t.duplication > 0. || t.jitter > 0.

let apply_faults t cluster =
  if faulty t then
    Plookup.Cluster.set_faults cluster ~loss:t.loss ~duplication:t.duplication
      ~jitter:t.jitter ()

let scaled t base = max 1 (int_of_float (Float.round (float_of_int base *. t.scale)))

let run_seed t index =
  Int64.to_int
    (Plookup_util.Rng.mix64 (Int64.of_int ((t.seed * 1_000_003) + index)))
  land max_int
