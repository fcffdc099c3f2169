type lifetime = Exponential of float | Zipf_like of float

let exponential rng ~mean =
  if mean <= 0. then invalid_arg "Dist.exponential: mean must be positive";
  (* 1 - u is in (0, 1], so log is finite. *)
  -.mean *. log (1. -. Rng.unit_float rng)

let poisson_interarrival rng ~rate =
  if rate <= 0. then invalid_arg "Dist.poisson_interarrival: rate must be positive";
  exponential rng ~mean:(1. /. rate)

let zipf_like rng ~c =
  if c <= 1. then invalid_arg "Dist.zipf_like: c must exceed 1";
  c ** Rng.unit_float rng

let zipf_like_mean ~c = (c -. 1.) /. log c

let zipf_like_c_for_mean ~mean =
  if mean <= 1. then invalid_arg "Dist.zipf_like_c_for_mean: mean must exceed 1";
  (* (c-1)/ln c is increasing in c for c > 1, so bisection converges. *)
  let rec grow hi = if zipf_like_mean ~c:hi < mean then grow (hi *. 2.) else hi in
  let hi = grow 2. in
  let rec bisect lo hi n =
    if n = 0 then (lo +. hi) /. 2.
    else
      let mid = (lo +. hi) /. 2. in
      if zipf_like_mean ~c:mid < mean then bisect mid hi (n - 1) else bisect lo mid (n - 1)
  in
  bisect 1.000001 hi 200

let lifetime_of_mean ~tail_heavy ~mean =
  if tail_heavy then Zipf_like (zipf_like_c_for_mean ~mean) else Exponential mean

let draw_lifetime rng = function
  | Exponential mean -> exponential rng ~mean
  | Zipf_like c -> zipf_like rng ~c

let lifetime_mean = function
  | Exponential mean -> mean
  | Zipf_like c -> zipf_like_mean ~c

(* The cumulative weights of the last law [zipf_ranks] drew from, one
   per domain, because experiments draw on [Pool] domains. *)
type zipf_law = { mutable n : int; mutable alpha : float; mutable cumulative : float array }

let zipf_law = Domain.DLS.new_key (fun () -> { n = 0; alpha = nan; cumulative = [||] })

let zipf_ranks rng ~n ~alpha =
  if n <= 0 then invalid_arg "Dist.zipf_ranks: n must be positive";
  let law = Domain.DLS.get zipf_law in
  if law.n <> n || not (Float.equal law.alpha alpha) then begin
    let cumulative = Array.make n 0. in
    let acc = ref 0. in
    for i = 0 to n - 1 do
      acc := !acc +. (1. /. (float_of_int (i + 1) ** alpha));
      cumulative.(i) <- !acc
    done;
    law.n <- n;
    law.alpha <- alpha;
    law.cumulative <- cumulative
  end;
  let cumulative = law.cumulative in
  (* Inverse CDF: the first rank whose cumulative weight exceeds u, by
     binary search (the weights are non-negative, so the cumulative
     array is non-decreasing); rank n when none of the first n - 1
     does. *)
  let u = Rng.unit_float rng *. cumulative.(n - 1) in
  let lo = ref 0 and hi = ref (n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if u < cumulative.(mid) then hi := mid else lo := mid + 1
  done;
  !lo + 1

let uniform_in rng ~lo ~hi =
  if lo > hi then invalid_arg "Dist.uniform_in: lo > hi";
  lo +. Rng.float rng (hi -. lo)
