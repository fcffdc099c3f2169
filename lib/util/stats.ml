module Accum = struct
  type t = { mutable n : int; mutable mean : float; mutable m2 : float }

  let create () = { n = 0; mean = 0.; m2 = 0. }

  let add t x =
    t.n <- t.n + 1;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.n);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean))

  let count t = t.n
  let mean t = if t.n = 0 then 0. else t.mean
  let variance t = if t.n < 2 then 0. else t.m2 /. float_of_int (t.n - 1)
  let stddev t = sqrt (variance t)

  let ci95_half_width t =
    if t.n < 2 then 0. else 1.96 *. stddev t /. sqrt (float_of_int t.n)
end

let mean xs =
  let n = Array.length xs in
  if n = 0 then 0. else Array.fold_left ( +. ) 0. xs /. float_of_int n

let variance xs =
  let n = Array.length xs in
  if n < 2 then 0.
  else begin
    let m = mean xs in
    let acc = Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0. xs in
    acc /. float_of_int (n - 1)
  end

let stddev xs = sqrt (variance xs)

let coefficient_of_variation ~ideal ps =
  if ideal <= 0. then invalid_arg "Stats.coefficient_of_variation: ideal must be positive";
  let h = Array.length ps in
  if h = 0 then invalid_arg "Stats.coefficient_of_variation: empty array";
  let acc =
    Array.fold_left (fun acc p -> acc +. ((p -. ideal) *. (p -. ideal))) 0. ps
  in
  sqrt (acc /. float_of_int h) /. ideal

let percentile xs q =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.percentile: empty array";
  if q < 0. || q > 100. then invalid_arg "Stats.percentile: q out of [0,100]";
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let pos = q /. 100. *. float_of_int (n - 1) in
  let lo = int_of_float (floor pos) in
  let hi = int_of_float (ceil pos) in
  if lo = hi then sorted.(lo)
  else begin
    let frac = pos -. float_of_int lo in
    (sorted.(lo) *. (1. -. frac)) +. (sorted.(hi) *. frac)
  end

let min_max xs =
  if Array.length xs = 0 then invalid_arg "Stats.min_max: empty array";
  Array.fold_left (fun (lo, hi) x -> (min lo x, max hi x)) (xs.(0), xs.(0)) xs
