(* Order statistics shared by run.exe and compare.exe. *)

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks, [q] in [0, 100]; 0 on no
   data. *)
let percentile_sorted s q =
  let n = Array.length s in
  if n = 0 then 0.
  else begin
    let r = q /. 100. *. float_of_int (n - 1) in
    let i = int_of_float r in
    if i >= n - 1 then s.(n - 1) else s.(i) +. ((r -. float_of_int i) *. (s.(i + 1) -. s.(i)))
  end

let percentile a q = percentile_sorted (sorted a) q
let median a = percentile a 50.

(* Python's [statistics.quantiles(data, n=4)] with its default
   "exclusive" method, so the spreads printed here match the ones the
   benchmark contract computes.  Needs two or more values. *)
let quartiles a =
  let s = sorted a in
  let ld = Array.length s in
  if ld < 2 then invalid_arg "Stat.quartiles: need at least two values";
  let m = ld + 1 in
  let q i =
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((s.(j - 1) *. float_of_int (4 - delta)) +. (s.(j) *. float_of_int delta)) /. 4.
  in
  (q 1, q 2, q 3)
