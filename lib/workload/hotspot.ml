module Rng = Plookup_util.Rng

(* How many servers a greedy client walking [order] contacts before the
   entries held there ([held.(s)] per server, a distinct-count upper
   bound) reach [t].  Servers outside [held] (stale ids in a fixed
   order) hold nothing. *)
let cost ~order ~held ~t =
  let n = Array.length held in
  let rec walk contacted gathered = function
    | [] -> contacted + 1 (* never reaches [t]: worse than any order that does *)
    | s :: rest ->
      let got = if s >= 0 && s < n then held.(s) else 0 in
      let gathered = gathered + got in
      if gathered >= t then contacted + 1 else walk (contacted + 1) gathered rest
  in
  if t <= 0 then 0 else walk 0 0 order

let worst ?(lo = 0) ~orders ~held ~t () =
  if lo < 0 || lo >= Array.length orders then
    invalid_arg "Hotspot.worst: empty order range";
  let best = ref lo and best_cost = ref (cost ~order:orders.(lo) ~held ~t) in
  for r = lo + 1 to Array.length orders - 1 do
    let c = cost ~order:orders.(r) ~held ~t in
    if c > !best_cost then begin
      best := r;
      best_cost := c
    end
  done;
  !best

let draw rng ~focus ~worst ~rest =
  if focus < 0. || focus > 1. then invalid_arg "Hotspot.draw: focus must be in [0, 1]";
  if Rng.unit_float rng < focus then worst else rest rng
