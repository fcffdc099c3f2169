open Plookup_util

type event = { time : float; server : int; up : bool }

let generate rng ~n ~mttf ~mttr ~horizon =
  if n <= 0 then invalid_arg "Churn.generate: n must be positive";
  (* Written so that NaN fails: a NaN clock never passes the horizon. *)
  if not (mttf > 0. && mttr > 0.) then invalid_arg "Churn.generate: mttf/mttr must be positive";
  if not (Float.is_finite horizon && horizon >= 0.) then
    invalid_arg "Churn.generate: horizon must be finite and non-negative";
  let events = ref [] in
  for server = 0 to n - 1 do
    let clock = ref 0. in
    let up = ref true in
    let continue = ref true in
    while !continue do
      let mean = if !up then mttf else mttr in
      clock := !clock +. Dist.exponential rng ~mean;
      if !clock > horizon then continue := false
      else begin
        up := not !up;
        events := { time = !clock; server; up = !up } :: !events
      end
    done
  done;
  List.stable_sort (fun a b -> Float.compare a.time b.time) !events

let expected_availability ~mttf ~mttr = mttf /. (mttf +. mttr)

let drive engine ~apply events =
  List.iter
    (fun event ->
      ignore
        (Plookup_sim.Engine.schedule_at engine ~time:event.time (fun _ -> apply event)))
    events
