module Service = Plookup.Service
module Net = Plookup_net.Net

type probe_point = { index : int; time : float; elapsed : float }

let apply service = function
  | Update_gen.Add e -> Service.add service e
  | Update_gen.Delete e -> Service.delete service e

let run ?on_event service (stream : Update_gen.stream) =
  Service.place service stream.initial;
  let previous = ref 0. in
  for i = 0 to Array.length stream.ops - 1 do
    apply service stream.ops.(i);
    let time = stream.times.(i) in
    (match on_event with
    | None -> ()
    | Some f -> f { index = i + 1; time; elapsed = time -. !previous });
    previous := time
  done

let run_timed ~service ~(stream : Update_gen.stream) ~failed =
  Service.place service stream.initial;
  let previous = ref 0. in
  let failed_time = ref 0. in
  let total_time = ref 0. in
  (* The system state is piecewise-constant: the state after event i
     persists over (time_i, time_{i+1}), so weight each state by the
     following interval. *)
  let state_failed = ref (failed service) in
  for i = 0 to Array.length stream.ops - 1 do
    let time = stream.times.(i) in
    let dt = time -. !previous in
    if dt > 0. then begin
      total_time := !total_time +. dt;
      if !state_failed then failed_time := !failed_time +. dt
    end;
    apply service stream.ops.(i);
    state_failed := failed service;
    previous := time
  done;
  if !total_time = 0. then 0. else !failed_time /. !total_time

let messages_for_updates ~service ~(stream : Update_gen.stream) =
  Service.place service stream.initial;
  let net = Plookup.Cluster.net (Service.cluster service) in
  Net.reset_counters net;
  Array.iter (apply service) stream.ops;
  Net.messages_received net
