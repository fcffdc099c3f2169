open Plookup_util
open Plookup_store
module Event_queue = Plookup_sim.Event_queue

type op = Add of Entry.t | Delete of Entry.t
type event = { time : float; op : op }

type spec = {
  steady_entries : int;
  add_period : float;
  tail_heavy : bool;
  updates : int;
}

let default_spec = { steady_entries = 100; add_period = 10.; tail_heavy = false; updates = 10000 }

type stream = { initial : Entry.t list; events : event list }

let generate rng spec =
  if spec.steady_entries <= 0 then invalid_arg "Update_gen.generate: steady_entries";
  if spec.add_period <= 0. then invalid_arg "Update_gen.generate: add_period";
  if spec.updates < 0 then invalid_arg "Update_gen.generate: updates";
  let gen = Entry.Gen.create () in
  let mean_lifetime = spec.add_period *. float_of_int spec.steady_entries in
  let lifetime = Dist.lifetime_of_mean ~tail_heavy:spec.tail_heavy ~mean:mean_lifetime in
  (* Deletes wait here until they are due, ordered by time and then by
     push order, which is the order their entries were born in. *)
  let deletes = Event_queue.create () in
  (* Initial steady-state population: alive at time 0 with full lifetime
     draws, their deletes scheduled like any other entry's. *)
  let initial =
    List.init spec.steady_entries (fun _ ->
        let e = Entry.Gen.fresh gen in
        ignore (Event_queue.push deletes ~time:(Dist.draw_lifetime rng lifetime) e);
        e)
  in
  (* The next Poisson add, drawn only when the merge needs it: its
     interarrival, then its lifetime. *)
  let clock = ref 0. in
  let draw_add () =
    clock := !clock +. Dist.poisson_interarrival rng ~rate:(1. /. spec.add_period);
    let e = Entry.Gen.fresh gen in
    (!clock, e, !clock +. Dist.draw_lifetime rng lifetime)
  in
  (* Merge the monotone add clock with the pending deletes.  A delete
     due at the same time as the next add goes first, because its entry
     was born before that add.  An entry's own delete is pushed only once
     its add is out, so it never overtakes it. *)
  let rec merge remaining next acc =
    if remaining = 0 then List.rev acc
    else
      let ((add_time, e, delete_time) as add) =
        match next with Some add -> add | None -> draw_add ()
      in
      match Event_queue.peek deletes with
      | Some (time, victim) when time <= add_time ->
        ignore (Event_queue.pop deletes);
        merge (remaining - 1) (Some add) ({ time; op = Delete victim } :: acc)
      | Some _ | None ->
        ignore (Event_queue.push deletes ~time:delete_time e);
        merge (remaining - 1) None ({ time = add_time; op = Add e } :: acc)
  in
  { initial; events = merge spec.updates None [] }

let live_after stream k =
  let table = Hashtbl.create 64 in
  List.iter (fun e -> Hashtbl.replace table (Entry.id e) e) stream.initial;
  List.iter
    (fun { op; _ } ->
      match op with
      | Add e -> Hashtbl.replace table (Entry.id e) e
      | Delete e -> Hashtbl.remove table (Entry.id e))
    (Plookup_util.List_util.take k stream.events);
  Hashtbl.fold (fun _ e acc -> e :: acc) table []
