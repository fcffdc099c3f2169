open Plookup_util
open Plookup_store
module Event_queue = Plookup_sim.Event_queue

type op = Add of Entry.t | Delete of Entry.t

type spec = {
  steady_entries : int;
  add_period : float;
  tail_heavy : bool;
  updates : int;
}

let default_spec = { steady_entries = 100; add_period = 10.; tail_heavy = false; updates = 10000 }

type stream = { initial : Entry.t list; times : float array; ops : op array }

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
  let times = Array.make spec.updates 0. in
  let ops = Array.make spec.updates (Add (Entry.v 0)) in
  (* The next Poisson add is drawn only when the merge needs it: its
     interarrival, then its entry and lifetime.  [drawn] says whether
     [clock], [born] and [death] hold one that is not emitted yet. *)
  let rate = 1. /. spec.add_period in
  let clock = ref 0. and death = ref 0. and born = ref (Entry.v 0) and drawn = ref false in
  (* Merge the monotone add clock with the pending deletes.  A delete
     due at the same time as the next add goes first, because its entry
     was born before that add.  An entry's own delete is pushed only once
     its add is out, so it never overtakes it. *)
  for i = 0 to spec.updates - 1 do
    if not !drawn then begin
      clock := !clock +. Dist.poisson_interarrival rng ~rate;
      born := Entry.Gen.fresh gen;
      death := !clock +. Dist.draw_lifetime rng lifetime;
      drawn := true
    end;
    let due = Event_queue.min_time deletes in
    if (not (Event_queue.is_empty deletes)) && due <= !clock then begin
      times.(i) <- due;
      ops.(i) <- Delete (Event_queue.take deletes)
    end
    else begin
      ignore (Event_queue.push deletes ~time:!death !born);
      times.(i) <- !clock;
      ops.(i) <- Add !born;
      drawn := false
    end
  done;
  { initial; times; ops }

let live_after stream k =
  let table = Hashtbl.create 64 in
  List.iter (fun e -> Hashtbl.replace table (Entry.id e) e) stream.initial;
  for i = 0 to min k (Array.length stream.ops) - 1 do
    match stream.ops.(i) with
    | Add e -> Hashtbl.replace table (Entry.id e) e
    | Delete e -> Hashtbl.remove table (Entry.id e)
  done;
  Hashtbl.fold (fun _ e acc -> e :: acc) table []
