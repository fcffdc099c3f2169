(* An all-float record is flat, so the clock is stored unboxed and
   advancing it allocates nothing. *)
type clock = { mutable now : float }

type t = { queue : (t -> unit) Event_queue.t; clock : clock }

type event_id = (t -> unit) Event_queue.handle
(* The event's handle in the queue's pool: cancellation flips its state
   flag instead of round-tripping through side hashtables, so the
   per-event fast path (schedule, fire) performs zero hashing. *)

let create () = { queue = Event_queue.create (); clock = { now = 0. } }

let[@inline always] now t = t.clock.now

(* [not (x >= y)] also holds for NaN, which would otherwise pass the
   past-time check and break the heap's order. *)
let schedule_at t ~time action =
  if not (time >= t.clock.now) then
    invalid_arg
      (if Float.is_nan time then "Engine.schedule_at: time is NaN"
       else "Engine.schedule_at: time is in the past");
  Event_queue.push t.queue ~time action

let schedule_after t ~delay action =
  if not (delay >= 0.) then
    invalid_arg
      (if Float.is_nan delay then "Engine.schedule_after: delay is NaN"
       else "Engine.schedule_after: negative delay");
  schedule_at t ~time:(t.clock.now +. delay) action

(* Cancelling an event that already fired (or was already cancelled) is
   a no-op; the queue's live count stays accurate either way. *)
let cancel t id = ignore (Event_queue.cancel_handle t.queue id)

let pending t = Event_queue.length t.queue

(* Fire the earliest event, due at [time]. *)
let[@inline] fire t time =
  t.clock.now <- time;
  (Event_queue.take t.queue) t

let step t =
  if Event_queue.is_empty t.queue then false
  else begin
    fire t (Event_queue.min_time t.queue);
    true
  end

let run ?(max_events = max_int) ?until t =
  let horizon = match until with Some h -> h | None -> infinity in
  let fired = ref 0 and continue = ref true in
  while !continue && !fired < max_events do
    if Event_queue.is_empty t.queue then continue := false
    else begin
      (* [min_time] only ever surfaces events that will fire, so
         comparing the horizon against it is exact: a cancelled event's
         earlier timestamp can never let a later live event slip past
         [until]. *)
      let time = Event_queue.min_time t.queue in
      if time > horizon then continue := false
      else begin
        fire t time;
        incr fired
      end
    end
  done;
  (* Stopped by the horizon or by an empty queue, not by the budget with
     an event still due: the clock advances to the horizon. *)
  (match until with
  | Some horizon when !fired < max_events || Event_queue.is_empty t.queue ->
    if not (t.clock.now >= horizon) then t.clock.now <- horizon
  | _ -> ());
  !fired

let reset t =
  Event_queue.clear t.queue;
  t.clock.now <- 0.
