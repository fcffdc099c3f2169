(* Host-speed calibration.

   The reference host, a 2-vCPU shared x86 VM, drifts in speed by a
   third or more over tens of seconds, and the drift is not preemption:
   process CPU time tracks wall time, a register-only loop keeps its
   speed, and code that loads and stores through the L1 cache slows down
   together (a neighbour on the sibling hardware thread is the likely
   cause).  Longer runs do not average that out, so the benchmark times
   this fixed, library-independent kernel at the boundary of every chunk
   of measured work and divides each measured time by the chunk's
   slowdown [kernel time / nominal_ns]: metrics read in reference-host
   time.  Measured against the library's own lookups over several
   minutes, the kernel's slowdown correlated 0.96 with theirs and cut the
   spread of per-window medians three- to fourfold.  Result files keep
   the unnormalized values and the slowdown next to the normalized
   ones. *)

(* Random read-modify-writes over a 32 KB table: L1-resident like the
   library's hot structures, and allocation-free, so the library's heap
   cannot change the kernel's speed. *)
let table = Array.make 4096 0

let kernel () =
  let x = ref 7 in
  for i = 1 to 100_000 do
    x := ((!x * 0x5DEECE66D) + 11) land max_int;
    let j = (!x lsr 20) land 4095 in
    table.(j) <- table.(j) + i
  done;
  !x

let sink = ref 0

(* The kernel's time on the reference host in a quiet phase (OCaml 5.1,
   release profile). *)
let nominal_ns = 185_000.

(* One sample: the fastest of three kernel runs, in ns. *)
let sample () =
  let best = ref max_int in
  for _ = 1 to 3 do
    let t0 = Tracer.now_ns () in
    sink := !sink lxor kernel ();
    best := min !best (Tracer.now_ns () - t0)
  done;
  float_of_int !best

(* A calibrator samples at each chunk boundary, and inside chunks run
   under [inside]. *)
type t = { mutable last : float; mutable sum : float; mutable count : int }

let start () = { last = sample (); sum = 0.; count = 0 }

(* Close the chunk that just ran and return its slowdown: the mean of
   the samples at its two ends and of those taken inside it, over the
   nominal time. *)
let next t =
  let s = sample () in
  let f = (t.last +. s +. t.sum) /. float_of_int (2 + t.count) /. nominal_ns in
  t.last <- s;
  t.sum <- 0.;
  t.count <- 0;
  f

(* Run [f] with the kernel also sampled every 50 ms inside it, from an
   interval timer, for chunks long enough for the host to drift within
   them (an experiment runs for seconds).  Returns [f ()] and its wall
   time in ns without the time the samples took. *)
let inside t f =
  let spent = ref 0 in
  let handler _ =
    let t0 = Tracer.now_ns () in
    t.sum <- t.sum +. sample ();
    t.count <- t.count + 1;
    spent := !spent + (Tracer.now_ns () - t0)
  in
  let previous = Sys.signal Sys.sigalrm (Sys.Signal_handle handler) in
  let timer interval = { Unix.it_interval = interval; it_value = interval } in
  ignore (Unix.setitimer Unix.ITIMER_REAL (timer 0.05));
  Fun.protect
    ~finally:(fun () ->
      ignore (Unix.setitimer Unix.ITIMER_REAL (timer 0.));
      Sys.set_signal Sys.sigalrm previous)
    (fun () ->
      let t0 = Tracer.now_ns () in
      let r = f () in
      let d = Tracer.now_ns () - t0 in
      (r, d - !spent))
