(* Domain-backed parallel map; see pool.mli. *)

let recommended_jobs () = Domain.recommended_domain_count ()

(* One slot per element: workers race only on the atomic index counter;
   each slot is written by exactly one worker before its domain is
   joined, so the final reads in the calling domain are race-free. *)
let map ~jobs f arr =
  let n = Array.length arr in
  let jobs = min jobs n in
  if jobs <= 1 || n <= 1 then Array.map f arr
  else begin
    let results = Array.make n None in
    let errors = Array.make n None in
    let next = Atomic.make 0 in
    let worker () =
      let continue = ref true in
      while !continue do
        let i = Atomic.fetch_and_add next 1 in
        if i >= n then continue := false
        else
          match f arr.(i) with
          | v -> results.(i) <- Some v
          | exception e -> errors.(i) <- Some e
      done
    in
    let domains = Array.init (jobs - 1) (fun _ -> Domain.spawn worker) in
    (* The calling domain is the [jobs]-th worker. *)
    worker ();
    Array.iter Domain.join domains;
    Array.iter (function Some e -> raise e | None -> ()) errors;
    Array.map (function Some v -> v | None -> assert false) results
  end
