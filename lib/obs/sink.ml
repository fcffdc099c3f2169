type t = { emit : Span.t -> unit; flush : unit -> unit }

let emit t span = t.emit span
let flush t = t.flush ()

let jsonl ?(flush_every = 1024) oc =
  let buf = Buffer.create 256 in
  let pending = ref 0 in
  let emit span =
    Buffer.clear buf;
    Span.add_json buf span;
    Buffer.add_char buf '\n';
    Buffer.output_buffer oc buf;
    incr pending;
    if !pending >= flush_every then begin
      Stdlib.flush oc;
      pending := 0
    end
  in
  { emit; flush = (fun () -> Stdlib.flush oc) }

