type t = { words : Bytes.t; capacity : int }
(* One bit per element, 8 per byte.  Bytes rather than int array keeps
   copy/blit primitive and fast. *)

let create capacity =
  if capacity < 0 then invalid_arg "Bitset.create: negative capacity";
  { words = Bytes.make ((capacity + 7) / 8) '\000'; capacity }

let capacity t = t.capacity

let check t i =
  if i < 0 || i >= t.capacity then invalid_arg "Bitset: index out of bounds"

let add t i =
  check t i;
  let b = Bytes.get_uint8 t.words (i lsr 3) in
  Bytes.set_uint8 t.words (i lsr 3) (b lor (1 lsl (i land 7)))

let remove t i =
  check t i;
  let b = Bytes.get_uint8 t.words (i lsr 3) in
  Bytes.set_uint8 t.words (i lsr 3) (b land lnot (1 lsl (i land 7)))

let mem t i =
  check t i;
  Bytes.get_uint8 t.words (i lsr 3) land (1 lsl (i land 7)) <> 0

let popcount8 =
  let table = Array.make 256 0 in
  for i = 1 to 255 do
    table.(i) <- table.(i lsr 1) + (i land 1)
  done;
  fun b -> table.(b)

let cardinal t =
  let acc = ref 0 in
  for i = 0 to Bytes.length t.words - 1 do
    acc := !acc + popcount8 (Bytes.get_uint8 t.words i)
  done;
  !acc

let clear t = Bytes.fill t.words 0 (Bytes.length t.words) '\000'
let copy t = { words = Bytes.copy t.words; capacity = t.capacity }

let same_capacity a b =
  if a.capacity <> b.capacity then invalid_arg "Bitset: capacity mismatch"

let union_into dst src =
  same_capacity dst src;
  for i = 0 to Bytes.length dst.words - 1 do
    Bytes.set_uint8 dst.words i
      (Bytes.get_uint8 dst.words i lor Bytes.get_uint8 src.words i)
  done

let equal a b = a.capacity = b.capacity && Bytes.equal a.words b.words

let disjoint a b =
  same_capacity a b;
  let rec go i =
    i >= Bytes.length a.words
    || (Bytes.get_uint8 a.words i land Bytes.get_uint8 b.words i = 0 && go (i + 1))
  in
  go 0

let is_empty t =
  let rec go i = i >= Bytes.length t.words || (Bytes.get_uint8 t.words i = 0 && go (i + 1)) in
  go 0

let iter f t =
  for i = 0 to t.capacity - 1 do
    if Bytes.get_uint8 t.words (i lsr 3) land (1 lsl (i land 7)) <> 0 then f i
  done

let fold f t init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) t;
  !acc

let to_list t = List.rev (fold (fun i acc -> i :: acc) t [])

let of_list capacity elements =
  let t = create capacity in
  List.iter (add t) elements;
  t
