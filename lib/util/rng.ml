(* The four xoshiro256++ words live in one 32-byte [Bytes], read and
   written in place.  Mutable [int64] record fields would allocate a
   fresh box on every store; this allocates nothing per draw.  Every [t]
   is 32 bytes, so the words are read and written without bounds checks,
   in native byte order: seeding and drawing go through the same pair,
   so each word holds the same value, and the stream is the same, on any
   host. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* splitmix64 stream used only to expand a seed into xoshiro state. *)
let splitmix_next state =
  state := Int64.add !state golden_gamma;
  mix64 !state

let of_splitmix st =
  let t = Bytes.create 32 in
  for i = 0 to 3 do
    set64 t (8 * i) (splitmix_next st)
  done;
  t

let create seed = of_splitmix (ref (Int64.of_int seed))
let copy = Bytes.copy

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* xoshiro256++: advance the state and return the output word.  Inlined
   into each caller so the result stays an unboxed local. *)
let[@inline] next t =
  let s0 = get64 t 0 in
  let s1 = get64 t 8 in
  let s2 = get64 t 16 in
  let s3 = get64 t 24 in
  let result = Int64.add (rotl (Int64.add s0 s3) 23) s0 in
  let tt = Int64.shift_left s1 17 in
  let s2 = Int64.logxor s2 s0 in
  let s3 = Int64.logxor s3 s1 in
  let s1 = Int64.logxor s1 s2 in
  let s0 = Int64.logxor s0 s3 in
  set64 t 0 s0;
  set64 t 8 s1;
  set64 t 16 (Int64.logxor s2 tt);
  set64 t 24 (rotl s3 45);
  result

let bits64 t = next t

(* 62 random bits, always a non-negative OCaml int. *)
let nonneg t = Int64.to_int (Int64.shift_right_logical (next t) 2)

(* Rejection sampling over the largest multiple of [bound] below 2^62.
   A top-level loop, not a local closure, so a draw allocates nothing. *)
let rec draw_below t bound limit =
  let v = nonneg t in
  if v < limit then v mod bound else draw_below t bound limit

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  if bound land (bound - 1) = 0 then nonneg t land (bound - 1)
  else begin
    let max = (1 lsl 62) - 1 in
    draw_below t bound (max - (max mod bound))
  end

(* Inlined into its callers here, so [bernoulli] and [bernoulli_ratio]
   compare an unboxed float and allocate nothing. *)
let[@inline] unit_float t =
  let v = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  v *. 0x1.0p-53

let float t bound = unit_float t *. bound
let bool t = Int64.logand (next t) 1L = 1L
let bernoulli t p = unit_float t < p

(* The probability is formed here, not by the caller: a float argument
   is boxed across a call that is not inlined. *)
let bernoulli_ratio t ~num ~den = unit_float t < float_of_int num /. float_of_int den

(* A partial Fisher–Yates over the smaller side: the first [m] slots
   receive a uniform m-subset, so when [m = k] they are the subset and
   otherwise they are its complement, leaving the subset in the tail. *)
let subset_in_place t arr ~n ~k =
  if n < 0 || n > Array.length arr then
    invalid_arg "Rng.subset_in_place: need 0 <= n <= length";
  let m = min k (n - k) in
  for i = 0 to m - 1 do
    let j = i + int t (n - i) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done;
  if m <= 0 || m = k then 0 else m

(* Fisher–Yates, from the last slot down. *)
let perm t n =
  let arr = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done;
  arr

(* FNV-1a over every byte, finished with mix64.  [Hashtbl.hash] — the
   obvious alternative — inspects only a bounded prefix of the string
   (10 "meaningful" words by default), so long keys sharing a prefix
   collide systematically; this digest never truncates. *)
let digest_string s =
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001B3L)
    s;
  mix64 !h

let hash_in_range ~seed ~salt ~value n =
  if n <= 0 then invalid_arg "Rng.hash_in_range: n must be positive";
  let h = mix64 (Int64.of_int seed) in
  let h = mix64 (Int64.logxor h (Int64.of_int salt)) in
  let h = mix64 (Int64.logxor h (Int64.of_int value)) in
  Int64.to_int (Int64.shift_right_logical h 2) mod n
