(** Deterministic pseudo-random number generation.

    The whole reproduction is driven by explicit generator values so that
    every experiment is replayable from a single integer seed.  The
    implementation is xoshiro256++ seeded through splitmix64 — fast,
    well-distributed, and independent of the OCaml stdlib [Random] state
    (which we never touch). *)

type t
(** A mutable generator. Not thread-safe; give each concurrent or
    per-instance user its own, made with {!create} from its own seed.
    The state is four unboxed 64-bit words, so drawing allocates
    nothing. *)

val create : int -> t
(** [create seed] makes a generator from a 63-bit seed.  Equal seeds give
    equal streams. *)

val copy : t -> t
(** [copy t] duplicates the current state; both copies then evolve
    independently but identically if used identically. *)

val bits64 : t -> int64
(** Next raw 64 bits.  Tests pin the first outputs of seeds 0 and 42,
    so the stream of a seed never changes. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be > 0.
    Uses rejection sampling, so the result is exactly uniform. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val unit_float : t -> float
(** Uniform in [\[0, 1)], 53-bit resolution. *)

val bool : t -> bool

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val bernoulli_ratio : t -> num:int -> den:int -> bool
(** [bernoulli_ratio t ~num ~den] is
    [bernoulli t (float_of_int num /. float_of_int den)]: the same draw
    and the same comparison, but no float crosses the call, so it
    allocates nothing even where the call is not inlined. *)

val subset_in_place : t -> 'a array -> n:int -> k:int -> int
(** [subset_in_place t arr ~n ~k] moves a uniform [k]-subset of
    [arr.(0 .. n-1)] into a contiguous range in place and returns the
    range's first index [lo]: the subset is [arr.(lo .. lo+k-1)].  It
    runs a partial Fisher–Yates over the smaller of the subset and its
    complement, so it makes exactly [min k (n-k)] [int] draws (bounds
    [n], [n-1], ...) and none at all when [k >= n] (the range is then
    the whole prefix) or [k <= 0] (the range is empty).  Allocates
    nothing.  Requires [0 <= n <= Array.length arr]. *)

val perm : t -> int -> int array
(** [perm t n] is a uniform permutation of [\[0, n)]. *)

val mix64 : int64 -> int64
(** The splitmix64 finalizer — a high-quality stateless 64-bit mixer.
    Used to build the Hash-y strategy's hash-function family. *)

val digest_string : string -> int64
(** [digest_string s] is a 64-bit FNV-1a digest of {e every} byte of
    [s], finished with {!mix64}.  Unlike [Hashtbl.hash], which only
    inspects a bounded prefix, distinct long keys sharing a prefix get
    distinct digests; {!Plookup.Directory} derives per-key seeds from
    this. *)

val hash_in_range : seed:int -> salt:int -> value:int -> int -> int
(** [hash_in_range ~seed ~salt ~value n] deterministically maps
    [(seed, salt, value)] to [\[0, n)].  Distinct [salt]s give
    (statistically) independent hash functions, as required for the
    f_1..f_y family of the Hash-y strategy. *)
