(** Running statistics and the paper's fairness measure.

    Every experiment data point in the paper is a Monte-Carlo average; the
    extended version reports that 95% confidence intervals were always
    below 0.1% of the mean.  {!Accum} provides numerically stable
    (Welford) accumulation so we can report the same intervals. *)

module Accum : sig
  type t
  (** A mutable mean/variance accumulator. *)

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  (** 0 when empty. *)

  val variance : t -> float
  (** Unbiased sample variance; 0 with fewer than two samples. *)

  val stddev : t -> float
  val ci95_half_width : t -> float
  (** Half-width of the 95% confidence interval of the mean under the
      normal approximation (1.96 * stderr); 0 with fewer than two
      samples. *)
end

val mean : float array -> float
val variance : float array -> float
val stddev : float array -> float

val coefficient_of_variation : ideal:float -> float array -> float
(** The paper's unfairness formula, Eq. (1): given per-entry empirical
    probabilities [p] and the fair value [ideal] (= t/h),
    [(1/ideal) * sqrt (sum_j (p_j - ideal)^2 / h)].
    Requires [ideal > 0] and a non-empty array. *)

val percentile : float array -> float -> float
(** [percentile xs q] for q in [0,100], by linear interpolation over a
    sorted copy. *)

val min_max : float array -> float * float
