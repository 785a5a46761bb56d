(** Summary statistics over integer samples (latencies in ns). *)

type t = {
  count : int;
  mean : float;
  stddev : float;
  min : int;
  max : int;
  p25 : int;
  p50 : int;
  p90 : int;
  p99 : int;
}

val empty : t
(** [empty] is the summary of zero samples (all fields zero). *)

val of_samples : int array -> t
(** [of_samples a] computes the summary. [a] is not modified. Quantiles
    use the nearest-rank method. *)

val sort_ascending : int array -> unit
(** [sort_ascending a] sorts [a] in place; an already sorted array
    (completion instants in recording order) costs one pass. *)

val quantile : int array -> float -> int
(** [quantile sorted q] is the nearest-rank [q]-quantile ([0 <= q <= 1])
    of a {e sorted} non-empty array. *)

val pp : Format.formatter -> t -> unit
(** Prints a one-line rendering with microsecond units. *)
