(** Pure computations behind the benchmark's figures: order statistics,
    the serving-capacity rule, the error against the paper's published
    values, and the output digest.  Everything here is deterministic
    and host-independent, so it is unit-tested on its own. *)

val median : float list -> float
(** Median (mean of the two middle values for an even count).
    @raise Invalid_argument on an empty list. *)

val quartiles : float list -> float * float * float
(** [(q1, q2, q3)] by the exclusive method, as Python's
    [statistics.quantiles(values, n=4)] computes them.
    @raise Invalid_argument on fewer than two values. *)

val percentile : float array -> float -> float
(** [percentile sorted p], [p] in [0, 100], by linear interpolation
    between order statistics (the rule of
    [Asvm_obs.Metrics.Histogram.percentile]).  [sorted] must be
    ascending.  @raise Invalid_argument when empty. *)

val backlog_grows : int list -> bool
(** Does a queue-depth time series (in-flight requests, in time order)
    show a growing backlog?  True when the median of its last third
    exceeds twice the median of its first third, plus 4.
    Medians, not means, so one burst does not count as growth.  Series
    shorter than three samples never grow. *)

type rung = {
  rate : float;  (** offered arrivals per simulated second *)
  p99_ms : float;
  requests : int;
  completions : int;
  depths : int list;  (** queue-depth samples over the arrival window *)
}

val meets_slo : slo_ms:float -> rung -> bool
(** p99 within [slo_ms], every request completed, and no growing
    backlog. *)

val capacity : slo_ms:float -> rung list -> float
(** Highest offered rate among the rungs that {!meets_slo}; 0 when none
    does. *)

val paper_err : (float * float) list -> float
(** Mean of [|ln (simulated / published)|] over [(simulated, published)]
    pairs.  @raise Invalid_argument on an empty list or a non-positive
    value. *)

(** Running digest of simulated outputs.  Host-dependent values
    (wall time, memory) must never be fed in. *)
module Digest_acc : sig
  type t

  val create : unit -> t
  val add_string : t -> string -> unit
  val add_int : t -> int -> unit

  val add_float : t -> float -> unit
  (** Fed bit-exactly, so any change in a simulated figure shows. *)

  val hex : t -> string
end
