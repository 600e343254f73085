(** Typed metric registry: labeled counters, gauges, and latency
    histograms.

    A {!Registry.t} is a flat namespace of metrics keyed by
    [(name, labels)].  Labels are normalized (sorted by key) before
    lookup, so [counter r "m" ~labels:["a","1";"b","2"]] and
    [counter r "m" ~labels:["b","2";"a","1"]] merge into the same
    series.  Handles returned by the registry are cheap to hold and
    cheap to bump, so protocol hot paths can look them up per event or
    cache them.

    Naming conventions (see [docs/OBSERVABILITY.md]):
    - dot-separated, lowest component first: ["asvm.msgs"],
      ["sts.bytes"], ["engine.events"];
    - label keys and values are lowercase strings;
    - latency histograms end in [_ms] and record simulated
      milliseconds.

    A {!snapshot} is an immutable, sorted view of every series — the
    unit of export ({!snapshot_to_jsonl}), display ({!pp_snapshot})
    and comparison ({!diff}). *)

type labels = (string * string) list
(** Label set as key/value pairs.  Order is irrelevant; keys should be
    unique (if not, the last binding wins during normalization). *)

(** Monotone integer counter. *)
module Counter : sig
  type t

  val incr : ?by:int -> t -> unit
  (** Add [by] (default 1) to the counter. *)

  val value : t -> int
end

(** Instantaneous float value. *)
module Gauge : sig
  type t

  val set : t -> float -> unit
  val add : t -> float -> unit
  val value : t -> float
end

(** Append-only distribution of float samples with exact percentiles.
    Every sample is retained, unboxed in a buffer that doubles as it
    grows: 8 bytes a sample, and [observe] allocates only on growth. *)
module Histogram : sig
  type t

  val create : unit -> t
  (** A free-standing empty histogram, not attached to any registry —
      per-shard/per-job collectors that are later {!merge}d. *)

  val observe : t -> float -> unit
  val count : t -> int

  val percentile : t -> float -> float
  (** [percentile h p] for [p] in \[0,100\], by linear interpolation
      between order statistics.  Raises [Invalid_argument] when the
      histogram is empty or [p] is out of range. *)

  val mean : t -> float
  (** 0 when empty. *)

  val values : t -> float array
  (** Sorted copy of every observed sample (empty array when empty) —
      for CDF plots and exactness checks against pooled samples. *)

  val merge : t -> t -> t
  (** [merge a b] is a fresh histogram holding the pooled samples of
      [a] and [b]: exactly the histogram that would have resulted from
      observing every sample into one collector, so percentiles of the
      merge equal percentiles of the pooled sample set (the aggregation
      step for per-shard / per-job latency collectors).  [a] and [b]
      are unchanged. *)
end

(** The value of one series at snapshot time. *)
type value =
  | Counter_v of int
  | Gauge_v of float
  | Histogram_v of {
      count : int;
      mean : float;
      min : float;
      max : float;
      p50 : float;
      p90 : float;
      p99 : float;
    }

type sample = { name : string; labels : labels; value : value }

type snapshot = sample list
(** Sorted by [(name, labels)]. *)

module Registry : sig
  type t

  val create : unit -> t

  val counter : t -> ?labels:labels -> string -> Counter.t
  (** Find-or-create.  Raises [Invalid_argument] if the series exists
      with a different metric type. *)

  val gauge : t -> ?labels:labels -> string -> Gauge.t
  val histogram : t -> ?labels:labels -> string -> Histogram.t

  val snapshot : t -> snapshot
end

val diff : before:snapshot -> after:snapshot -> snapshot
(** Counter-only delta: each counter series of [after] minus its value
    in [before] (0 if absent), with zero deltas dropped.  Gauges and
    histograms are point-in-time and are omitted. *)

val counter_total : ?where:(labels -> bool) -> snapshot -> string -> int
(** Sum of all counter series named [name] whose labels satisfy
    [where] (default: all). *)

val find : snapshot -> string -> labels -> value option
(** Exact series lookup (labels normalized first). *)

val pp_snapshot : Format.formatter -> snapshot -> unit
(** Human-readable table, one series per line. *)

val sample_to_json : sample -> Json.t
val sample_of_json : Json.t -> (sample, string) result

val snapshot_to_jsonl : snapshot -> string
(** One JSON object per line, newline-terminated; empty string for an
    empty snapshot. *)
