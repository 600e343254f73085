(** Discrete-event simulation engine.

    The engine owns a virtual clock (milliseconds, [float]) and a queue of
    events. Every cross-node interaction in the simulator is expressed as
    events scheduled on a single engine, which makes runs sequential and
    deterministic: two runs with the same seed execute the same events in
    the same order. *)

type t

(** A fresh engine with an empty queue at time 0. *)
val create : unit -> t

(** Current virtual time in milliseconds. *)
val now : t -> float

(** [schedule t ~delay k] fires [k] at [now t +. delay].
    @raise Invalid_argument if [delay] is negative or not finite. *)
val schedule : t -> delay:float -> (unit -> unit) -> unit

(** [schedule_at t ~time k] fires [k] at absolute [time].
    @raise Invalid_argument if [time] is in the past. *)
val schedule_at : t -> time:float -> (unit -> unit) -> unit

(** [reserve_seq t] takes the next tie-breaking sequence number, exactly
    as {!schedule_at} would, without queueing anything.  With
    {!schedule_reserved} it lets a caller hold an event outside the
    queue and insert it later at the position it would have had. *)
val reserve_seq : t -> int

(** [schedule_reserved t ~time ~seq k] fires [k] at [time], ordered
    among events of equal time by [seq], a number from {!reserve_seq}.
    @raise Invalid_argument if [time] is in the past or [seq] was
    never reserved. *)
val schedule_reserved : t -> time:float -> seq:int -> (unit -> unit) -> unit

(** Execute the next event. Returns [false] when the queue is empty. *)
val step : t -> bool

(** Run until the queue drains, [until] is reached, or [max_events]
    have executed. [max_events] counts events executed by this call,
    not cumulatively over the engine's lifetime. *)
val run : ?until:float -> ?max_events:int -> t -> unit

(** Number of events executed so far. *)
val events_executed : t -> int

(** Number of entries in the event queue.  A busy {!Station} holds one
    entry, for its head job, however many jobs wait behind it; so this
    is at most the directly scheduled events plus the busy stations,
    not the number of events still to execute. *)
val pending : t -> int

(** Profiling counters accumulated across all calls to {!run}.

    [cpu_s] is host CPU time (via [Sys.time]) spent inside the event
    loop; [cpu_us_per_sim_ms] relates it to simulated progress —
    microseconds of host CPU burned per simulated millisecond (0 when
    no virtual time has passed).  These feed the [engine.*] gauges of
    the observability registry (see [docs/OBSERVABILITY.md]). *)
type profile = {
  events : int;  (** same as {!events_executed} *)
  sim_ms : float;  (** current virtual time, same as {!now} *)
  cpu_s : float;
  cpu_us_per_sim_ms : float;
}

val profile : t -> profile
