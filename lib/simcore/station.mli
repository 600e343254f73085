(** Single-server FIFO service station.

    Stations model a sequential resource — a node's message-handling
    processor, a pager thread, a disk arm. Work submitted while the server
    is busy queues behind it; this is what turns the XMM centralized
    manager into the bottleneck the paper describes.

    Queued jobs wait in the station's own FIFO, and only the head job
    has an entry in the engine's queue, so a backlog of any length costs
    the engine one entry.  Each job still takes its tie-breaking
    sequence number at {!submit}, and completion times never decrease
    along the FIFO, so events execute in exactly the order they would
    if every completion were scheduled on the engine directly. *)

type t

(** An idle station serving jobs on the given engine's clock. *)
val create : Engine.t -> t

(** [submit t ~service k] enqueues a job needing [service] ms of the
    server; [k] fires when the job completes.
    @raise Invalid_argument if [service] is negative. *)
val submit : t -> service:float -> (unit -> unit) -> unit

(** Time at which the server will next be idle (>= now). *)
val busy_until : t -> float

(** Total service time ever accepted, for utilization accounting. *)
val busy_total : t -> float

(** Number of jobs ever submitted. *)
val jobs : t -> int
