(** Cluster-wide identifiers.

    Memory objects have a single global identity; each node holds its own
    representation of an object under that id. Task ids are also global
    so traces stay unambiguous. *)

type obj_id = int
type task_id = int

(** Monotonic id allocator shared across a cluster. *)
module Alloc : sig
  type t

  val create : unit -> t
  val fresh : t -> int
end

(** [page_key obj page] packs an (object, page) pair into one int, the
    key of the VM's reverse map and swap set and of the pager's store.
    Both halves must lie in [0, 2{^31}).
    @raise Invalid_argument otherwise. *)
val page_key : obj_id -> int -> int

(** The halves of a {!page_key}. *)
val key_obj : int -> obj_id

val key_page : int -> int

val pp_obj : Format.formatter -> obj_id -> unit
val pp_task : Format.formatter -> task_id -> unit
