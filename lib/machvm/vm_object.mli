(** Per-node representation of a Mach memory object.

    The same object id may be represented on several nodes; each node's
    representation caches resident pages and carries the local ends of
    shadow/copy links. Links are object ids resolved through the owning
    node's [Vm] table, so representations never alias structures across
    nodes. *)

(** One resident page. [access] is the access right this node's kernel
    holds for the page — always [Read_write] for unmanaged objects, and
    whatever the manager granted for managed ones. [wired] frames are
    skipped by eviction (in-flight pushes and transfers). *)
type frame = {
  mutable contents : Contents.t;
  mutable dirty : bool;
  mutable access : Prot.t;
  mutable wired : bool;
}

type t = {
  id : Ids.obj_id;
  size_pages : int;
  temporary : bool;  (** anonymous memory: zero-fill, default-pager backed *)
  mutable shadow : (Ids.obj_id * int) option;
      (** source object and page offset into it *)
  mutable copy : Ids.obj_id option;  (** head of the copy chain *)
  mutable version : int;  (** bumped each time a copy is made (3.7.2) *)
  mutable page_versions : int array;
      (** page -> version at last push.  Empty until the first
          {!set_page_version}, then [size_pages] long; a page past the
          end reads as version 0.  Read through {!page_version}. *)
  mutable manager : Emmi.manager option;
  mutable resident : frame option array;
      (** page -> resident frame.  Empty until the first {!install},
          then [size_pages] long.  Maintained by {!install} and
          {!remove}, which keep {!resident_count} in step: never write
          it directly. *)
  mutable n_resident : int;  (** see {!resident_count} *)
}

val create :
  id:Ids.obj_id ->
  size_pages:int ->
  temporary:bool ->
  ?shadow:Ids.obj_id * int ->
  unit ->
  t

(** [None] for a page that is not resident, out-of-range pages
    included. *)
val frame : t -> int -> frame option
val is_resident : t -> int -> bool

(** Insert a frame; replaces any previous one. @raise Invalid_argument on
    an out-of-range page. *)
val install : t -> page:int -> frame -> unit

(** Drop a page's frame; a no-op when the page is not resident. *)
val remove : t -> page:int -> unit

(** Resident pages in ascending order. *)
val resident_pages : t -> int list

val resident_count : t -> int
val page_version : t -> int -> int

(** @raise Invalid_argument on an out-of-range page. *)
val set_page_version : t -> int -> int -> unit

(** [needs_push t page] — the page has not been pushed since the last
    copy was made (page version lags the object version). Meaningless
    when [copy = None]. *)
val needs_push : t -> int -> bool

val has_manager : t -> bool
