(** Hash table over [int] keys, shared by every per-fault table whose
    key is (or packs into) an int: page indexes, object and task ids,
    message continuations.

    [Stdlib.Hashtbl]'s polymorphic interface calls [caml_hash] and
    [caml_compare] in C on every probe; this one hashes with
    [key land max_int] and compares with [Int.equal], both inline.
    The identity hash changes the bucket order, so a table may only
    move here if its iteration order cannot reach simulation state:
    it is only probed, or every walk sorts its output or schedules
    nothing (see "Dense page state and monomorphic tables" in
    docs/PERFORMANCE.md). *)

include Hashtbl.S with type key = int
