(** The benchmark's result line: one JSON object with the keys
    [correct], [attempted], [failed] and [metrics], each metric a
    [{"value": v, "unit": u}] object. *)

type metric = { name : string; value : float; unit_ : string }

type t = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
}

val to_json : t -> Asvm_obs.Json.t
val of_json : Asvm_obs.Json.t -> (t, string) result
val to_string : t -> string
