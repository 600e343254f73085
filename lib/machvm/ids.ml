type obj_id = int
type task_id = int

module Alloc = struct
  type t = { mutable next : int }

  let create () = { next = 1 }

  let fresh t =
    let id = t.next in
    t.next <- id + 1;
    id
end

(* one test covers both bounds: a negative half has its top bits set *)
let page_key obj page =
  if (obj lor page) lsr 31 <> 0 then
    invalid_arg
      (Printf.sprintf "Ids.page_key: obj#%d page %d outside [0, 2^31)" obj page);
  (obj lsl 31) lor page

let key_obj key = key lsr 31
let key_page key = key land 0x7fff_ffff

let pp_obj ppf id = Format.fprintf ppf "obj#%d" id
let pp_task ppf id = Format.fprintf ppf "task#%d" id
