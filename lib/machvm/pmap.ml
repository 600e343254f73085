module Int_table = Asvm_simcore.Int_table

type translation = { backing_obj : Ids.obj_id; index : int; mutable prot : Prot.t }

(* vpage -> translation; only probed, and [vpages] sorts its walk *)
type t = translation Int_table.t

let create () : t = Int_table.create 64

let enter t ~vpage ~backing_obj ~index ~prot =
  Int_table.replace t vpage { backing_obj; index; prot }

let lookup t ~vpage = Int_table.find_opt t vpage

let remove t ~vpage = Int_table.remove t vpage

let vpages t =
  Int_table.fold (fun vpage _ acc -> vpage :: acc) t [] |> List.sort Int.compare

let size t = Int_table.length t
