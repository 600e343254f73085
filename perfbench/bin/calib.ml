(* A fixed host computation timed between cells: its median time tracks
   how fast this machine runs at the moment, independent of the
   simulator's code. *)

let table_size = 1 lsl 15

(* hashing, boxed floats, allocation and a sort: the simulator's mix *)
let work () =
  let h = Hashtbl.create table_size in
  let st = Random.State.make [| 42 |] in
  let a = Array.init table_size (fun _ -> Random.State.float st 1.) in
  Array.iteri (fun i x -> Hashtbl.replace h i (x, [ i ])) a;
  Array.sort compare a;
  let acc = ref 0. in
  for i = 0 to table_size - 1 do
    match Hashtbl.find_opt h (i * 7 mod table_size) with
    | Some (x, _) -> acc := !acc +. x
    | None -> ()
  done;
  ignore (Sys.opaque_identity !acc)

(* nominal time of [work]; host seconds are reported scaled by
   [reference_s / measured], i.e. at this nominal machine speed *)
let reference_s = 0.025

(* median of three, on a compacted heap *)
let time () =
  Gc.compact ();
  let once () =
    let t0 = Unix.gettimeofday () in
    work ();
    Unix.gettimeofday () -. t0
  in
  let l = List.sort compare (List.init 3 (fun _ -> once ())) in
  List.nth l 1
