(* Command-line arguments shared by asvm-sim and bench/main.exe. *)

open Cmdliner

let positive_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected a positive integer, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let jobs =
  Arg.(
    value
    & opt (some positive_int) None
    & info [ "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for the cell pool (default: the recommended \
           domain count; 1 = sequential).  Results are independent of \
           $(docv).")

let seeds =
  Arg.(
    value & opt positive_int 10
    & info [ "seeds" ] ~docv:"N"
        ~doc:"Random fault plans per (protocol, workload) chaos cell.")
