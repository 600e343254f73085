(** The experiment table behind [bench/main.exe]: the paper's tables,
    figures and ablations, and the harness benchmarks and soaks that
    write [BENCH_*.json]. *)

type opts = {
  quick : bool;  (** shrink every experiment to CI smoke sizes *)
  metrics : bool;  (** [table1] also prints its message counts *)
  jobs : int option;  (** worker domains for the cell pool *)
  seeds : int;  (** fault plans per chaos soak cell *)
}

type experiment = {
  name : string;
  doc : string;  (** one line, in cmdliner markup *)
  default : bool;  (** runs when no experiment is named *)
  run : opts -> unit;
}

val experiments : experiment list
(** Every experiment, in the order they run. *)

val command : (opts -> experiment list -> unit) -> unit Cmdliner.Cmd.t
(** The command line over {!experiments}: experiment names with the
    flags before, between or after them.  The function receives the
    options and the selected experiments, each once and in table order;
    with no name, the [default] ones.  An unknown name, or a [--jobs]
    or [--seeds] below 1, is a usage error. *)
