(* The workloads, each run once under ASVM and once under XMM per
   repetition.  A cell is one library call ([Em3d.run],
   [File_io.read_test] or [Serve.run]) measured by [Cells.measure]. *)

module Config = Asvm_cluster.Config
module Em3d = Asvm_workloads.Em3d
module File_io = Asvm_workloads.File_io
module Serve = Asvm_serve.Serve
module Arrival = Asvm_serve.Arrival
module Calc = Perfbench_core.Calc

type cell = {
  label : string;
  mm : Config.mm;
  ops : int;  (** faults or requests attempted *)
  timing : Cells.timing;
  counts : Cells.counts;
  errors : string list;  (** failed checks; [] when the cell is correct *)
  sim : (string * float) list;  (** simulated outputs, by name *)
  latencies : float array;
      (** sorted headline latency samples (ms): ownership faults for
          em3d, read faults for file-read, requests for serve *)
  rung : Calc.rung option;  (** serve-oversub only *)
}

let sim c name =
  match List.assoc_opt name c.sim with
  | Some v -> v
  | None -> invalid_arg ("Workloads.sim: " ^ c.label ^ " has no " ^ name)

let mm_tag = function Config.Mm_asvm -> "asvm" | Config.Mm_xmm -> "xmm"
let managers = [ Config.Mm_asvm; Config.Mm_xmm ]

let zero_timing =
  {
    Cells.t_call = 0.;
    setup_s = 0.;
    run_s = 0.;
    inspect_s = 0.;
    collect_s = 0.;
    run_words = 0.;
  }

(* A cell whose library call raised: every planned operation failed. *)
let guard ~label ~mm ~planned_ops f =
  try f ()
  with e ->
    {
      label;
      mm;
      ops = planned_ops;
      timing = zero_timing;
      counts = Cells.empty_counts;
      errors = [ Printexc.to_string e ];
      sim = [];
      latencies = [||];
      rung = None;
    }

let latency_stats lat =
  if Array.length lat = 0 then [ ("samples", 0.) ]
  else
    [
      ("p50_ms", Calc.percentile lat 50.);
      ("p99_ms", Calc.percentile lat 99.);
      ("samples", float_of_int (Array.length lat));
    ]

(* ------------------------------------------------------------------ *)
(* em3d and em3d-oversub: EM3D at 256k cells (Table 3)               *)
(* ------------------------------------------------------------------ *)

let em3d_cells = 256_000

type em3d_config = { prefix : string; nodes : int; iterations : int }

(* Table 3's 256k-cell row on 16 nodes: the data fits fleet memory *)
let em3d_fit = { prefix = "em3d"; nodes = 16; iterations = 20 }

(* the same problem on 4 nodes, which the paper omits from Table 3
   because the data (7112 pages) is 1.55x fleet memory: every
   iteration pages *)
let em3d_oversub = { prefix = "em3d-oversub"; nodes = 4; iterations = 5 }

(* Table 3 (seconds for 100 iterations, 256k cells on 16 nodes) *)
let em3d_published = function Config.Mm_asvm -> 21.5 | Config.Mm_xmm -> 842.

(* Table 1, "write fault, 1 read copy" (ms): the nearest published
   figure for the omitted configuration *)
let write_fault_published = function
  | Config.Mm_asvm -> 2.24
  | Config.Mm_xmm -> 38.42

let em3d cfg ~traced ~seed mm =
  let label = cfg.prefix ^ "/" ^ mm_tag mm in
  guard ~label ~mm ~planned_ops:1 (fun () ->
      let params =
        {
          (Em3d.default_params ~cells:em3d_cells ~nodes:cfg.nodes) with
          iterations = cfg.iterations;
          seed;
        }
      in
      let m =
        Cells.measure ~traced (fun ~tweak ~on_start ~inspect ->
            Em3d.run ~mm ~tweak ~on_start ~inspect params)
      in
      let r = m.result in
      {
        label;
        mm;
        ops = r.faults;
        timing = m.timing;
        counts = m.counts;
        errors = m.counts.violations;
        sim =
          [
            ("sim_s", r.seconds *. 100. /. float_of_int cfg.iterations);
            ("rate", float_of_int (em3d_cells * cfg.iterations) /. r.seconds);
            ("faults", float_of_int r.faults);
            ("protocol_messages", float_of_int r.protocol_messages);
          ]
          @ latency_stats m.counts.ownership_fault_ms;
        latencies = m.counts.ownership_fault_ms;
        rung = None;
      })

(* ------------------------------------------------------------------ *)
(* file-read: Table 2, 64 nodes reading a 4 MB file                    *)
(* ------------------------------------------------------------------ *)

let read_nodes = 64
let read_file_mb = 4
let read_pages = read_file_mb * 128

(* Table 2, 64-node read row (MB/s per node) *)
let read_published = function Config.Mm_asvm -> 0.66 | Config.Mm_xmm -> 0.01

(* no random input: every seed reads the same file the same way *)
let file_read ~traced ~seed:_ mm =
  let label = "file-read/" ^ mm_tag mm in
  let ops = read_nodes * read_pages in
  guard ~label ~mm ~planned_ops:ops (fun () ->
      let m =
        Cells.measure ~traced (fun ~tweak ~on_start ~inspect ->
            File_io.read_test ~mm ~nodes:read_nodes ~file_mb:read_file_mb
              ~tweak ~on_start ~inspect ())
      in
      let r = m.result in
      {
        label;
        mm;
        ops;
        timing = m.timing;
        counts = m.counts;
        errors = m.counts.violations;
        sim =
          [
            ("sim_s", r.total_ms /. 1000.);
            ("rate", float_of_int ops /. (r.total_ms /. 1000.));
            ("mb_s", r.per_node_mb_s);
            ("pager_supplies", float_of_int r.pager_supplies);
          ]
          @ latency_stats m.counts.read_fault_ms;
        latencies = m.counts.read_fault_ms;
        rung = None;
      })

(* ------------------------------------------------------------------ *)
(* serve-oversub: open-loop serving, working set 3x fleet memory       *)
(* ------------------------------------------------------------------ *)

let slo_ms = 50.
let requests_per_rung = 2000
let oversub = 3.0

(* 50 * sqrt 2 ^ k req/s, k = 0..12: 50 .. 3200, spanning the XMM knee
   (~190 req/s) and the ASVM knee (~1900 req/s).  Every rung runs. *)
let ladder = List.init 13 (fun k -> 50. *. (2. ** (float_of_int k /. 2.)))

(* fixed reference rungs, below each manager's knee *)
let reference_rate = function Config.Mm_asvm -> 800. | Config.Mm_xmm -> 100.

(* Table 1, "read fault, second reader" (ms): the unloaded cost of the
   peer-supplied read fault most requests take *)
let serve_published = function
  | Config.Mm_asvm -> 2.35
  | Config.Mm_xmm -> 10.06

let serve_params ~seed rate =
  {
    Serve.default_params with
    oversub;
    duration_ms = float_of_int requests_per_rung /. rate *. 1000.;
    process = Arrival.Poisson { rate_per_s = rate };
    seed;
    queue_samples = 30;
  }

let serve_rung ~traced ~seed mm rate =
  let label = Printf.sprintf "serve-oversub/%s/%g" (mm_tag mm) rate in
  guard ~label ~mm ~planned_ops:requests_per_rung (fun () ->
      let p = serve_params ~seed rate in
      let m =
        Cells.measure ~traced (fun ~tweak ~on_start ~inspect ->
            Serve.run ~mm ~tweak ~on_start ~inspect p)
      in
      let r = m.result in
      let lat = r.latency_values in
      let stats = latency_stats lat in
      let p99 = Option.value ~default:infinity (List.assoc_opt "p99_ms" stats) in
      let ordered =
        r.p50_ms <= r.p99_ms && r.p99_ms <= r.p999_ms && r.p999_ms <= r.max_ms
      in
      let errors =
        m.counts.violations
        @ (if r.completions = r.requests then []
           else [ Printf.sprintf "%d of %d requests completed" r.completions r.requests ])
        @ (if ordered then [] else [ "percentiles out of order" ])
        @
        if r.merged_count = r.registry_count then []
        else [ "merged shard histograms disagree with the registry" ]
      in
      let depths = List.map snd r.queue_depth in
      (* the pageout split and park timeouts through the public result *)
      let counts =
        {
          m.counts with
          reader_handoffs = r.reader_handoffs;
          internode_pageouts = r.internode_pageouts;
          pageouts_to_pager = r.pageouts_to_pager;
        }
      in
      {
        label;
        mm;
        ops = r.requests;
        timing = m.timing;
        counts;
        errors;
        sim =
          [
            ("rate", rate);
            ("sim_s", r.sim_ms /. 1000.);
            ("drain_ms", r.sim_ms -. p.duration_ms);
            ("queue_depth_max", float_of_int (List.fold_left max 0 depths));
            ("requests", float_of_int r.requests);
            ("completions", float_of_int r.completions);
            ("evictions", float_of_int r.evictions);
            ("pager_stores", float_of_int r.pager_stores);
          ]
          @ stats;
        latencies = lat;
        rung =
          Some
            {
              Calc.rate;
              p99_ms = p99;
              requests = r.requests;
              completions = r.completions;
              depths;
            };
      })

(* ------------------------------------------------------------------ *)

let of_mm mm cells = List.filter (fun c -> c.mm = mm) cells

(* the one cell a closed-loop workload runs per manager *)
let only mm cells = List.hd (of_mm mm cells)

type t = {
  name : string;
  nodes : int;  (** cluster size, for the layer microbenchmarks *)
  rep : traced:bool -> seed:int -> (unit -> cell) list;
      (** the cells of one repetition, in order, not yet run *)
  headline : Config.mm -> cell list -> cell;
      (** the cell whose simulated figures stand for a manager *)
  rate : Config.mm -> cell list -> float;  (** [*_rps_at_slo] *)
  rate_note : string;
  paper : Config.mm -> cell list -> float;
      (** the simulated figure [paper_err] compares with [published] *)
  published : Config.mm -> float;
  orderings : cell list -> (string * bool) list;
      (** the paper's claims about this workload, as checks *)
}

let closed_loop ~name ~nodes cell ~paper ~published ~orderings =
  {
    name;
    nodes;
    rep =
      (fun ~traced ~seed -> List.map (fun mm () -> cell ~traced ~seed mm) managers);
    headline = only;
    rate = (fun mm cells -> sim (only mm cells) "rate");
    rate_note = "closed loop: work per simulated second";
    paper = (fun mm cells -> sim (only mm cells) paper);
    published;
    orderings;
  }

let both ~name figure ok =
  fun cells ->
    let a = figure (only Config.Mm_asvm cells) and x = figure (only Config.Mm_xmm cells) in
    [ (name, ok a x) ]

let capacity mm cells =
  Calc.capacity ~slo_ms (List.filter_map (fun c -> c.rung) (of_mm mm cells))

let lowest_rung mm cells =
  List.fold_left
    (fun a c -> if sim c "rate" < sim a "rate" then c else a)
    (only mm cells) (of_mm mm cells)

let all =
  [
    closed_loop ~name:"em3d" ~nodes:em3d_fit.nodes (em3d em3d_fit)
      ~paper:"sim_s" ~published:em3d_published
      ~orderings:
        (both ~name:"em3d: ASVM sim_s below XMM (Table 3)"
           (fun c -> sim c "sim_s") ( < ));
    closed_loop ~name:"em3d-oversub" ~nodes:em3d_oversub.nodes (em3d em3d_oversub)
      ~paper:"p50_ms" ~published:write_fault_published
      ~orderings:(fun _ -> []);
    closed_loop ~name:"file-read" ~nodes:read_nodes file_read
      ~paper:"mb_s" ~published:read_published
      ~orderings:
        (both ~name:"file-read: ASVM MB/s above XMM (Table 2)"
           (fun c -> sim c "mb_s") ( > ));
    {
      name = "serve-oversub";
      nodes = Serve.default_params.nodes;
      rep =
        (fun ~traced ~seed ->
          List.concat_map
            (fun rate ->
              List.map (fun mm () -> serve_rung ~traced ~seed mm rate) managers)
            ladder);
      headline =
        (fun mm cells ->
          List.find (fun c -> sim c "rate" = reference_rate mm) (of_mm mm cells));
      rate = capacity;
      rate_note =
        Printf.sprintf
          "highest rung with p99 <= %g ms (latency from each due time: \
           generator lateness 0)"
          slo_ms;
      paper = (fun mm cells -> sim (lowest_rung mm cells) "p50_ms");
      published = serve_published;
      orderings =
        (fun cells ->
          [
            ( "serve-oversub: ASVM rps_at_slo above XMM",
              capacity Config.Mm_asvm cells > capacity Config.Mm_xmm cells );
          ]);
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
