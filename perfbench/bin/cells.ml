(* One simulated cell, measured from outside the program: host
   timestamps at the public [tweak] / [on_start] / [inspect] hooks the
   workload entry points take, and layer counts read through public
   accessors at [inspect]. *)

module Config = Asvm_cluster.Config
module Cluster = Asvm_cluster.Cluster
module Engine = Asvm_simcore.Engine
module Stats = Asvm_simcore.Stats
module Metrics = Asvm_obs.Metrics
module Trace = Asvm_obs.Trace
module Vm = Asvm_machvm.Vm
module Contents = Asvm_machvm.Contents
module Store_pager = Asvm_pager.Store_pager
module Disk = Asvm_pager.Disk
module Asvm = Asvm_core.Asvm
module Xmm = Asvm_xmm.Xmm

let now = Unix.gettimeofday
let trace_capacity = 4096

(* Host seconds of the three phases of a cell call.  [inspect_s] is the
   benchmark's own checking inside the [inspect] hook, excluded from
   the host cost. *)
type timing = {
  t_call : float;  (** host clock at the call *)
  setup_s : float;  (** call -> on_start *)
  run_s : float;  (** on_start -> inspect *)
  inspect_s : float;
  collect_s : float;  (** end of inspect -> return *)
  run_words : float;  (** minor words allocated on_start -> inspect *)
}

let host_s t = t.run_s +. t.collect_s

type counts = {
  events : int;
  depth_at_start : int;
  net_messages : int;
  net_bytes : int;
  tx_backlog_ms : float array;  (** sorted *)
  sts_messages : int;
  sts_page_messages : int;
  norma_messages : int;
  protocol_messages : int;
  forwarding : int;  (** ASVM request-forwarding decisions *)
  global_sweeps : int;
  park_timeouts : int;
  reader_handoffs : int;
  internode_pageouts : int;
  pageouts_to_pager : int;
  vm_faults : int;
  vm_local_faults : int;
  evictions : int;
  daemon_evictions : int;
  pager_supplies : int;
  pager_stores : int;
  disk_reads : int;
  disk_writes : int;
  read_fault_ms : float array;  (** sorted *)
  ownership_fault_ms : float array;  (** sorted *)
  snapshots : int;
  cow_materializations : int;
  trace_events : int;
  counter_incrs : int;  (** estimated [Counter.incr] calls *)
  histogram_observes : int;
  counters : (string * int) list;  (** every registry counter series *)
  violations : string list;  (** [Asvm_chaos.Invariants.check] *)
}

let empty_counts =
  {
    events = 0;
    depth_at_start = 0;
    net_messages = 0;
    net_bytes = 0;
    tx_backlog_ms = [||];
    sts_messages = 0;
    sts_page_messages = 0;
    norma_messages = 0;
    protocol_messages = 0;
    forwarding = 0;
    global_sweeps = 0;
    park_timeouts = 0;
    reader_handoffs = 0;
    internode_pageouts = 0;
    pageouts_to_pager = 0;
    vm_faults = 0;
    vm_local_faults = 0;
    evictions = 0;
    daemon_evictions = 0;
    pager_supplies = 0;
    pager_stores = 0;
    disk_reads = 0;
    disk_writes = 0;
    read_fault_ms = [||];
    ownership_fault_ms = [||];
    snapshots = 0;
    cow_materializations = 0;
    trace_events = 0;
    counter_incrs = 0;
    histogram_observes = 0;
    counters = [];
    violations = [];
  }

let series_key (s : Metrics.sample) =
  String.concat ","
    (s.name :: List.map (fun (k, v) -> k ^ "=" ^ v) s.labels)

let distinct l =
  List.fold_left (fun acc x -> if List.memq x acc then acc else x :: acc) [] l

let read_counts cl ~depth_at_start ~contents0 =
  let reg = Cluster.metrics cl in
  let snap = Metrics.Registry.snapshot reg in
  let total name = Metrics.counter_total snap name in
  let nodes = (Cluster.config cl).Config.nodes in
  let sum_vm f =
    let acc = ref 0 in
    for node = 0 to nodes - 1 do
      acc := !acc + f (Cluster.node_vm cl node)
    done;
    !acc
  in
  let pagers =
    distinct
      (Cluster.default_pager cl
      :: List.concat_map
           (fun (obj, _) -> Cluster.object_pagers cl obj)
           (Cluster.registered_objects cl))
  in
  let disks = distinct (List.map Store_pager.disk pagers) in
  let sum_pagers f = List.fold_left (fun acc p -> acc + f p) 0 pagers in
  let sum_disks f = List.fold_left (fun acc d -> acc + f d) 0 disks in
  let hist proto kind =
    Metrics.Histogram.values
      (Metrics.Registry.histogram reg ~labels:[ ("kind", kind) ]
         (proto ^ ".fault_ms"))
  in
  let asvm_counter name =
    match Cluster.backend cl with
    | `Asvm a -> Stats.Counters.get (Asvm.counters a) name
    | `Xmm _ -> 0
  in
  let proto, sts_messages, sts_page_messages, norma_messages =
    match Cluster.backend cl with
    | `Asvm a -> ("asvm", Asvm.sts_messages a, Asvm.sts_page_messages a, 0)
    | `Xmm x -> ("xmm", 0, 0, Xmm.ipc_messages x)
  in
  let net_messages = total "net.messages" in
  let counters =
    List.filter_map
      (fun (s : Metrics.sample) ->
        match s.value with
        | Metrics.Counter_v v -> Some (series_key s, v)
        | _ -> None)
      snap
  in
  (* one incr per event except byte counters, bumped once per message *)
  let counter_incrs =
    List.fold_left
      (fun acc (s : Metrics.sample) ->
        match s.value with
        | Metrics.Counter_v v ->
          if s.name = "net.bytes" then acc + net_messages
          else if s.name = "sts.bytes" then acc + sts_messages
          else acc + v
        | _ -> acc)
      0 snap
  in
  let histogram_observes =
    List.fold_left
      (fun acc (s : Metrics.sample) ->
        match s.value with
        | Metrics.Histogram_v { count; _ } -> acc + count
        | _ -> acc)
      0 snap
  in
  let c = Contents.stats () in
  {
    events = Engine.events_executed (Cluster.engine cl);
    depth_at_start;
    net_messages;
    net_bytes = total "net.bytes";
    tx_backlog_ms =
      Metrics.Histogram.values (Metrics.Registry.histogram reg "net.tx_backlog_ms");
    sts_messages;
    sts_page_messages;
    norma_messages;
    protocol_messages = Cluster.protocol_messages cl;
    forwarding = total "asvm.forwarding";
    global_sweeps =
      Metrics.counter_total
        ~where:(fun l -> List.assoc_opt "mechanism" l = Some "global_sweep")
        snap "asvm.forwarding";
    park_timeouts = asvm_counter "forward.park_timeouts";
    reader_handoffs = asvm_counter "pageout.reader_handoffs";
    internode_pageouts = asvm_counter "pageout.internode";
    pageouts_to_pager = asvm_counter "pageout.to_pager";
    vm_faults = sum_vm Vm.faults;
    vm_local_faults = sum_vm Vm.local_faults;
    evictions = sum_vm Vm.evictions;
    daemon_evictions = sum_vm Vm.pageout_evictions;
    pager_supplies = sum_pagers Store_pager.supplies;
    pager_stores = sum_pagers Store_pager.stores;
    disk_reads = sum_disks Disk.reads;
    disk_writes = sum_disks Disk.writes;
    read_fault_ms = hist proto "read";
    ownership_fault_ms = hist proto "ownership";
    snapshots = c.Contents.snapshots - contents0.Contents.snapshots;
    cow_materializations =
      c.Contents.cow_materializations - contents0.Contents.cow_materializations;
    trace_events =
      (match Cluster.trace cl with Some t -> Trace.emitted t | None -> 0);
    counter_incrs;
    histogram_observes;
    counters;
    violations = Asvm_chaos.Invariants.check cl;
  }

type 'r measured = { result : 'r; timing : timing; counts : counts }

(* [call ~tweak ~on_start ~inspect] runs one workload cell through the
   library entry point; everything the benchmark needs is taken at the
   hooks. *)
let measure ~traced call =
  let t_start = ref nan and t_i0 = ref nan and t_i1 = ref nan in
  let w_start = ref 0. and w_i0 = ref 0. in
  let depth = ref 0 and contents0 = ref (Contents.stats ()) in
  let counts = ref empty_counts in
  let tweak c =
    { c with Config.trace_capacity = (if traced then Some trace_capacity else None) }
  in
  let on_start cl =
    depth := Engine.pending (Cluster.engine cl);
    contents0 := Contents.stats ();
    w_start := Gc.minor_words ();
    t_start := now ()
  in
  let inspect cl =
    t_i0 := now ();
    w_i0 := Gc.minor_words ();
    counts := read_counts cl ~depth_at_start:!depth ~contents0:!contents0;
    t_i1 := now ()
  in
  Gc.compact ();
  let t_call = now () in
  let result = call ~tweak ~on_start ~inspect in
  let t_ret = now () in
  let timing =
    {
      t_call;
      setup_s = !t_start -. t_call;
      run_s = !t_i0 -. !t_start;
      inspect_s = !t_i1 -. !t_i0;
      collect_s = t_ret -. !t_i1;
      run_words = !w_i0 -. !w_start;
    }
  in
  { result; timing; counts = !counts }
