module Machine = Ci_machine.Machine
module Topology = Ci_machine.Topology
module Net_params = Ci_machine.Net_params
module Cpu = Ci_machine.Cpu
module Sim = Ci_engine.Sim
module Sim_time = Ci_engine.Sim_time
module Metrics = Ci_obs.Metrics
module Consistency = Ci_rsm.Consistency
module Shard = Ci_consensus.Shard
module Wire = Ci_consensus.Wire
module Node_env = Ci_engine.Node_env

type protocol = Ci_consensus.Protocol.t =
  | Onepaxos
  | Multipaxos
  | Twopc
  | Mencius
  | Cheappaxos

type placement =
  | Dedicated of { n_replicas : int; n_clients : int }
  | Joint of { n_nodes : int }

type open_loop = Deployment.open_loop = {
  arrival : Ci_load.Arrival.spec;
  key_dist : Ci_load.Key_dist.spec;
  key_space : int;
  mix : Ci_load.Open_client.mix;
  range_span : int;
  population : int;
  sessions : int;
}

let default_open_loop = Deployment.default_open_loop

type spec = {
  protocol : protocol;
  placement : placement;
  groups : int;
  cross_shard_ratio : float;
  topology : Topology.t;
  params : Net_params.t;
  duration : int;
  warmup : int;
  drain : int;
  seed : int;
  read_ratio : float;
  relaxed_reads : bool;
  local_reads : bool;
  think : int;
  timeout : int;
  max_requests : int option;
  nemesis : Ci_faults.t;
  bucket : int;
  colocate_acceptor : bool;
  batch : int;
  batch_delay : int;
  pipeline : int;
  lease : int;
  lease_skew : int;
  open_loop : open_loop option;
  trace : Ci_obs.Event.ring option;
}

let default_spec ~protocol ~placement =
  {
    protocol;
    placement;
    groups = 1;
    cross_shard_ratio = 0.;
    topology = Topology.opteron_48;
    params = Net_params.multicore;
    duration = Sim_time.ms 50;
    warmup = Sim_time.ms 5;
    drain = Sim_time.ms 5;
    seed = 42;
    read_ratio = 0.;
    relaxed_reads = false;
    local_reads = false;
    think = 0;
    timeout = Sim_time.ms 2;
    max_requests = None;
    nemesis = Ci_faults.empty;
    bucket = Sim_time.ms 10;
    colocate_acceptor = false;
    batch = 1;
    batch_delay = Sim_time.us 5;
    pipeline = 0;
    lease = 0;
    lease_skew = 0;
    open_loop = None;
    trace = None;
  }

type window_counts = {
  w_messages : int;
  w_sends : int;
  w_self : int;
  w_retries : int;
  w_replies : int;
}

type window_split = {
  warmup_w : window_counts;
  measure_w : window_counts;
  drain_w : window_counts;
}

type core_usage = {
  u_core : int;
  u_busy_ns : int;
  u_util : float;
  u_queue_peak : int;
  u_slowed_ns : int;
}

type result = {
  commits : int;
  total_replies : int;
  throughput : float;
  latency : Ci_stats.Summary.t;
  timeline : float array;
  messages : int;
  messages_total : int;
  self_delivered : int;
  self_delivered_total : int;
  retries : int;
  retries_total : int;
  windows : window_split;
  cores : core_usage list;
  leader_changes : int;
  leader_changes_sum : int;
  acceptor_changes : int;
  acceptor_changes_sum : int;
  sim_events : int;
  lease_reads : int;
  load : Ci_load.Load_stats.t option;
  metrics : Metrics.t;
  consistency : Consistency.report;
  atomicity : Ci_rsm.Atomicity.report option;
  failover : Ci_obs.Failover.t option;
}

(* One instant's view of every cumulative counter — taken at the window
   boundaries from inside the simulation. *)
type snap = {
  s_delivered : int;
  s_sent : int;
  s_self : int;
  s_retries : int;
  s_replies : int;
  s_io : (int * int * int) array; (* per node: sent, received, self *)
  s_busy : int array; (* per core: elapsed occupation ns *)
}

(* Per-replica nemesis bookkeeping. [alive] is the {e current}
   incarnation's liveness cell — a crash flips the cell the dead
   incarnation's timers were gated on, a restart installs a fresh cell,
   so stale timers can never act for their successor. *)
type nem_state = {
  mutable alive : bool ref;
  mutable paused : bool;
  pending : (unit -> unit) Queue.t;
      (** Messages and timer thunks deferred while paused, replayed in
          arrival order at resume (SIGCONT drains the backlog). *)
}

(* Gate a node environment for one incarnation: timers of a dead
   incarnation never fire, timers of a paused one are deferred. Sends
   need no gate — they only originate from handlers and timers, both of
   which are gated. *)
let gate_env (base : Wire.t Node_env.t) st alive =
  let wrap f () =
    if !alive then if st.paused then Queue.add f st.pending else f ()
  in
  {
    base with
    Node_env.after = (fun ~delay f -> base.Node_env.after ~delay (wrap f));
    after_cancel = (fun ~delay f -> base.Node_env.after_cancel ~delay (wrap f));
  }

(* The simulator's view of the shared deployment description. Failure
   detection and retry timeouts must exceed the network round trip: the
   multicore defaults would make LAN deployments suspect healthy peers
   forever. One hop costs send + prop + recv + handler. *)
let deployment spec =
  let n_replicas, n_clients, joint =
    match spec.placement with
    | Dedicated { n_replicas; n_clients } -> (n_replicas, n_clients, false)
    | Joint { n_nodes } -> (n_nodes, n_nodes, true)
  in
  let p = spec.params in
  let rtt =
    2
    * (p.Net_params.send_cost + p.Net_params.prop_inter + p.Net_params.recv_cost
     + p.Net_params.handler_cost)
  in
  {
    Deployment.protocol = spec.protocol;
    groups = spec.groups;
    replicas = n_replicas;
    clients = n_clients;
    joint;
    cross_shard_ratio = spec.cross_shard_ratio;
    tuning =
      {
        Ci_consensus.Protocol.relaxed_reads = spec.relaxed_reads;
        local_reads = spec.local_reads;
        colocate_acceptor = spec.colocate_acceptor;
        batch = spec.batch;
        batch_delay = spec.batch_delay;
        pipeline = spec.pipeline;
        lease = spec.lease;
        lease_skew = spec.lease_skew;
        unsafe_stale_adoption = false;
        floors =
          { suspect = 4 * rtt; check_period = rtt; pu = 3 * rtt; election = 3 * rtt };
      };
    timeout = spec.timeout;
    think = spec.think;
    read_ratio = spec.read_ratio;
    key_space = (Client.default_policy ~targets:[||]).Client.key_space;
    max_requests = spec.max_requests;
    open_loop = spec.open_loop;
    nemesis = spec.nemesis;
  }

let run spec =
  let n_cores = Topology.n_cores spec.topology in
  let d = deployment spec in
  Deployment.validate ~who:"Runner.run" ~n_cores d;
  if spec.duration <= 0 then invalid_arg "Runner.run: duration must be > 0";
  if spec.warmup < 0 then invalid_arg "Runner.run: warmup must be >= 0";
  if spec.params.Net_params.coalesce < 1 then
    invalid_arg "Runner.run: coalesce must be >= 1";
  let total_replicas = Deployment.total_replicas d in
  if total_replicas > n_cores then
    invalid_arg "Runner.run: more replicas than cores";
  let has_crashpause =
    Ci_faults.crashes spec.nemesis <> [] || Ci_faults.pauses spec.nemesis <> []
  in
  let machine =
    Machine.create ~seed:spec.seed ~topology:spec.topology ~params:spec.params ()
  in
  (* Replicas occupy cores 0..R-1, like the paper's taskset layout.
     Sharded runs lay groups out group-major over the same contiguous
     range, so group g spans cores [g*R, (g+1)*R): with the Topology's
     socket structure, growing the socket count spreads whole groups
     across sockets — exactly what the shards figure sweeps. Routers
     (sharded runs) and clients share the cores after the replicas; at
     [groups = 1] there are no routers and the layout is the historical
     one. Node ids follow creation order, so they are the layout's. *)
  let tail_core i =
    let tail_cores = n_cores - total_replicas in
    if tail_cores < 1 then invalid_arg "Runner.run: no cores left for clients";
    total_replicas + (i mod tail_cores)
  in
  let node_of_id =
    Array.init (Deployment.n_nodes d) (fun id ->
        Machine.add_node machine
          ~core:(if id < total_replicas then id else tail_core (id - total_replicas)))
  in
  let replica_nodes = Array.sub node_of_id 0 total_replicas in
  let nem =
    Array.init total_replicas (fun _ ->
        { alive = ref true; paused = false; pending = Queue.create () })
  in
  (* Environments are wrapped only under a crash/pause schedule: the
     empty-nemesis path hands protocols the machine's own environment,
     untouched. *)
  let env_for i =
    let base = Machine.env replica_nodes.(i) in
    if has_crashpause then gate_env base nem.(i) nem.(i).alive else base
  in
  let w0 = spec.warmup and w1 = spec.warmup + spec.duration in
  let horizon = w1 + spec.drain in
  let stats = Run_stats.create ~bucket:spec.bucket in
  let load_sink =
    match spec.open_loop with
    | None -> None
    | Some _ -> Some (Ci_load.Load_stats.create ~from_:w0 ~until_:w1)
  in
  (* Open-loop drivers stop arriving at the measurement end; the drain
     window lets the backlog play out. *)
  let nodes =
    Deployment.build d ~replica_env:env_for
      ~env:(fun id -> Machine.env node_of_id.(id))
      ~stats:(fun _ -> stats)
      ~sink:(fun _ -> Option.get load_sink)
      ~stop_at:w1
  in
  (* Under a crash/pause schedule a restart swaps in a new handler
     chain for the new incarnation, and a paused node buffers. *)
  let handlers = Array.init total_replicas (Deployment.replica_handler d nodes) in
  Array.iteri
    (fun i node ->
      if has_crashpause then
        let st = nem.(i) in
        Machine.set_handler node (fun ~src msg ->
            if st.paused then Queue.add (fun () -> handlers.(i) ~src msg) st.pending
            else handlers.(i) ~src msg)
      else Machine.set_handler node handlers.(i))
    replica_nodes;
  if not d.Deployment.joint then
    for k = 0 to d.Deployment.clients - 1 do
      Machine.set_handler
        node_of_id.(Deployment.client_id d k)
        (Deployment.client_handler nodes k)
    done;
  Array.iteri
    (fun j r ->
      Machine.set_handler node_of_id.(Deployment.router_id d j) (Shard.Router.handle r))
    nodes.Deployment.routers;
  (* Typed observability: record trace events when the caller supplied a
     ring, labelling message events with their wire constructor names. *)
  Machine.set_observer ~msg_label:Wire.kind machine spec.trace;
  (* Faults, protocol bootstrap, load. *)
  let do_crash ~node:i =
    let st = nem.(i) in
    Deployment.crash nodes i;
    st.alive := false;
    st.paused <- false;
    Queue.clear st.pending;
    Machine.set_node_down replica_nodes.(i) true
  in
  let do_restart ~node:i =
    let st = nem.(i) in
    Machine.set_node_down replica_nodes.(i) false;
    let alive = ref true in
    st.alive <- alive;
    Deployment.restart d nodes i (gate_env (Machine.env replica_nodes.(i)) st alive);
    handlers.(i) <- Deployment.replica_handler d nodes i
  in
  let do_pause ~node:i =
    nem.(i).paused <- true;
    Machine.note_phase replica_nodes.(i) ~phase:"paused"
  in
  let do_resume ~node:i =
    let st = nem.(i) in
    if st.paused then begin
      st.paused <- false;
      Machine.note_phase replica_nodes.(i) ~phase:"resumed";
      while not (Queue.is_empty st.pending) do
        (Queue.pop st.pending) ()
      done
    end
  in
  Nemesis.install machine ~nemesis:spec.nemesis ~crash:do_crash
    ~restart:do_restart ~pause:do_pause ~resume:do_resume;
  let clients = nodes.Deployment.clients in
  Array.iter Ci_consensus.Protocol.start nodes.Deployment.replicas;
  Array.iter Client.start clients;
  Array.iter Ci_load.Open_client.start nodes.Deployment.drivers;
  (* Counter snapshots at the window boundaries, taken from inside the
     simulation so every count is confined to its window (previously
     [messages] and [retries] covered the whole run while [commits]
     covered only [w0, w1) — the window-skew bug). *)
  let take_snap () =
    {
      s_delivered = Machine.total_messages machine;
      s_sent = Machine.messages_sent_total machine;
      s_self = Machine.self_delivered_total machine;
      s_retries =
        Array.fold_left (fun acc c -> acc + Client.retries c) 0 clients
        + (match load_sink with
          | Some s -> Ci_load.Load_stats.retries s
          | None -> 0);
      s_replies =
        Run_stats.completed stats
        + (match load_sink with
          | Some s -> Ci_load.Load_stats.completed s
          | None -> 0);
      s_io = Machine.io_snapshot machine;
      s_busy =
        Array.init n_cores (fun c -> Cpu.busy_elapsed (Machine.cpu machine ~core:c));
    }
  in
  let snap0 = ref None and snap1 = ref None in
  let sim = Machine.sim machine in
  Sim.schedule_at sim ~time:w0 (fun () -> snap0 := Some (take_snap ()));
  Sim.schedule_at sim ~time:w1 (fun () -> snap1 := Some (take_snap ()));
  Machine.run_until machine ~time:horizon;
  (* Measurements. *)
  let n_nodes = Machine.n_nodes machine in
  let zero_snap =
    {
      s_delivered = 0;
      s_sent = 0;
      s_self = 0;
      s_retries = 0;
      s_replies = 0;
      s_io = Array.make n_nodes (0, 0, 0);
      s_busy = Array.make n_cores 0;
    }
  in
  let s_end = take_snap () in
  let s0 = Option.value !snap0 ~default:s_end in
  let s1 = Option.value !snap1 ~default:s_end in
  let window_diff a b =
    {
      w_messages = b.s_delivered - a.s_delivered;
      w_sends = b.s_sent - a.s_sent;
      w_self = b.s_self - a.s_self;
      w_retries = b.s_retries - a.s_retries;
      w_replies = b.s_replies - a.s_replies;
    }
  in
  let windows =
    {
      warmup_w = window_diff zero_snap s0;
      measure_w = window_diff s0 s1;
      drain_w = window_diff s1 s_end;
    }
  in
  let used_cores =
    let tbl = Hashtbl.create 16 in
    Array.iter (fun n -> Hashtbl.replace tbl (Machine.core_of n) ()) node_of_id;
    Hashtbl.fold (fun c () acc -> c :: acc) tbl [] |> List.sort compare
  in
  let cores =
    List.map
      (fun c ->
        let cpu = Machine.cpu machine ~core:c in
        let busy = s1.s_busy.(c) - s0.s_busy.(c) in
        {
          u_core = c;
          u_busy_ns = busy;
          u_util = float_of_int busy /. float_of_int spec.duration;
          u_queue_peak = Cpu.queue_peak cpu;
          u_slowed_ns = Cpu.slowed_total cpu;
        })
      used_cores
  in
  let lat = Run_stats.latencies_in stats ~from_:w0 ~until_:w1 in
  let commits =
    Run_stats.completed_in stats ~from_:w0 ~until_:w1
    + (match load_sink with
      | Some s -> Ci_load.Load_stats.completed s
      | None -> 0)
  in
  let throughput =
    float_of_int commits /. Sim_time.to_s_float spec.duration
  in
  (* Metrics registry: every number the tables rest on, keyed
     hierarchically. *)
  let metrics = Metrics.create () in
  let set_window prefix w =
    Metrics.set_int metrics (prefix ^ ".messages") w.w_messages;
    Metrics.set_int metrics (prefix ^ ".sends") w.w_sends;
    Metrics.set_int metrics (prefix ^ ".self") w.w_self;
    Metrics.set_int metrics (prefix ^ ".retries") w.w_retries;
    Metrics.set_int metrics (prefix ^ ".replies") w.w_replies
  in
  Metrics.set_int metrics "commits.measure" commits;
  Metrics.set_float metrics "throughput.ops" throughput;
  set_window "warmup" windows.warmup_w;
  set_window "measure" windows.measure_w;
  set_window "drain" windows.drain_w;
  Metrics.set_int metrics "messages.total" s_end.s_delivered;
  Metrics.set_int metrics "self.total" s_end.s_self;
  Metrics.set_int metrics "retries.total" s_end.s_retries;
  for id = 0 to n_nodes - 1 do
    let sent_of (s, _, _) = s and recv_of (_, r, _) = r and self_of (_, _, x) = x in
    let win name f =
      Metrics.set_int metrics (Printf.sprintf "node%d.%s.warmup" id name) (f s0.s_io.(id));
      Metrics.set_int metrics
        (Printf.sprintf "node%d.%s.measure" id name)
        (f s1.s_io.(id) - f s0.s_io.(id));
      Metrics.set_int metrics
        (Printf.sprintf "node%d.%s.drain" id name)
        (f s_end.s_io.(id) - f s1.s_io.(id))
    in
    win "sent" sent_of;
    win "recv" recv_of;
    win "self" self_of
  done;
  List.iter
    (fun u ->
      Metrics.set_int metrics (Printf.sprintf "core%d.busy_ns.measure" u.u_core) u.u_busy_ns;
      Metrics.set_float metrics (Printf.sprintf "core%d.util.measure" u.u_core) u.u_util;
      Metrics.set_int metrics (Printf.sprintf "core%d.queue_peak" u.u_core) u.u_queue_peak;
      Metrics.set_int metrics (Printf.sprintf "core%d.slowed_ns" u.u_core) u.u_slowed_ns)
    cores;
  let ch = Machine.channel_totals machine in
  Metrics.set_int metrics "channels.count" ch.Machine.ch_count;
  Metrics.set_int metrics "channels.blocked" ch.Machine.ch_blocked;
  Metrics.set_int metrics "channels.stall_ns" ch.Machine.ch_stall_ns;
  Metrics.set_int metrics "channels.occupancy_peak" ch.Machine.ch_occupancy_peak;
  Metrics.set_int metrics "channels.outbox_peak" ch.Machine.ch_outbox_peak;
  let coalesce_groups, coalesce_messages = Machine.coalescing_totals machine in
  Metrics.set_int metrics "coalesce.groups" coalesce_groups;
  Metrics.set_int metrics "coalesce.messages" coalesce_messages;
  let sim_events = Ci_engine.Sim.events_fired (Machine.sim machine) in
  Metrics.set_int metrics "sim.events" sim_events;
  (match spec.trace with
   | Some ring -> Metrics.set_int metrics "trace.dropped" (Ci_obs.Event.dropped ring)
   | None -> ());
  let consistency, atomicity = Deployment.audit d nodes in
  Deployment.publish_shard metrics ~prefix:"" d nodes;
  let replicas = nodes.Deployment.replicas in
  let max_of f = Array.fold_left (fun acc r -> max acc (f r)) 0 replicas in
  let sum_of f = Array.fold_left (fun acc r -> acc + f r) 0 replicas in
  let leader_changes = max_of Ci_consensus.Protocol.leader_changes in
  let leader_changes_sum = sum_of Ci_consensus.Protocol.leader_changes in
  let acceptor_changes = max_of Ci_consensus.Protocol.acceptor_changes in
  let acceptor_changes_sum = sum_of Ci_consensus.Protocol.acceptor_changes in
  Metrics.set_int metrics "leader_changes.max" leader_changes;
  Metrics.set_int metrics "leader_changes.sum" leader_changes_sum;
  Metrics.set_int metrics "acceptor_changes.max" acceptor_changes;
  Metrics.set_int metrics "acceptor_changes.sum" acceptor_changes_sum;
  let lease_reads = Deployment.lease_reads nodes in
  Deployment.publish_load metrics ~prefix:"" d ~lease_reads load_sink;
  (* Failover shape around the schedule's first fault. *)
  let failover =
    Deployment.publish_failover metrics ~prefix:"" d ~until_:horizon
      ~dropped:(Machine.fault_dropped machine)
      ~duplicated:(Machine.fault_duplicated machine)
      ~completions:(fun () -> Run_stats.completions_in stats ~from_:0 ~until_:horizon)
  in
  {
    commits;
    total_replies = s_end.s_replies;
    throughput;
    latency = Ci_stats.Summary.of_samples lat;
    timeline = Ci_stats.Timeseries.rates_per_sec (Run_stats.timeline stats) ~upto:(w1 + spec.drain);
    messages = windows.measure_w.w_messages;
    messages_total = s_end.s_delivered;
    self_delivered = windows.measure_w.w_self;
    self_delivered_total = s_end.s_self;
    retries = windows.measure_w.w_retries;
    retries_total = s_end.s_retries;
    windows;
    cores;
    leader_changes;
    leader_changes_sum;
    acceptor_changes;
    acceptor_changes_sum;
    sim_events;
    lease_reads;
    load = load_sink;
    metrics;
    consistency;
    atomicity;
    failover;
  }

let leader_util r =
  match List.find_opt (fun u -> u.u_core = 0) r.cores with
  | Some u -> u.u_util
  | None -> 0.

let pp_window fmt w =
  Format.fprintf fmt "msgs=%d sends=%d self=%d retries=%d replies=%d"
    w.w_messages w.w_sends w.w_self w.w_retries w.w_replies

let pp_result fmt r =
  Format.fprintf fmt
    "commits=%d throughput=%.0f op/s latency: %a; msgs=%d/%d self=%d/%d \
     retries=%d/%d lc=%d(sum %d) ac=%d(sum %d) leader-util=%.2f; %a"
    r.commits r.throughput Ci_stats.Summary.pp r.latency r.messages
    r.messages_total r.self_delivered r.self_delivered_total r.retries
    r.retries_total r.leader_changes r.leader_changes_sum r.acceptor_changes
    r.acceptor_changes_sum (leader_util r) Consistency.pp r.consistency
