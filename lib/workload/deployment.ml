module Protocol = Ci_consensus.Protocol
module Wire = Ci_consensus.Wire
module Twopc = Ci_consensus.Twopc
module Shard = Ci_consensus.Shard
module Metrics = Ci_obs.Metrics
module Open_client = Ci_load.Open_client
module Load_stats = Ci_load.Load_stats

type open_loop = {
  arrival : Ci_load.Arrival.spec;
  key_dist : Ci_load.Key_dist.spec;
  key_space : int;
  mix : Open_client.mix;
  range_span : int;
  population : int;
  sessions : int;
}

let default_open_loop =
  {
    arrival = Ci_load.Arrival.Fixed 50_000.;
    key_dist = Ci_load.Key_dist.Uniform;
    key_space = 65_536;
    mix = { Open_client.reads = 0.5; cas = 0.; ranges = 0. };
    range_span = 16;
    population = 100_000;
    sessions = 16;
  }

type t = {
  protocol : Protocol.t;
  groups : int;
  replicas : int;
  clients : int;
  joint : bool;
  cross_shard_ratio : float;
  tuning : Protocol.tuning;
  timeout : int;
  think : int;
  read_ratio : float;
  key_space : int;
  max_requests : int option;
  open_loop : open_loop option;
  nemesis : Ci_faults.t;
}

let total_replicas d = d.groups * d.replicas

let validate ~who ?n_cores d =
  let fail fmt = Printf.ksprintf (fun m -> invalid_arg (who ^ ": " ^ m)) fmt in
  let tu = d.tuning in
  let recoverable = Protocol.recoverable d.protocol in
  if d.replicas < 1 then fail "need at least one replica";
  if (not d.joint) && d.clients < 1 then fail "need clients";
  if d.groups < 1 then fail "groups must be >= 1";
  if not (d.cross_shard_ratio >= 0. && d.cross_shard_ratio <= 1.) then
    fail "cross_shard_ratio must be in [0, 1]";
  if d.timeout <= 0 then fail "client timeout must be > 0";
  if d.think < 0 then fail "think must be >= 0";
  if not (d.read_ratio >= 0. && d.read_ratio <= 1.) then
    fail "read_ratio must be in [0, 1]";
  if d.key_space < 1 then fail "key_space must be >= 1";
  if d.groups > 1 then begin
    if not recoverable then
      fail "groups > 1 requires a shardable protocol (1paxos or multipaxos)";
    if d.joint then fail "groups > 1 requires dedicated placement";
    if tu.relaxed_reads then fail "relaxed reads are not routed across shards"
  end;
  if tu.lease < 0 then fail "lease must be >= 0";
  if tu.lease > 0 then begin
    if not recoverable then fail "leader leases require 1paxos or multipaxos";
    if tu.relaxed_reads then
      fail "leases and relaxed reads are mutually exclusive read paths";
    if tu.lease_skew >= tu.lease then fail "lease_skew must be < lease"
  end;
  if d.open_loop <> None && d.joint then
    fail "open-loop load requires dedicated placement";
  if not (Ci_faults.is_empty d.nemesis) then begin
    (match Ci_faults.validate ?n_cores ~n_nodes:(total_replicas d) d.nemesis with
    | Ok () -> ()
    | Error e -> fail "nemesis: %s" e);
    if Ci_faults.crashes d.nemesis <> [] || Ci_faults.pauses d.nemesis <> [] then begin
      if not recoverable then
        fail
          "nemesis crash/pause requires a protocol with crash-recovery (1paxos \
           or multipaxos)";
      if d.joint then
        fail
          "nemesis crash/pause requires dedicated placement (a joint node's \
           client would die with its replica)"
    end
  end

(* ----- layout ------------------------------------------------------------- *)

let n_routers d = if d.groups = 1 then 0 else d.groups
let n_nodes d = total_replicas d + n_routers d + if d.joint then 0 else d.clients
let router_id d j = total_replicas d + j
let client_id d k = if d.joint then k else total_replicas d + n_routers d + k
let group_of d i = i / d.replicas
let group_members d g = Array.init d.replicas (fun r -> (g * d.replicas) + r)
let entry d g = g * d.replicas

let targets d =
  if n_routers d = 0 then Array.init (total_replicas d) Fun.id
  else Array.init (n_routers d) (router_id d)

(* Mencius distributes load by design: spread the clients over the
   leaders instead of pointing everyone at replica 0. *)
let primary d k =
  if n_routers d > 0 then k mod n_routers d
  else if d.protocol = Protocol.Mencius then k mod d.replicas
  else 0

let client_policy d k =
  {
    (Client.default_policy ~targets:(targets d)) with
    Client.primary = primary d k;
    failover = d.protocol <> Protocol.Twopc;
    timeout = d.timeout;
    think = d.think;
    read_ratio = d.read_ratio;
    cross_shard_ratio = d.cross_shard_ratio;
    groups = d.groups;
    relaxed_reads = d.tuning.Protocol.relaxed_reads;
    read_own_node =
      d.joint && (d.tuning.Protocol.local_reads || d.tuning.Protocol.relaxed_reads);
    key_space = d.key_space;
    max_requests = d.max_requests;
  }

let driver_config d (ol : open_loop) ~stop_at k =
  {
    Open_client.targets = targets d;
    primary = primary d k;
    failover = d.protocol <> Protocol.Twopc;
    timeout = d.timeout;
    arrival = ol.arrival;
    key_dist = ol.key_dist;
    key_space = ol.key_space;
    mix = ol.mix;
    range_span = ol.range_span;
    population = ol.population;
    sessions = ol.sessions;
    relaxed_reads = d.tuning.Protocol.relaxed_reads;
    stop_at;
  }

(* ----- nodes -------------------------------------------------------------- *)

type nodes = {
  replicas : Protocol.replica array;
  participants : Twopc.Participant.p array;
  clients : Client.t array;
  drivers : Open_client.t array;
  routers : Shard.Router.t array;
  snaps : Protocol.stable option array;
}

let build d ~replica_env ~env ~stats ~sink ~stop_at =
  let n_clients = if d.joint then total_replicas d else d.clients in
  let replicas =
    Array.init (total_replicas d) (fun i ->
        Protocol.create d.protocol d.tuning
          ~replicas:(group_members d (group_of d i))
          ~env:(replica_env i))
  in
  let clients =
    if d.open_loop <> None then [||]
    else
      Array.init n_clients (fun k ->
          Client.create ~env:(env (client_id d k)) ~policy:(client_policy d k)
            ~stats:(stats k))
  in
  (* Open-loop drivers replace the closed-loop clients on the same
     nodes: arrivals follow the offered schedule up to [stop_at]. *)
  let drivers =
    match d.open_loop with
    | None -> [||]
    | Some ol ->
      Array.init n_clients (fun k ->
          Open_client.create ~env:(env (client_id d k))
            ~config:(driver_config d ol ~stop_at k)
            ~stats:(sink k))
  in
  (* Sharded runs put a 2PC participant in front of each group's entry
     replica: it consumes the router's prepare/commit messages and the
     consensus replies to its own self-requests. *)
  let participants =
    Array.init (n_routers d) (fun g ->
        Twopc.Participant.create ~env:(replica_env (entry d g)))
  in
  (* Routers hash single-shard commands to their group's entry replica
     and run cross-shard multi-puts as 2PC transactions. *)
  let routers =
    Array.init (n_routers d) (fun j ->
        let config =
          {
            Shard.Router.groups = d.groups;
            leader_of = Array.init d.groups (entry d);
            retry_timeout = d.timeout;
          }
        in
        Shard.Router.create ~env:(env (router_id d j)) ~config)
  in
  {
    replicas;
    participants;
    clients;
    drivers;
    routers;
    snaps = Array.make (total_replicas d) None;
  }

let client_handler nodes k =
  if Array.length nodes.drivers > 0 then Open_client.handle nodes.drivers.(k)
  else Client.handle nodes.clients.(k)

let replica_handler d nodes i =
  let h = Protocol.handler nodes.replicas.(i) in
  if n_routers d > 0 && i = entry d (group_of d i) then begin
    let p = nodes.participants.(group_of d i) in
    fun ~src msg -> if not (Twopc.Participant.handle p ~src msg) then h ~src msg
  end
  else if d.joint then begin
    let c = client_handler nodes i in
    fun ~src msg ->
      match msg with Wire.Reply _ -> c ~src msg | _ -> h ~src msg
  end
  else h

let start_client nodes k =
  if Array.length nodes.drivers > 0 then Open_client.start nodes.drivers.(k)
  else Client.start nodes.clients.(k)

let crash nodes i = nodes.snaps.(i) <- Some (Protocol.stable nodes.replicas.(i))

let restart d nodes i env =
  match nodes.snaps.(i) with
  | Some snap ->
    nodes.replicas.(i) <-
      Protocol.recover d.tuning ~replicas:(group_members d (group_of d i)) ~env snap
  | None -> invalid_arg "Deployment.restart: replica never crashed"

let audit d nodes =
  (* Closed-loop clients answer from their own request logs, without a
     copy; the drivers' and participants' proposals go into one table. *)
  let by_node = Array.make (n_nodes d) None in
  Array.iter (fun c -> by_node.(Client.node_id c) <- Some c) nodes.clients;
  let others = Ci_rsm.Req_map.create () in
  let add id =
    List.iter (fun (req_id, cmd) -> Ci_rsm.Req_map.replace others ~client:id ~req_id cmd)
  in
  Array.iter
    (fun dr -> add (Open_client.node_id dr) (Open_client.issued dr))
    nodes.drivers;
  (* Participants propose [Prep]/[Fin] as self-requests under their own
     node's identity — as much client input as the clients' commands. *)
  Array.iteri
    (fun g p -> add (entry d g) (Twopc.Participant.issued p))
    nodes.participants;
  let acked f =
    Array.iter (fun c -> Client.iter_acked_writes c f) nodes.clients;
    Array.iter
      (fun dr -> List.iter (fun (node, req_id) -> f node req_id) (Open_client.acked_writes dr))
      nodes.drivers
  in
  let logs =
    List.init d.groups (fun g ->
        Array.to_list (group_members d g)
        |> List.map (fun i ->
               Ci_consensus.Replica_core.log (Protocol.replica_core nodes.replicas.(i))))
  in
  let txns =
    Array.to_list nodes.routers |> List.concat_map Shard.Router.txn_reports
  in
  let issued ~client ~req_id =
    match if client >= 0 && client < Array.length by_node then by_node.(client) else None with
    | Some c -> Client.find_issued c ~req_id
    | None -> Ci_rsm.Req_map.find others ~client ~req_id
  in
  Ci_consensus.Audit.check ~issued ~acked ~logs ~txns

(* ----- publishing --------------------------------------------------------- *)

let lease_reads nodes =
  Array.fold_left (fun acc r -> acc + Protocol.lease_reads r) 0 nodes.replicas

let publish_shard metrics ~prefix d nodes =
  if d.groups > 1 then begin
    let sum f = Array.fold_left (fun a r -> a + f r) 0 nodes.routers in
    Metrics.set_int metrics (prefix ^ "shard.groups") d.groups;
    Metrics.set_int metrics (prefix ^ "shard.forwarded") (sum Shard.Router.forwarded);
    Metrics.set_int metrics (prefix ^ "shard.committed") (sum Shard.Router.committed);
    Metrics.set_int metrics (prefix ^ "shard.aborted") (sum Shard.Router.aborted)
  end

(* Lease and load metric keys exist only when the feature is on, so
   default metric dumps are unchanged. *)
let publish_load metrics ~prefix d ~lease_reads load =
  let set_int key = Metrics.set_int metrics (prefix ^ key) in
  if d.tuning.Protocol.lease > 0 then set_int "lease.reads" lease_reads;
  match load with
  | Some s ->
    let lp = Load_stats.latency_percentiles s in
    let sp = Load_stats.service_percentiles s in
    set_int "load.issued" (Load_stats.issued s);
    set_int "load.completed" (Load_stats.completed s);
    set_int "load.rejected" (Load_stats.rejected s);
    set_int "load.stale_reads" (Load_stats.stale_reads s);
    set_int "load.max_backlog" (Load_stats.max_backlog s);
    Metrics.set_float metrics (prefix ^ "load.throughput") (Load_stats.throughput s);
    set_int "load.p50" lp.Load_stats.p50;
    set_int "load.p99" lp.Load_stats.p99;
    set_int "load.p999" lp.Load_stats.p999;
    set_int "load.service_p50" sp.Load_stats.p50;
    set_int "load.service_p99" sp.Load_stats.p99;
    set_int "load.service_p999" sp.Load_stats.p999
  | None -> ()

(* Fault metric keys exist only under a non-empty nemesis, so
   fault-free metric dumps are unchanged. *)
let publish_failover metrics ~prefix d ~until_ ~dropped ~duplicated ~completions =
  match Ci_faults.first_fault_at d.nemesis with
  | Some fault_at when fault_at >= 0 && fault_at < until_ ->
    Metrics.set_int metrics (prefix ^ "faults.dropped") dropped;
    Metrics.set_int metrics (prefix ^ "faults.duplicated") duplicated;
    let f =
      Ci_obs.Failover.analyze ~completions:(completions ()) ~from_:0 ~fault_at
        ~until_
    in
    Ci_obs.Failover.record metrics f;
    Some f
  | Some _ | None -> None

let timeline ~bucket ~until_ completions =
  let counts = Array.make (until_ / bucket) 0 in
  Array.iter
    (fun t ->
      let b = t / bucket in
      if b < Array.length counts then counts.(b) <- counts.(b) + 1)
    completions;
  Array.map (fun c -> float_of_int c *. 1e9 /. float_of_int bucket) counts
