(** One deployment description for every backend.

    A deployment is the node set a run consists of — group-major
    protocol replicas, one router per group when sharded, closed-loop
    clients or open-loop drivers — plus how those nodes are wired
    (client targets, 2PC participants in front of each group's entry
    replica, the handler chain), how the run is audited afterwards, and
    how its service-level metrics are published. The simulator
    ({!Runner}) and the live runtime ([Ci_runtime.Live]) both build
    their nodes here; each supplies only its node environments, its
    clock and scheduler, and its protocol timeout floors.

    Node ids are fixed by the layout: replicas of group [g] are
    [g*R .. (g+1)*R-1], routers (sharded runs only) come next, clients
    last — or, in a joint deployment, every replica node also hosts a
    client. *)

module Protocol = Ci_consensus.Protocol

type open_loop = {
  arrival : Ci_load.Arrival.spec;
      (** Offered-load schedule {e per driver node} — total offered load
          is [rate × clients]. *)
  key_dist : Ci_load.Key_dist.spec;
  key_space : int;
  mix : Ci_load.Open_client.mix;
  range_span : int;  (** Keys per [Range] command. *)
  population : int;  (** Logical clients multiplexed per driver. *)
  sessions : int;  (** Concurrent in-flight requests per driver. *)
}
(** Workload knobs for the open-loop driver; deployment shape (targets,
    timeouts, the measurement window) comes from the deployment. *)

val default_open_loop : open_loop
(** 50k fixed ops/s per driver, uniform keys over 64Ki, 50% reads,
    100k logical clients over 16 sessions. *)

type t = {
  protocol : Protocol.t;
  groups : int;  (** Consensus groups the keyspace is sharded over. *)
  replicas : int;  (** Replicas per group. *)
  clients : int;  (** Client nodes (ignored when [joint]). *)
  joint : bool;  (** Every replica node also hosts a client. *)
  cross_shard_ratio : float;
  tuning : Protocol.tuning;
  timeout : int;  (** Client retry timeout (ns). *)
  think : int;  (** Closed-loop think time (ns). *)
  read_ratio : float;  (** Closed-loop fraction of [Get]s. *)
  key_space : int;  (** Closed-loop key space. *)
  max_requests : int option;  (** Closed-loop per-client budget. *)
  open_loop : open_loop option;
      (** Open-loop drivers instead of closed-loop clients. *)
  nemesis : Ci_faults.t;
}
(** What a backend spec says about the deployment, in one place. *)

val validate : who:string -> ?n_cores:int -> t -> unit
(** Rejects, with [Invalid_argument] prefixed by [who], what no backend
    can deploy: no replicas or clients, [groups < 1], a cross-shard
    or read ratio outside [0, 1], a non-positive client timeout, a
    negative think time, an empty key space, sharding or leases on a protocol that is not
    {!Protocol.recoverable} or combined with relaxed reads or a joint
    placement, open-loop load on a joint placement, a negative lease or
    a skew not below it, a batch below 1, a negative batch delay or
    pipeline window, fewer than two replicas under open-loop load or a
    non-empty nemesis, an invalid nemesis schedule ([n_cores] bounds
    its slow cores), and crash/pause faults on a protocol without
    recovery or a joint placement. *)

(** {1 Layout} *)

val total_replicas : t -> int
val n_routers : t -> int
(** [groups] when sharded, else [0]. *)

val n_nodes : t -> int
(** Replicas, routers and dedicated client nodes. *)

val router_id : t -> int -> int
val client_id : t -> int -> int
(** Node id of client [k] (replica node [k] when joint). *)

val group_of : t -> int -> int
(** Group of replica [i]. *)

val group_members : t -> int -> int array
(** Replica ids of group [g]. *)

val entry : t -> int -> int
(** Group [g]'s entry replica: its initial leader, the node routers
    address, and the home of its 2PC participant. *)

val targets : t -> int array
(** What clients address: the routers when sharded, else the replicas. *)

val primary : t -> int -> int
(** Index into {!targets} client [k] starts at: its router when
    sharded, its Mencius owner, else the leader (0). *)

val client_policy : t -> int -> Client.policy
(** Closed-loop policy of client [k]. *)

val driver_config : t -> open_loop -> stop_at:int -> int -> Ci_load.Open_client.config
(** Open-loop config of driver [k]. *)

(** {1 Nodes} *)

type nodes = {
  replicas : Protocol.replica array;  (** A restart replaces its slot. *)
  participants : Ci_consensus.Twopc.Participant.p array;  (** One per group when sharded. *)
  clients : Client.t array;  (** Empty under open-loop load. *)
  drivers : Ci_load.Open_client.t array;  (** Empty under closed-loop load. *)
  routers : Ci_consensus.Shard.Router.t array;
  snaps : Protocol.stable option array;  (** Durable state of crashed replicas. *)
}

val build :
  t ->
  replica_env:(int -> Ci_consensus.Wire.t Ci_engine.Node_env.t) ->
  env:(int -> Ci_consensus.Wire.t Ci_engine.Node_env.t) ->
  stats:(int -> Run_stats.t) ->
  sink:(int -> Ci_load.Load_stats.t) ->
  stop_at:int ->
  nodes
(** Creates every node object, in this fixed order: replicas, clients
    (or drivers), participants, routers — the order the simulator's
    shared rng is drawn in. [replica_env i] serves replica [i] and its
    group's participant; [env id] serves router and client node ids;
    [stats k] / [sink k] collect client / driver [k]'s measurements;
    drivers stop arriving at [stop_at]. *)

val replica_handler : t -> nodes -> int -> src:int -> Ci_consensus.Wire.t -> unit
(** Replica node [i]'s handler chain: the group's 2PC participant first
    on entry replicas of a sharded run, replies to the co-located
    client on a joint node, everything else to the replica. On a
    single-group dedicated run it is the protocol's own [handle]
    closure. Resolved once: after a restart, ask again. *)

val client_handler : nodes -> int -> src:int -> Ci_consensus.Wire.t -> unit
(** Client or driver [k]'s handler. *)

val start_client : nodes -> int -> unit

val crash : nodes -> int -> unit
(** Snapshot replica [i]'s durable registers. *)

val restart : t -> nodes -> int -> Ci_consensus.Wire.t Ci_engine.Node_env.t -> unit
(** Rebuild replica [i] from its crash snapshot on a fresh environment. *)

val audit :
  t -> nodes -> Ci_rsm.Consistency.report * Ci_rsm.Atomicity.report option
(** {!Ci_consensus.Audit.check} over the nodes' end state. *)

(** {1 Publishing} *)

val lease_reads : nodes -> int

val publish_shard : Ci_obs.Metrics.t -> prefix:string -> t -> nodes -> unit
(** [<prefix>shard.{groups,forwarded,committed,aborted}], sharded runs
    only. *)

val publish_load :
  Ci_obs.Metrics.t ->
  prefix:string ->
  t ->
  lease_reads:int ->
  Ci_load.Load_stats.t option ->
  unit
(** [<prefix>lease.reads] when leases are on, and the open-loop sink
    under [<prefix>load.*]; default runs publish nothing. *)

val publish_failover :
  Ci_obs.Metrics.t ->
  prefix:string ->
  t ->
  until_:int ->
  dropped:int ->
  duplicated:int ->
  completions:(unit -> int array) ->
  Ci_obs.Failover.t option
(** Failover analysis around the nemesis schedule's first fault, when
    its onset falls in [\[0, until_)]: publishes [<prefix>faults.*] and
    [failover.*] and returns the analysis. *)

val timeline : bucket:int -> until_:int -> int array -> float array
(** Commit rate (op/s) per [bucket] ns over [\[0, until_)], full
    buckets only, from completion timestamps. *)
