(** The protocol vocabulary and one uniform replica wrapper.

    Every backend — the simulator runner, the live runtime and the
    model checker — deploys the same five protocol cores. This module
    names them once, parses their CLI names once, builds their configs
    from one set of deployment knobs, and dispatches the per-replica
    operations (handle, start, crash snapshot, recovery, digest,
    counters) over whichever core a node runs. *)

type t = Onepaxos | Multipaxos | Twopc | Mencius | Cheappaxos

val name : t -> string
(** Short lowercase name: ["1paxos"], ["multipaxos"], ["2pc"],
    ["mencius"], ["cheappaxos"]. *)

val of_string : string -> t option
(** Accepts every name above plus the aliases ["onepaxos"],
    ["multi-paxos"] and ["twopc"]. *)

val recoverable : t -> bool
(** 1Paxos and Multi-Paxos: the protocols with durable-state recovery
    ({!stable}/{!recover}), leader leases and a sharded (2PC
    participant) deployment. *)

(** {1 Configuration} *)

type timeouts = {
  suspect : int;
      (** Floor for the failure detectors that suspect a peer: 1Paxos
          acceptor and prepare timeouts, Cheap Paxos acceptor and
          reconfiguration timeouts. *)
  check_period : int;  (** Floor for the 1Paxos / Cheap Paxos check period. *)
  pu : int;  (** Floor for the 1Paxos utility-instance retry timeout. *)
  election : int;  (** Floor for the Multi-Paxos election timeout. *)
}
(** Backend-supplied timeout floors (ns). Each protocol timeout is the
    larger of its default and its floor: the simulator raises them past
    the network round trip, the live runtime past GC pauses and
    scheduling gaps, the explorer keeps the defaults. *)

val no_floors : timeouts
(** All zero: every protocol keeps its default timeouts. *)

type tuning = {
  relaxed_reads : bool;  (** 1Paxos, Multi-Paxos, Mencius. *)
  local_reads : bool;  (** 2PC quiescent local reads. *)
  colocate_acceptor : bool;
      (** 1Paxos: initial acceptor on the leader's node. *)
  batch : int;  (** 1Paxos/Multi-Paxos commands per instance. *)
  batch_delay : int;  (** Partial-batch hold time (ns). *)
  pipeline : int;  (** Batches in flight at the leader ([0] = unbounded). *)
  lease : int;  (** Leader-lease duration (ns); [0] disables leases. *)
  lease_skew : int;  (** Clock-skew margin (ns) off every lease grant. *)
  unsafe_stale_adoption : bool;
      (** 1Paxos test fixture re-seeding a historical bug. *)
  floors : timeouts;
}
(** The deployment knobs a protocol config is built from. *)

val default_tuning : tuning
(** Exactly the protocols' own [default_config] values, with
    {!no_floors}. *)

(** {1 Replicas} *)

type replica =
  | Op of Onepaxos.t
  | Mp of Multipaxos.t
  | Tp of Twopc.t
  | Mn of Mencius.t
  | Cp of Cheap_paxos.t

val create :
  t -> tuning -> replicas:int array -> env:Wire.t Ci_engine.Node_env.t -> replica
(** [create p tuning ~replicas ~env] builds one replica of the group
    [replicas] on the node behind [env]. *)

val handler : replica -> src:int -> Wire.t -> unit
(** The core's own [handle] closure. *)

val start : replica -> unit
(** Bootstraps the roles that start on their own (a no-op for 2PC and
    Mencius). *)

val replica_core : replica -> Replica_core.t
val digest : replica -> int

val leader_changes : replica -> int
(** Leadership transitions this replica saw: applied 1Paxos
    [LeaderChange] entries, Multi-Paxos elections it initiated, Cheap
    Paxos reconfigurations; [0] for 2PC and Mencius. *)

val acceptor_changes : replica -> int
(** Applied 1Paxos [AcceptorChange] entries; [0] for the others. *)

val lease_reads : replica -> int
(** Reads served under an unexpired lease (1Paxos/Multi-Paxos). *)

type stable
(** The durable registers of a {!recoverable} replica. *)

val stable : replica -> stable
(** Raises [Invalid_argument] for a protocol that is not
    {!recoverable}. *)

val recover :
  tuning -> replicas:int array -> env:Wire.t Ci_engine.Node_env.t -> stable -> replica
(** Rebuilds a crashed replica from its durable registers through the
    protocol's own [recover]. *)
