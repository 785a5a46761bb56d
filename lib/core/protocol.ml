type t = Onepaxos | Multipaxos | Twopc | Mencius | Cheappaxos

let name = function
  | Onepaxos -> "1paxos"
  | Multipaxos -> "multipaxos"
  | Twopc -> "2pc"
  | Mencius -> "mencius"
  | Cheappaxos -> "cheappaxos"

let of_string = function
  | "1paxos" | "onepaxos" -> Some Onepaxos
  | "multipaxos" | "multi-paxos" -> Some Multipaxos
  | "2pc" | "twopc" -> Some Twopc
  | "mencius" -> Some Mencius
  | "cheappaxos" -> Some Cheappaxos
  | _ -> None

let recoverable = function
  | Onepaxos | Multipaxos -> true
  | Twopc | Mencius | Cheappaxos -> false

type timeouts = { suspect : int; check_period : int; pu : int; election : int }

let no_floors = { suspect = 0; check_period = 0; pu = 0; election = 0 }

type tuning = {
  relaxed_reads : bool;
  local_reads : bool;
  colocate_acceptor : bool;
  batch : int;
  batch_delay : int;
  pipeline : int;
  lease : int;
  lease_skew : int;
  unsafe_stale_adoption : bool;
  floors : timeouts;
}

let default_tuning =
  {
    relaxed_reads = false;
    local_reads = false;
    colocate_acceptor = false;
    batch = 1;
    batch_delay = 0;
    pipeline = 0;
    lease = 0;
    lease_skew = 0;
    unsafe_stale_adoption = false;
    floors = no_floors;
  }

type replica =
  | Op of Onepaxos.t
  | Mp of Multipaxos.t
  | Tp of Twopc.t
  | Mn of Mencius.t
  | Cp of Cheap_paxos.t

let op_config tu ~replicas =
  let d = Onepaxos.default_config ~replicas in
  let f = tu.floors in
  {
    d with
    Onepaxos.relaxed_reads = tu.relaxed_reads;
    initial_acceptor =
      (if tu.colocate_acceptor then replicas.(0)
       else replicas.(1 mod Array.length replicas));
    acceptor_timeout = max d.Onepaxos.acceptor_timeout f.suspect;
    prepare_timeout = max d.Onepaxos.prepare_timeout f.suspect;
    check_period = max d.Onepaxos.check_period f.check_period;
    pu_timeout = max d.Onepaxos.pu_timeout f.pu;
    max_batch = tu.batch;
    batch_delay = tu.batch_delay;
    window = tu.pipeline;
    lease = tu.lease;
    lease_skew = tu.lease_skew;
    unsafe_stale_adoption = tu.unsafe_stale_adoption;
  }

let mp_config tu ~replicas =
  let d = Multipaxos.default_config ~replicas in
  {
    d with
    Multipaxos.relaxed_reads = tu.relaxed_reads;
    election_timeout = max d.Multipaxos.election_timeout tu.floors.election;
    max_batch = tu.batch;
    batch_delay = tu.batch_delay;
    window = tu.pipeline;
    lease = tu.lease;
    lease_skew = tu.lease_skew;
  }

let create p tu ~replicas ~env =
  match p with
  | Onepaxos -> Op (Onepaxos.create ~env ~config:(op_config tu ~replicas))
  | Multipaxos -> Mp (Multipaxos.create ~env ~config:(mp_config tu ~replicas))
  | Twopc ->
    let config =
      { (Twopc.default_config ~replicas) with Twopc.local_reads = tu.local_reads }
    in
    Tp (Twopc.create ~env ~config)
  | Mencius ->
    let config =
      {
        (Mencius.default_config ~replicas) with
        Mencius.relaxed_reads = tu.relaxed_reads;
      }
    in
    Mn (Mencius.create ~env ~config)
  | Cheappaxos ->
    let d = Cheap_paxos.default_config ~replicas in
    let f = tu.floors in
    let config =
      {
        d with
        Cheap_paxos.acceptor_timeout = max d.Cheap_paxos.acceptor_timeout f.suspect;
        check_period = max d.Cheap_paxos.check_period f.check_period;
        reconfig_timeout = max d.Cheap_paxos.reconfig_timeout f.suspect;
      }
    in
    Cp (Cheap_paxos.create ~env ~config)

let handler = function
  | Op x -> Onepaxos.handle x
  | Mp x -> Multipaxos.handle x
  | Tp x -> Twopc.handle x
  | Mn x -> Mencius.handle x
  | Cp x -> Cheap_paxos.handle x

let start = function
  | Op x -> Onepaxos.start x
  | Mp x -> Multipaxos.start x
  | Cp x -> Cheap_paxos.start x
  | Tp _ | Mn _ -> ()

let replica_core = function
  | Op x -> Onepaxos.replica_core x
  | Mp x -> Multipaxos.replica_core x
  | Tp x -> Twopc.replica_core x
  | Mn x -> Mencius.replica_core x
  | Cp x -> Cheap_paxos.replica_core x

let digest = function
  | Op x -> Onepaxos.digest x
  | Mp x -> Multipaxos.digest x
  | Tp x -> Twopc.digest x
  | Mn x -> Mencius.digest x
  | Cp x -> Cheap_paxos.digest x

let leader_changes = function
  | Op x -> Onepaxos.leader_changes x
  | Mp x -> Multipaxos.elections x
  | Cp x -> Cheap_paxos.reconfigs x
  | Tp _ | Mn _ -> 0

let acceptor_changes = function
  | Op x -> Onepaxos.acceptor_changes x
  | Mp _ | Tp _ | Mn _ | Cp _ -> 0

let lease_reads = function
  | Op x -> Onepaxos.lease_reads x
  | Mp x -> Multipaxos.lease_reads x
  | Tp _ | Mn _ | Cp _ -> 0

type stable = St_op of Onepaxos.stable | St_mp of Multipaxos.stable

let stable = function
  | Op x -> St_op (Onepaxos.stable x)
  | Mp x -> St_mp (Multipaxos.stable x)
  | Tp _ | Mn _ | Cp _ ->
    invalid_arg "Protocol.stable: protocol has no crash-recovery"

let recover tu ~replicas ~env = function
  | St_op stable ->
    Op (Onepaxos.recover ~env ~config:(op_config tu ~replicas) ~stable)
  | St_mp stable ->
    Mp (Multipaxos.recover ~env ~config:(mp_config tu ~replicas) ~stable)
