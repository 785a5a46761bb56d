module Wire = Ci_consensus.Wire
module Node_env = Ci_engine.Node_env
module Sim_time = Ci_engine.Sim_time
module Rng = Ci_engine.Rng
module Command = Ci_rsm.Command
module Consistency = Ci_rsm.Consistency
module Replica_core = Ci_consensus.Replica_core
module Client = Ci_workload.Client
module Run_stats = Ci_workload.Run_stats
module Metrics = Ci_obs.Metrics
module Summary = Ci_stats.Summary
module Shard = Ci_consensus.Shard
module Atomicity = Ci_rsm.Atomicity
module Protocol = Ci_consensus.Protocol
module Deployment = Ci_workload.Deployment

type protocol = Protocol.t =
  | Onepaxos
  | Multipaxos
  | Twopc
  | Mencius
  | Cheappaxos

type transport = Spsc | Socket

type spec = {
  protocol : protocol;
  n_replicas : int;
  n_clients : int;
  groups : int;
  cross_shard_ratio : float;
  duration_s : float;
  drain_s : float;
  transport : transport;
  queue_slots : int;
  slot_size : int;
  seed : int;
  client_timeout : int;
  think : int;
  read_ratio : float;
  key_space : int;
  outbox_cap : int;
  lease : int;
  lease_skew : int;
  open_loop : Deployment.open_loop option;
  nemesis : Ci_faults.t;
}

let default_spec ~protocol =
  {
    protocol;
    n_replicas = 3;
    n_clients = 2;
    groups = 1;
    cross_shard_ratio = 0.;
    duration_s = 1.0;
    drain_s = 0.2;
    transport = Spsc;
    queue_slots = 64;
    slot_size = 128;
    seed = 42;
    client_timeout = Sim_time.ms 150;
    think = 0;
    read_ratio = 0.;
    key_space = 64;
    outbox_cap = 4096;
    lease = 0;
    lease_skew = 0;
    open_loop = None;
    nemesis = Ci_faults.empty;
  }

let transport_of_string = function
  | "spsc" | "rings" -> Some Spsc
  | "socket" | "sockets" -> Some Socket
  | _ -> None

let transport_name = function Spsc -> "spsc" | Socket -> "socket"

type queue_totals = {
  q_count : int;
  q_msgs : int;
  q_blocked : int;
  q_occupancy_peak : int;
  q_outbox_peak : int;
  q_outbox_dropped : int;
}

type result = {
  spec : spec;
  cores : int;
  wall_s : float;
  ops : int;
  throughput : float;
  latency : Summary.t;
  retries : int;
  leader_changes : int;
  acceptor_changes : int;
  timeline : float array;
  queues : queue_totals;
  full_ring_sends : int array;
      (* per node: sends that found the destination ring full *)
  alloc_words_per_op : float;
      (* words allocated per committed op across replica+router domains *)
  lease_reads : int;
      (* reads served locally under an unexpired lease, summed *)
  load : Ci_load.Load_stats.t option;
      (* open-loop sink pooled over the drivers; Some iff spec.open_loop *)
  consistency : Consistency.report;
  atomicity : Atomicity.report option;
  metrics : Metrics.t;
  failover : Ci_obs.Failover.t option;
}

(* The node-local nemesis: a sorted transition timeline the node's own
   event loop evaluates against the monotonic clock. No controller
   thread, so crash, recovery and message processing can never race —
   the domain that owns the state is the only one that ever kills or
   revives it. *)
type nem_mode = Up | Paused | Down

type nem_ctl = {
  mutable transitions : (int * [ `Crash | `Restart | `Pause | `Resume ]) list;
  mutable mode : nem_mode;
  on_crash : unit -> unit;
      (** Capture the durable registers, discard everything volatile. *)
  on_restart : unit -> unit;
      (** Rebuild the replica through the protocol's [recover]. *)
  mutable crashed_at : int; (* when the last crash was applied, -1: never *)
  mutable restarted_at : int; (* likewise for the last restart *)
}

(* Per-node runtime state. Everything here is owned by the node's
   domain (or, on the socket transport, its process) once spawned; the
   main domain builds it beforehand and reads it back only after the
   joins. All message traffic goes through [tr] — the endpoint hides
   whether the bytes cross SPSC slots or a kernel socket. *)
type node_state = {
  id : int;
  tr : Transport.t;
  selfq : Wire.t Queue.t; (* collapsed-role local deliveries *)
  mutable timers : Timer_wheel.t;
      (* Mutable so a crash can discard every armed timer by swapping in
         a fresh wheel (the environment reads the field per call). *)
  mutable handler : src:int -> Wire.t -> unit;
  (* Sender-side link faults: rules indexed by destination, coin flips
     from this node's own stream. [None] (the fault-free case) keeps the
     send path untouched. *)
  nem_links : Ci_faults.link_rule list array option;
  nem_rng : Rng.t;
  mutable nem : nem_ctl option;
  mutable n_fault_dropped : int;
  mutable n_fault_duplicated : int;
  mutable alloc_bytes : float;
      (* bytes this node's domain allocated over its lifetime, written
         by the domain itself just before it exits *)
}

(* Failure-detection timeouts are wall-clock here: commits take
   microseconds, so these fire only when something is genuinely wedged
   — never because a GC pause or a scheduling gap delayed one reply. *)
let ms = Sim_time.ms

let floors =
  { Protocol.suspect = ms 200; check_period = ms 50; pu = ms 100; election = ms 150 }

(* The live runtime's view of the shared deployment description. *)
let deployment spec =
  {
    Deployment.protocol = spec.protocol;
    groups = spec.groups;
    replicas = spec.n_replicas;
    clients = spec.n_clients;
    joint = false;
    cross_shard_ratio = spec.cross_shard_ratio;
    tuning =
      {
        Protocol.default_tuning with
        Protocol.lease = spec.lease;
        lease_skew = spec.lease_skew;
        floors;
      };
    timeout = spec.client_timeout;
    think = spec.think;
    read_ratio = spec.read_ratio;
    key_space = spec.key_space;
    max_requests = None;
    open_loop = spec.open_loop;
    nemesis = spec.nemesis;
  }

let validate spec =
  if not (Protocol.recoverable spec.protocol) then
    invalid_arg
      (Printf.sprintf "Live.run: the live runtime runs 1paxos and multipaxos, not %s"
         (Protocol.name spec.protocol));
  if spec.n_replicas < 2 then invalid_arg "Live.run: need >= 2 replicas";
  Deployment.validate ~who:"Live.run" (deployment spec);
  if not (spec.duration_s > 0.) then invalid_arg "Live.run: duration_s must be > 0";
  if not (spec.drain_s >= 0.) then invalid_arg "Live.run: drain_s must be >= 0";
  if spec.queue_slots < 1 then invalid_arg "Live.run: queue_slots must be >= 1";
  if
    spec.slot_size < Spsc_bytes.min_slot_size
    || spec.slot_size land (spec.slot_size - 1) <> 0
  then
    invalid_arg
      (Printf.sprintf "Live.run: slot_size must be a power of two >= %d"
         Spsc_bytes.min_slot_size);
  if spec.outbox_cap < 1 then invalid_arg "Live.run: outbox_cap must be >= 1";
  if spec.transport = Socket then begin
    if spec.groups > 1 then
      invalid_arg "Live.run: the socket transport does not shard yet (groups must be 1)";
    if not (Ci_faults.is_empty spec.nemesis) then
      invalid_arg
        "Live.run: nemesis is in-process only; the socket transport gets its \
         faults from the operating system";
    if spec.open_loop <> None then
      invalid_arg
        "Live.run: the open-loop driver is in-process only (socket children \
         run closed-loop clients)"
  end;
  if Ci_faults.slows spec.nemesis <> [] then
    invalid_arg
      "Live.run: nemesis Slow faults are simulator-only (the live runtime \
       cannot throttle a real core); use Pause instead"

let env_for st ~t0 ~seed =
  let now () = Clock.now_ns () - t0 in
  let raw_send ~dst msg = Transport.send st.tr ~dst msg in
  let send ~dst msg =
    if dst = st.id then Queue.push msg st.selfq
    else
      match st.nem_links with
      | None -> raw_send ~dst msg
      | Some rules -> (
        match if dst < Array.length rules then rules.(dst) else [] with
        | [] -> raw_send ~dst msg
        | rules ->
          let t = now () in
          let open Ci_faults in
          let in_window r = t >= r.l_from && t < r.l_until in
          let drop_p, dup_p, extra =
            List.fold_left
              (fun (dr, du, ex) r ->
                if not (in_window r) then (dr, du, ex)
                else
                  match r.l_kind with
                  | L_drop p -> (Float.max dr p, du, ex)
                  | L_dup p -> (dr, Float.max du p, ex)
                  | L_delay d -> (dr, du, ex + d))
              (0., 0., 0) rules
          in
          let deliver () =
            if extra > 0 then
              (* A laggy link holds the message back; timer-wheel order
                 is FIFO among equal deadlines, and real networks may
                 reorder anyway. *)
              Timer_wheel.at st.timers ~deadline:(t + extra) (fun () ->
                  raw_send ~dst msg)
            else raw_send ~dst msg
          in
          if drop_p >= 1. || (drop_p > 0. && Rng.chance st.nem_rng drop_p) then
            st.n_fault_dropped <- st.n_fault_dropped + 1
          else if dup_p >= 1. || (dup_p > 0. && Rng.chance st.nem_rng dup_p)
          then begin
            st.n_fault_duplicated <- st.n_fault_duplicated + 1;
            deliver ();
            deliver ()
          end
          else deliver ())
  in
  {
    Node_env.id = st.id;
    send;
    now;
    after = (fun ~delay f -> Timer_wheel.at st.timers ~deadline:(now () + delay) f);
    after_cancel =
      (fun ~delay f ->
        let tok = Timer_wheel.at_token st.timers ~deadline:(now () + delay) f in
        { Node_env.cancel = (fun () -> Timer_wheel.cancel st.timers tok) });
    rng = Rng.create ~seed;
    note_phase = (fun ~phase:_ -> ());
  }

(* How long to spin on an idle loop before parking. A parked node
   blocks in [Transport.wait] until a peer pushes into one of its rings
   (the sender rings its doorbell futex), or its next timer or nemesis
   transition is due; each hop of a commit costs one wake-up, not a
   sleep's timer slack, and the park itself allocates nothing. A park
   lasts at most [idle_sleep_ns] all the same. That bounds how long
   parked sends wait for a retry (no one signals freed ring slots) and
   how long a node takes to see [stop], and it keeps every vCPU's
   halts short: on a virtual machine a vCPU that stays halted longer
   is descheduled by the host, and waking it then costs a host
   scheduling delay that varies from run to run by more than the
   wake-up itself. The spin is short because on a host
   with fewer cores than domains a spinning node holds the core its
   message's receiver needs, and a hop between two domains on one core
   waits for the spin to run out. A Down/Paused node sleeps until it
   is due to look at its next transition. *)
let spin_budget = 20
let idle_sleep_ns = 50_000
let idle_sleep_s = float_of_int idle_sleep_ns /. 1e9

let rec nem_transitions ctl now =
  match ctl.transitions with
  | (t, tr) :: rest when t <= now ->
    ctl.transitions <- rest;
    (match tr with
    | `Crash ->
      ctl.mode <- Down;
      ctl.crashed_at <- now;
      ctl.on_crash ()
    | `Restart ->
      ctl.mode <- Up;
      ctl.restarted_at <- now;
      ctl.on_restart ()
    | `Pause -> if ctl.mode = Up then ctl.mode <- Paused
    | `Resume -> if ctl.mode = Paused then ctl.mode <- Up);
    nem_transitions ctl now
  | _ -> ()

let rec run_selfq st acc =
  if Queue.is_empty st.selfq then acc
  else begin
    let msg = Queue.pop st.selfq in
    st.handler ~src:st.id msg;
    run_selfq st (acc + 1)
  end

(* The absolute instant a parked node must wake by on its own: its
   earliest timer or nemesis transition, and no later than
   [idle_sleep_ns] from now. *)
let wake_deadline st ~t0 =
  let d = Timer_wheel.next_deadline st.timers in
  let d =
    match st.nem with
    | Some { transitions = (t, _) :: _; _ } -> min d t
    | Some { transitions = []; _ } | None -> d
  in
  let cap = Clock.now_ns () + idle_sleep_ns in
  if d = Ci_engine.Event_queue.no_event then cap else min cap (t0 + d)

(* The hot loop. Deliberately allocation-free on its steady state —
   every helper it calls is a top-level tail-recursive function, the
   only heap traffic is the decoded inbound messages and the selfq
   cells. (The previous incarnation built closures and refs on every
   iteration; at spin rates that WAS the live runtime's allocation
   profile.) *)
let event_loop st ~t0 ~stop ~m_work =
  let idle = ref 0 in
  while not (Atomic.get stop) do
    (* Nemesis transitions due at this instant, applied by the owning
       domain itself — crash/restart never race the handler. *)
    (match st.nem with
    | None -> ()
    | Some ctl -> nem_transitions ctl (Clock.now_ns () - t0));
    match st.nem with
    | Some { mode = Down | Paused; _ } ->
      (* Dead or stopped: touch nothing — inbound queues fill up and the
         senders' capped outboxes absorb (then shed) the backlog, which
         is exactly what a peer of a dead process sees. Sleep instead of
         spinning; the only thing to watch for is the next transition. *)
      Unix.sleepf idle_sleep_s
    | _ ->
      (* 1. Retry parked sends; 2. collapsed-role self deliveries;
         3. drain inbound, budgeted per source; 4. due timers. *)
      let work = Transport.flush st.tr in
      let work = work + run_selfq st 0 in
      let work = work + Transport.drain st.tr st.handler in
      let work =
        work + Timer_wheel.run_due st.timers ~now:(Clock.now_ns () - t0)
      in
      if work > 0 then begin
        idle := 0;
        Metrics.add m_work work
      end
      else begin
        incr idle;
        if !idle <= spin_budget then Domain.cpu_relax ()
        else Transport.wait st.tr ~deadline:(wake_deadline st ~t0)
      end
  done

let fresh_state ~id ~tr ~nem_links ~nem_seed =
  {
    id;
    tr;
    selfq = Queue.create ();
    timers = Timer_wheel.create ();
    handler = (fun ~src:_ _ -> ());
    nem_links;
    nem_rng = Rng.create ~seed:nem_seed;
    nem = None;
    n_fault_dropped = 0;
    n_fault_duplicated = 0;
    alloc_bytes = 0.;
  }

(* Publish the endpoint-side counters, one [(blocked, full_by_kind)]
   pair per node; [full_by_kind] answers "which message kind hit the
   full ring" without a perf run. *)
let record_ring_metrics metrics per_node =
  let full_kinds = Hashtbl.create 8 in
  Array.iteri
    (fun id (blocked, kinds) ->
      Metrics.set_int metrics (Printf.sprintf "live.node%d.full_ring_sends" id) blocked;
      List.iter
        (fun (k, c) ->
          Hashtbl.replace full_kinds k
            (c + Option.value (Hashtbl.find_opt full_kinds k) ~default:0))
        kinds)
    per_node;
  Hashtbl.iter
    (fun k c -> Metrics.set_int metrics ("live.ring.full." ^ k) c)
    full_kinds

(* Bytes the calling domain has allocated so far. [Gc.allocated_bytes]
   is domain-local but counts most of what sits in the minor heap only
   once that heap is emptied, so it falls short by up to a minor heap's
   worth (tens of words per op on a one-second run). [Gc.minor_words]
   is exact at any time, and the major and promoted counts change only
   at collections. *)
let allocated_bytes () =
  let _, promoted, major = Gc.counters () in
  (Gc.minor_words () +. major -. promoted) *. float_of_int (Sys.word_size / 8)

(* Allocation accounting covers the protocol-side nodes (replicas and
   routers, [0 .. client_base-1]): the event-loop hot path the Gc guard
   pins. *)
let alloc_words_per_op ~client_base alloc_bytes ops =
  let bytes = ref 0. in
  for i = 0 to client_base - 1 do
    bytes := !bytes +. alloc_bytes i
  done;
  let words = !bytes /. float_of_int (Sys.word_size / 8) in
  if ops > 0 then words /. float_of_int ops else 0.

(* 1Paxos counts applied [LeaderChange] entries, identical on every
   replica that saw them: take the max. Multi-Paxos counts the
   elections each replica initiated: take the sum. *)
let change_counts protocol counts =
  let max_of f = Array.fold_left (fun acc c -> max acc (f c)) 0 counts in
  let sum_of f = Array.fold_left (fun acc c -> acc + f c) 0 counts in
  ( (match protocol with Multipaxos -> sum_of fst | _ -> max_of fst),
    max_of snd )

(* Wall-clock commit rates over the measured phase, 100 ms buckets
   (full buckets only) — the live twin of [Runner.result.timeline], so
   failover figures can overlay both backends. *)
let timeline ~t_quiesce completions =
  Deployment.timeline ~bucket:100_000_000 ~until_:t_quiesce completions

(* ---------- in-process runner: domains over byte rings ---------- *)

(* Joins every domain before re-raising the first failure, so no
   domain outlives the run that spawned it. *)
let join_all domains =
  let failures =
    Array.map
      (fun d ->
        match Domain.join d with
        | () -> None
        | exception e -> Some (e, Printexc.get_raw_backtrace ()))
      domains
  in
  Array.iter
    (function Some (e, bt) -> Printexc.raise_with_backtrace e bt | None -> ())
    failures

let run_inproc spec =
  let d = deployment spec in
  let n_clients = spec.n_clients in
  let total_replicas = Deployment.total_replicas d in
  let client_base = Deployment.client_id d 0 in
  let n = Deployment.n_nodes d in
  (* The mesh: mesh.(dst).(src) carries src -> dst as encoded bytes. *)
  let mesh =
    Transport.rings_mesh ~n ~slots:spec.queue_slots ~slot_size:spec.slot_size
  in
  let bells = Transport.doorbells n in
  (* Sender-side link rules, per source node. [None] for every node
     when the schedule carries none — the fault-free send path stays
     untouched. *)
  let link_rules_of =
    let all = Ci_faults.link_rules spec.nemesis in
    fun src ->
      if List.for_all (fun r -> r.Ci_faults.l_src <> src) all then None
      else begin
        let per_dst = Array.make n [] in
        List.iter
          (fun r ->
            if r.Ci_faults.l_src = src then
              per_dst.(r.Ci_faults.l_dst) <- r :: per_dst.(r.Ci_faults.l_dst))
          all;
        Array.map_inplace List.rev per_dst;
        Some per_dst
      end
  in
  let states =
    Array.init n (fun id ->
        fresh_state ~id
          ~tr:
            (Transport.rings_endpoint mesh ~id ~outbox_cap:spec.outbox_cap
               ~doorbells:bells)
          ~nem_links:(link_rules_of id)
          ~nem_seed:(spec.nemesis.Ci_faults.seed + (id * 7919)))
  in
  let metrics = Metrics.create () in
  (* Registered before the spawns; incremented from every domain. *)
  let m_work = Metrics.counter metrics "live.events" in
  let t0 = Clock.now_ns () in
  let stop = Atomic.make false in
  let quiesce = Atomic.make false in
  let env_of id = env_for states.(id) ~t0 ~seed:(spec.seed + ((id + 1) * 1_000_003)) in
  (* Each client and driver runs in its own domain with its own sink;
     the sinks are merged after the joins. The open-loop measurement
     window is the whole measured phase. *)
  let client_stats =
    Array.init n_clients (fun _ -> Run_stats.create ~bucket:(ms 10))
  in
  let duration_ns = int_of_float (spec.duration_s *. 1e9) in
  let load_sinks =
    if spec.open_loop = None then [||]
    else
      Array.init n_clients (fun _ ->
          Ci_load.Load_stats.create ~from_:0 ~until_:duration_ns)
  in
  let nodes =
    Deployment.build d ~replica_env:env_of ~env:env_of
      ~stats:(Array.get client_stats) ~sink:(Array.get load_sinks)
      ~stop_at:duration_ns
  in
  for i = 0 to total_replicas - 1 do
    states.(i).handler <- Deployment.replica_handler d nodes i
  done;
  Array.iteri
    (fun j r -> states.(Deployment.router_id d j).handler <- Shard.Router.handle r)
    nodes.Deployment.routers;
  for k = 0 to n_clients - 1 do
    (* Quiesced clients stop consuming replies, so they issue nothing
       new and record nothing outside the measured phase. *)
    let h = Deployment.client_handler nodes k in
    states.(client_base + k).handler <-
      (fun ~src msg -> if not (Atomic.get quiesce) then h ~src msg)
  done;
  (* Nemesis crash/pause timelines, attached per affected replica. The
     closures run inside the replica's own domain (step 0 of its event
     loop); the replica slot a restart rewrites is read by the main
     domain only after the joins. *)
  if not (Ci_faults.is_empty spec.nemesis) then begin
    let per_node = Hashtbl.create 4 in
    let add node t tr =
      Hashtbl.replace per_node node
        ((t, tr) :: Option.value (Hashtbl.find_opt per_node node) ~default:[])
    in
    List.iter
      (fun c ->
        add c.Ci_faults.c_node c.Ci_faults.c_at `Crash;
        Option.iter (fun at -> add c.c_node at `Restart) c.Ci_faults.c_restart)
      (Ci_faults.crashes spec.nemesis);
    List.iter
      (fun p ->
        add p.Ci_faults.p_node p.Ci_faults.p_from `Pause;
        add p.p_node p.Ci_faults.p_until `Resume)
      (Ci_faults.pauses spec.nemesis);
    Hashtbl.iter
      (fun i trs ->
        let st = states.(i) in
        let on_crash () =
          (* The durable registers survive (modeled fsync); the mailbox,
             parked sends, armed timers and the handler die with the
             process. *)
          Deployment.crash nodes i;
          Queue.clear st.selfq;
          Transport.clear_outboxes st.tr;
          st.timers <- Timer_wheel.create ();
          st.handler <- (fun ~src:_ _ -> ())
        in
        let on_restart () =
          st.timers <- Timer_wheel.create ();
          Deployment.restart d nodes i (env_of i);
          st.handler <- Deployment.replica_handler d nodes i
        in
        st.nem <-
          Some
            {
              transitions = List.sort compare trs;
              mode = Up;
              on_crash;
              on_restart;
              crashed_at = -1;
              restarted_at = -1;
            })
      per_node
  end;
  let domains =
    Array.init n (fun i ->
        Domain.spawn (fun () ->
            let a0 = allocated_bytes () in
            (if i < total_replicas then Protocol.start nodes.Deployment.replicas.(i)
             else if i >= client_base then Deployment.start_client nodes (i - client_base));
            event_loop states.(i) ~t0 ~stop ~m_work;
            (* What this node's whole lifetime allocated, written before
               the join so the main domain can read it afterwards. *)
            states.(i).alloc_bytes <- allocated_bytes () -. a0))
  in
  Unix.sleepf spec.duration_s;
  let t_quiesce = Clock.now_ns () - t0 in
  Atomic.set quiesce true;
  Unix.sleepf spec.drain_s;
  Atomic.set stop true;
  join_all domains;
  (* Everything below reads domain-owned state after the joins. *)
  let wall_s = float_of_int t_quiesce /. 1e9 in
  let load =
    if Array.length load_sinks = 0 then None
    else begin
      let pooled = Ci_load.Load_stats.create ~from_:0 ~until_:duration_ns in
      Array.iter (fun s -> Ci_load.Load_stats.merge ~into:pooled s) load_sinks;
      Some pooled
    end
  in
  let ops =
    Array.fold_left
      (fun acc s -> acc + Run_stats.completed_in s ~from_:0 ~until_:t_quiesce)
      0 client_stats
    + (match load with Some s -> Ci_load.Load_stats.completed s | None -> 0)
  in
  let latencies =
    Array.concat
      (Array.to_list
         (Array.map (Run_stats.latencies_in ~from_:0 ~until_:t_quiesce) client_stats))
  in
  let retries =
    Array.fold_left (fun acc c -> acc + Client.retries c) 0 nodes.Deployment.clients
    + (match load with Some s -> Ci_load.Load_stats.retries s | None -> 0)
  in
  let leader_changes, acceptor_changes =
    change_counts spec.protocol
      (Array.map
         (fun r -> (Protocol.leader_changes r, Protocol.acceptor_changes r))
         nodes.Deployment.replicas)
  in
  let queues_total =
    {
      q_count = Transport.mesh_queue_count mesh;
      q_msgs = Transport.mesh_msgs mesh;
      q_blocked =
        Array.fold_left (fun acc s -> acc + Transport.blocked s.tr) 0 states;
      q_occupancy_peak = Transport.mesh_occupancy_peak mesh;
      q_outbox_peak =
        Array.fold_left (fun acc s -> max acc (Transport.outbox_peak s.tr)) 0 states;
      q_outbox_dropped =
        Array.fold_left
          (fun acc s -> acc + Transport.outbox_dropped s.tr)
          0 states;
    }
  in
  let consistency, atomicity = Deployment.audit d nodes in
  let full_ring_sends = Array.map (fun s -> Transport.blocked s.tr) states in
  record_ring_metrics metrics
    (Array.map (fun s -> (Transport.blocked s.tr, Transport.full_by_kind s.tr)) states);
  Metrics.set_int metrics "live.queue.jumbo" (Transport.mesh_jumbo mesh);
  let alloc_words_per_op =
    alloc_words_per_op ~client_base (fun i -> states.(i).alloc_bytes) ops
  in
  Metrics.set_float metrics "live.alloc.words_per_op" alloc_words_per_op;
  Deployment.publish_shard metrics ~prefix:"live." d nodes;
  let lease_reads = Deployment.lease_reads nodes in
  Deployment.publish_load metrics ~prefix:"live." d ~lease_reads load;
  Metrics.set_int metrics "live.ops" ops;
  Metrics.set_int metrics "live.retries" retries;
  Metrics.set_int metrics "live.queue.msgs" queues_total.q_msgs;
  Metrics.set_int metrics "live.queue.blocked" queues_total.q_blocked;
  Metrics.set_int metrics "live.queue.occupancy_peak"
    queues_total.q_occupancy_peak;
  Metrics.set_int metrics "live.queue.outbox_peak" queues_total.q_outbox_peak;
  Metrics.set_int metrics "live.queue.outbox_dropped"
    queues_total.q_outbox_dropped;
  let completions =
    Array.concat
      (Array.to_list
         (Array.map (Run_stats.completions_in ~from_:0 ~until_:t_quiesce) client_stats))
  in
  Summary.sort_ascending completions;
  (* When each crashed replica actually went down and came back, from
     its own loop's clock: the nemesis schedule made observable. *)
  Array.iter
    (fun st ->
      Option.iter
        (fun ctl ->
          let set what at =
            if at >= 0 then
              Metrics.set_int metrics (Printf.sprintf "live.faults.node%d.%s_ns" st.id what) at
          in
          set "crashed_at" ctl.crashed_at;
          set "restarted_at" ctl.restarted_at)
        st.nem)
    states;
  let failover =
    Deployment.publish_failover metrics ~prefix:"live." d ~until_:t_quiesce
      ~dropped:(Array.fold_left (fun acc s -> acc + s.n_fault_dropped) 0 states)
      ~duplicated:(Array.fold_left (fun acc s -> acc + s.n_fault_duplicated) 0 states)
      ~completions:(fun () -> completions)
  in
  {
    spec;
    cores = Domain.recommended_domain_count ();
    wall_s;
    ops;
    throughput = (if wall_s > 0. then float_of_int ops /. wall_s else 0.);
    latency = Summary.of_samples latencies;
    retries;
    leader_changes;
    acceptor_changes;
    timeline = timeline ~t_quiesce completions;
    queues = queues_total;
    full_ring_sends;
    alloc_words_per_op;
    lease_reads;
    load;
    consistency;
    atomicity;
    metrics;
    failover;
  }

(* ---------- socket runner: processes over stream sockets ---------- *)

(* What a child process reports back over its control socket before
   exiting. Plain data throughout, so [Marshal] round-trips it. *)
type harvest = {
  h_view : Wire.value Consistency.replica_view option; (* replicas *)
  h_leader_changes : int;
  h_acceptor_changes : int;
  h_lease_reads : int;
  h_client_node : int; (* clients: env node id *)
  h_issued : (int * Command.t) list;
  h_acked : (int * int) list;
  h_stats : Run_stats.t option;
  h_retries : int;
  h_events : int;
  h_blocked : int;
  h_outbox_dropped : int;
  h_outbox_peak : int;
  h_sent : int;
  h_full_kinds : (string * int) list;
  h_alloc_bytes : float;
}

(* One node of the mesh, running alone in a forked process: same
   node_state, same event loop, same protocol cores — only the
   transport and the phase control differ from the in-process runner.
   The parent drives phases with single control bytes ('q' quiesce,
   's' stop); the child answers with its marshalled harvest. *)
let socket_child spec ~id ~t0 ~fds ~ctl_fd =
  let d = deployment spec in
  let client_base = Deployment.client_id d 0 in
  let stop = Atomic.make false in
  let quiesce = Atomic.make false in
  Unix.set_nonblock ctl_fd;
  let ctl_buf = Bytes.create 1 in
  let ctl () =
    match Unix.read ctl_fd ctl_buf 0 1 with
    | 0 -> Atomic.set stop true (* parent died: shut down *)
    | _ -> (
      match Bytes.get ctl_buf 0 with
      | 'q' -> Atomic.set quiesce true
      | 's' -> Atomic.set stop true
      | _ -> ())
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  in
  (* The control socket is one more descriptor the idle node waits on. *)
  let tr = Transport.socket_endpoint ~id ~fds ~outbox_cap:spec.outbox_cap in
  Transport.watch tr ctl_fd ctl;
  let st =
    fresh_state ~id ~tr ~nem_links:None
      ~nem_seed:(spec.nemesis.Ci_faults.seed + (id * 7919))
  in
  let env = env_for st ~t0 ~seed:(spec.seed + ((id + 1) * 1_000_003)) in
  let replica =
    if id < client_base then
      Some
        (Protocol.create d.Deployment.protocol d.Deployment.tuning
           ~replicas:(Deployment.group_members d 0) ~env)
    else None
  in
  let stats = Run_stats.create ~bucket:(ms 10) in
  let client =
    if id >= client_base then
      Some
        (Client.create ~env ~policy:(Deployment.client_policy d (id - client_base)) ~stats)
    else None
  in
  Option.iter (fun r -> st.handler <- Protocol.handler r) replica;
  Option.iter
    (fun c ->
      st.handler <-
        (fun ~src msg -> if not (Atomic.get quiesce) then Client.handle c ~src msg))
    client;
  let metrics = Metrics.create () in
  let m_work = Metrics.counter metrics "live.events" in
  let a0 = allocated_bytes () in
  (match replica with
  | Some r -> Protocol.start r
  | None -> Option.iter Client.start client);
  event_loop st ~t0 ~stop ~m_work;
  st.alloc_bytes <- allocated_bytes () -. a0;
  let harvest =
    {
      h_view =
        Option.map (fun r -> Replica_core.view (Protocol.replica_core r)) replica;
      h_leader_changes = Option.fold ~none:0 ~some:Protocol.leader_changes replica;
      h_acceptor_changes = Option.fold ~none:0 ~some:Protocol.acceptor_changes replica;
      h_lease_reads = Option.fold ~none:0 ~some:Protocol.lease_reads replica;
      h_client_node =
        (match client with Some c -> Client.node_id c | None -> -1);
      h_issued = (match client with Some c -> Client.issued c | None -> []);
      h_acked =
        (match client with Some c -> Client.acked_writes c | None -> []);
      h_stats = (match client with Some _ -> Some stats | None -> None);
      h_retries = (match client with Some c -> Client.retries c | None -> 0);
      h_events = Metrics.counter_value m_work;
      h_blocked = Transport.blocked tr;
      h_outbox_dropped = Transport.outbox_dropped tr;
      h_outbox_peak = Transport.outbox_peak tr;
      h_sent = Transport.sent tr;
      h_full_kinds = Transport.full_by_kind tr;
      h_alloc_bytes = st.alloc_bytes;
    }
  in
  Unix.clear_nonblock ctl_fd;
  let oc = Unix.out_channel_of_descr ctl_fd in
  Marshal.to_channel oc harvest [];
  flush oc

let run_socket spec =
  let d = deployment spec in
  let client_base = Deployment.client_id d 0 in
  let n = Deployment.n_nodes d in
  (* One stream socketpair per unordered pair of nodes, plus a control
     pair per node. All created before any fork, so every process
     inherits exactly the descriptors it needs and closes the rest. *)
  let mesh_fds = Array.init n (fun _ -> Array.make n None) in
  for i = 0 to n - 1 do
    for j = 0 to i - 1 do
      let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      mesh_fds.(i).(j) <- Some a;
      mesh_fds.(j).(i) <- Some b
    done
  done;
  let ctl = Array.init n (fun _ -> Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0) in
  let old_sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let t0 = Clock.now_ns () in
  flush stdout;
  flush stderr;
  let pids =
    Array.init n (fun id ->
        match Unix.fork () with
        | 0 ->
          (try
             for i = 0 to n - 1 do
               if i <> id then
                 Array.iter (Option.iter Unix.close) mesh_fds.(i)
             done;
             Array.iteri
               (fun j (pfd, cfd) ->
                 Unix.close pfd;
                 if j <> id then Unix.close cfd)
               ctl;
             socket_child spec ~id ~t0 ~fds:mesh_fds.(id)
               ~ctl_fd:(snd ctl.(id))
           with _ -> Unix._exit 2);
          Unix._exit 0
        | pid -> pid)
  in
  Array.iter (fun row -> Array.iter (Option.iter Unix.close) row) mesh_fds;
  Array.iter (fun (_, cfd) -> Unix.close cfd) ctl;
  let phase_byte c =
    let b = Bytes.make 1 c in
    Array.iter
      (fun (pfd, _) ->
        try ignore (Unix.write pfd b 0 1)
        with Unix.Unix_error ((EPIPE | ECONNRESET | EBADF), _, _) -> ())
      ctl
  in
  Unix.sleepf spec.duration_s;
  let t_quiesce = Clock.now_ns () - t0 in
  phase_byte 'q';
  Unix.sleepf spec.drain_s;
  phase_byte 's';
  let harvests =
    Array.map
      (fun (pfd, _) ->
        let ic = Unix.in_channel_of_descr pfd in
        match (Marshal.from_channel ic : harvest) with
        | h -> h
        | exception End_of_file ->
          failwith "Live.run: a socket-transport child died before reporting")
      ctl
  in
  Array.iter (fun pid -> ignore (Unix.waitpid [] pid)) pids;
  Array.iter (fun (pfd, _) -> try Unix.close pfd with Unix.Unix_error _ -> ()) ctl;
  Sys.set_signal Sys.sigpipe old_sigpipe;
  (* Assembly: the same checks and shapes as the in-process runner,
     over the children's reports. *)
  let wall_s = float_of_int t_quiesce /. 1e9 in
  let client_harvests =
    Array.to_list harvests |> List.filteri (fun i _ -> i >= client_base)
  in
  let client_stats = List.filter_map (fun h -> h.h_stats) client_harvests in
  let ops =
    List.fold_left
      (fun acc s -> acc + Run_stats.completed_in s ~from_:0 ~until_:t_quiesce)
      0 client_stats
  in
  let latencies =
    Array.concat (List.map (Run_stats.latencies_in ~from_:0 ~until_:t_quiesce) client_stats)
  in
  let retries =
    List.fold_left (fun acc h -> acc + h.h_retries) 0 client_harvests
  in
  let leader_changes, acceptor_changes =
    change_counts spec.protocol
      (Array.map (fun h -> (h.h_leader_changes, h.h_acceptor_changes)) harvests)
  in
  let queues_total =
    {
      q_count = n * (n - 1);
      q_msgs = Array.fold_left (fun acc h -> acc + h.h_sent) 0 harvests;
      q_blocked = Array.fold_left (fun acc h -> acc + h.h_blocked) 0 harvests;
      q_occupancy_peak = 0; (* kernel-owned on this transport *)
      q_outbox_peak =
        Array.fold_left (fun acc h -> max acc h.h_outbox_peak) 0 harvests;
      q_outbox_dropped =
        Array.fold_left (fun acc h -> acc + h.h_outbox_dropped) 0 harvests;
    }
  in
  let issued = Ci_rsm.Req_map.create () in
  List.iter
    (fun h ->
      List.iter
        (fun (req_id, cmd) ->
          Ci_rsm.Req_map.replace issued ~client:h.h_client_node ~req_id cmd)
        h.h_issued)
    client_harvests;
  let consistency, _ =
    Ci_consensus.Audit.check ~issued:(Ci_rsm.Req_map.find issued)
      ~acked:(fun f ->
        List.iter (fun h -> List.iter (fun (c, r) -> f c r) h.h_acked) client_harvests)
      ~logs:
        [
          Array.to_list harvests
          |> List.filter_map (fun h -> Option.map Consistency.log_of_view h.h_view);
        ]
      ~txns:[]
  in
  let metrics = Metrics.create () in
  let m_work = Metrics.counter metrics "live.events" in
  Metrics.add m_work (Array.fold_left (fun acc h -> acc + h.h_events) 0 harvests);
  record_ring_metrics metrics
    (Array.map (fun h -> (h.h_blocked, h.h_full_kinds)) harvests);
  let alloc_words_per_op =
    alloc_words_per_op ~client_base (fun i -> harvests.(i).h_alloc_bytes) ops
  in
  Metrics.set_float metrics "live.alloc.words_per_op" alloc_words_per_op;
  Metrics.set_int metrics "live.ops" ops;
  Metrics.set_int metrics "live.retries" retries;
  Metrics.set_int metrics "live.queue.msgs" queues_total.q_msgs;
  Metrics.set_int metrics "live.queue.blocked" queues_total.q_blocked;
  Metrics.set_int metrics "live.queue.outbox_peak" queues_total.q_outbox_peak;
  Metrics.set_int metrics "live.queue.outbox_dropped"
    queues_total.q_outbox_dropped;
  let completions =
    Array.concat (List.map (Run_stats.completions_in ~from_:0 ~until_:t_quiesce) client_stats)
  in
  Summary.sort_ascending completions;
  {
    spec;
    cores = Domain.recommended_domain_count ();
    wall_s;
    ops;
    throughput = (if wall_s > 0. then float_of_int ops /. wall_s else 0.);
    latency = Summary.of_samples latencies;
    retries;
    leader_changes;
    acceptor_changes;
    timeline = timeline ~t_quiesce completions;
    queues = queues_total;
    full_ring_sends = Array.map (fun h -> h.h_blocked) harvests;
    alloc_words_per_op;
    lease_reads =
      Array.fold_left (fun acc h -> acc + h.h_lease_reads) 0 harvests;
    load = None;
    consistency;
    atomicity = None;
    metrics;
    failover = None;
  }

external set_timer_slack : int -> unit = "ci_set_timer_slack" [@@noalloc]

(* Each run starts from a collected heap. Otherwise the garbage of the
   previous run in the same process is collected during this one: its
   domains share that work, and the heap grows from run to run.

   Timed waits get 1 ns of timer slack. Linux lets a timed sleep end up
   to the thread's slack late (50 µs by default), and a parked node's
   deadline, like an open-loop driver's next arrival, is exactly such a
   sleep. Node domains and socket children inherit the slack from the
   thread that spawns or forks them, so it is set here, before either. *)
let run spec =
  validate spec;
  Gc.full_major ();
  set_timer_slack 1;
  match spec.transport with Spsc -> run_inproc spec | Socket -> run_socket spec
