(* consensus_sim: command-line front-end to the simulator and the live
   runtime.

   [run], [live], [load] and [nemesis] describe one deployment ([deploy])
   with one definition per shared flag, convert it to a [Runner.spec] or
   a [Live.spec] in one place per backend, and leave validation to the
   library: every spec a backend rejects is one line on stderr and exit
   1 ([guard]). [figures] regenerates the paper's tables and figures
   (same sections as bench/main.exe); [explore] model-checks a small
   configuration. *)

open Cmdliner
open Cmdliner.Term.Syntax
module Protocol = Ci_consensus.Protocol
module Runner = Ci_workload.Runner
module Live = Ci_runtime.Live
module E = Ci_workload.Experiments
module Sim_time = Ci_engine.Sim_time
module Topology = Ci_machine.Topology
module Net_params = Ci_machine.Net_params
module Consistency = Ci_rsm.Consistency
module LS = Ci_load.Load_stats

(* ----- value parsers ------------------------------------------------------ *)

let protocol_conv =
  let parse s =
    match Protocol.of_string s with
    | Some p -> Ok p
    | None ->
      Error
        (`Msg
           (Printf.sprintf
              "unknown protocol %S (1paxos|multipaxos|2pc|mencius|cheappaxos)" s))
  in
  let print fmt p = Format.pp_print_string fmt (Protocol.name p) in
  Arg.conv (parse, print)

let topology_conv =
  let parse s =
    match s with
    | "48" | "opteron48" -> Ok Topology.opteron_48
    | "8" | "opteron8" -> Ok Topology.opteron_8
    | s ->
      (match String.split_on_char 'x' s with
       | [ a; b ] ->
         (try Ok (Topology.create ~sockets:(int_of_string a) ~cores_per_socket:(int_of_string b))
          with _ -> Error (`Msg "topology: expected 48, 8 or SOCKETSxCORES"))
       | _ -> Error (`Msg "topology: expected 48, 8 or SOCKETSxCORES"))
  in
  Arg.conv (parse, Topology.pp)

let net_conv =
  let parse = function
    | "multicore" -> Ok Net_params.multicore
    | "lan" -> Ok Net_params.lan
    | "lan-wide" -> Ok Net_params.lan_wide
    | "rdma" -> Ok Net_params.rdma
    | s ->
      Error
        (`Msg (Printf.sprintf "unknown network %S (multicore|lan|lan-wide|rdma)" s))
  in
  Arg.conv (parse, Net_params.pp)

let transport_conv =
  let parse s =
    match Live.transport_of_string s with
    | Some t -> Ok t
    | None -> Error (`Msg (Printf.sprintf "unknown transport %S (spsc|socket)" s))
  in
  let print fmt t = Format.pp_print_string fmt (Live.transport_name t) in
  Arg.conv (parse, print)

let key_dist_conv =
  let parse s =
    match String.split_on_char ':' s with
    | [ "uniform" ] -> Ok Ci_load.Key_dist.Uniform
    | [ "zipf"; theta ] ->
      (try Ok (Ci_load.Key_dist.Zipf (float_of_string theta))
       with _ -> Error (`Msg "key-dist: expected zipf:THETA"))
    | [ "hotkey"; hot; spread ] ->
      (try
         Ok
           (Ci_load.Key_dist.Hotkey
              { hot = float_of_string hot; spread = float_of_string spread })
       with _ -> Error (`Msg "key-dist: expected hotkey:HOT:SPREAD"))
    | _ ->
      Error
        (`Msg
           (Printf.sprintf
              "unknown key distribution %S (uniform|zipf:THETA|hotkey:HOT:SPREAD)" s))
  in
  Arg.conv (parse, Ci_load.Key_dist.pp_spec)

(* Nemesis flag parsers: each flag value is one [Ci_faults.fault] in a
   colon-separated format (times in ms from the start of the run). *)
let nem_conv ~expect parse =
  let parse s =
    match parse (String.split_on_char ':' s) with
    | Some f -> Ok f
    | None -> Error (`Msg ("expected " ^ expect))
    | exception _ -> Error (`Msg ("expected " ^ expect))
  in
  Arg.conv (parse, Ci_faults.pp_fault)

let ms s = Sim_time.ms (int_of_string s)

let crash_conv =
  nem_conv ~expect:"NODE:AT_MS[:DOWN_MS]" (fun fields ->
      let crash node at down_for =
        Some (Ci_faults.Crash { node = int_of_string node; at = ms at; down_for })
      in
      match fields with
      | [ node; at ] -> crash node at None
      | [ node; at; down ] -> crash node at (Some (ms down))
      | _ -> None)

let pause_conv =
  nem_conv ~expect:"NODE:FROM_MS:UNTIL_MS" (function
    | [ node; from_; until_ ] ->
      Some
        (Ci_faults.Pause
           { node = int_of_string node; from_ = ms from_; until_ = ms until_ })
    | _ -> None)

let link_p_conv kind =
  nem_conv ~expect:"SRC:DST:FROM_MS:UNTIL_MS:P" (function
    | [ src; dst; from_; until_; p ] ->
      let src = int_of_string src and dst = int_of_string dst in
      let from_ = ms from_ and until_ = ms until_ and p = float_of_string p in
      Some
        (match kind with
         | `Drop -> Ci_faults.Drop { src; dst; from_; until_; p }
         | `Dup -> Ci_faults.Duplicate { src; dst; from_; until_; p })
    | _ -> None)

let delay_conv =
  nem_conv ~expect:"SRC:DST:FROM_MS:UNTIL_MS:EXTRA_US" (function
    | [ src; dst; from_; until_; extra ] ->
      Some
        (Ci_faults.Delay
           {
             src = int_of_string src;
             dst = int_of_string dst;
             from_ = ms from_;
             until_ = ms until_;
             extra = Sim_time.us (int_of_string extra);
           })
    | _ -> None)

let partition_conv =
  nem_conv ~expect:"FROM_MS:UNTIL_MS:GROUPS (e.g. 10:20:0/1,2)" (function
    | [ from_; until_; groups ] ->
      let group g = List.map int_of_string (String.split_on_char ',' g) in
      Some
        (Ci_faults.Partition
           {
             groups = List.map group (String.split_on_char '/' groups);
             from_ = ms from_;
             until_ = ms until_;
           })
    | _ -> None)

let slow_conv =
  nem_conv ~expect:"CORE:FROM_MS:UNTIL_MS:FACTOR" (function
    | [ core; from_; until_; factor ] ->
      Some
        (Ci_faults.Slow
           {
             core = int_of_string core;
             from_ = ms from_;
             until_ = ms until_;
             factor = float_of_string factor;
           })
    | _ -> None)

(* ----- one definition per shared flag ------------------------------------ *)

let backend =
  Arg.(
    value
    & opt (enum [ ("sim", `Sim); ("live", `Live) ]) `Sim
    & info [ "backend" ]
        ~doc:
          "Backend: $(b,sim) (the discrete-event simulator: virtual time, \
           deterministic) or $(b,live) (OCaml 5 domains over shared-memory \
           byte rings).")

(* The backend of a command that has no [--backend] flag. *)
let on_sim = Term.const `Sim
let on_live = Term.const `Live

let int_opt names default doc = Arg.(value & opt int default & info names ~doc)
let float_opt names default doc = Arg.(value & opt float default & info names ~doc)
let flag names doc = Arg.(value & flag & info names ~doc)

let protocol =
  Arg.(
    value & opt protocol_conv Protocol.Onepaxos
    & info [ "p"; "protocol" ]
        ~doc:
          "Protocol: 1paxos, multipaxos, 2pc, mencius or cheappaxos. The live \
           runtime runs 1paxos and multipaxos.")

let replicas = int_opt [ "r"; "replicas" ] 3 "Replicas per consensus group."

(* An integer flag whose default may differ on the live backend: nemesis
   runs 5 clients for 50 ms on the simulator and 2 for 1.2 s live. *)
let int_flag names ~doc ?live default backend =
  let live = Option.value live ~default in
  let none =
    if live = default then string_of_int default
    else Printf.sprintf "%d sim, %d live" default live
  in
  let+ v = Arg.(value & opt (some ~none int) None & info names ~doc)
  and+ backend = backend in
  match (v, backend) with
  | Some v, _ -> v
  | None, `Sim -> default
  | None, `Live -> live

let clients =
  int_flag [ "c"; "clients" ]
    ~doc:
      "Client nodes. Under $(b,load) each runs one open-loop driver, so the \
       total offered load is $(b,--rate) times this."

let duration_ms = int_flag [ "d"; "duration-ms" ] ~doc:"Measurement window (ms)."

let groups =
  int_opt [ "g"; "groups" ] 1
    "Consensus groups the keyspace is sharded over (1paxos or multipaxos, \
     dedicated placement), each with its own replicas and router node. Fault \
     node indices range over the $(b,groups * replicas) replicas, group-major."

let cross_shard =
  float_opt [ "cross-shard-ratio" ] 0.
    "Fraction of commands that are cross-shard multi-puts, run as 2PC over the \
     owning groups."

let seed =
  int_opt [ "seed" ] 42
    "Random seed: per-node streams, arrival gaps, key draws and the fault \
     schedule's coin flips derive from it."

let default_warmup_ms = 5

let warmup =
  int_opt [ "warmup-ms" ] default_warmup_ms "Warm-up before measuring (ms; simulator only)."

let read_ratio = float_opt [ "read-ratio" ] 0. "Fraction of read commands."
let think = int_opt [ "think-us" ] 0 "Client think time between requests (us)."

let slow_cores =
  Arg.(
    value & opt_all slow_conv []
    & info [ "slow-core" ] ~docv:"CORE:FROM_MS:UNTIL_MS:FACTOR"
        ~doc:
          "Slow core $(i,CORE) by $(i,FACTOR) for the window (simulator only; \
           $(i,FACTOR) $(b,inf) stops the core). Repeatable.")

let metrics_out =
  Arg.(
    value & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:"Write the run's metrics registry as a flat JSON object to $(docv).")

(* ----- one deployment, two backends --------------------------------------- *)

(* What a deployment command describes, whichever backend runs it. The
   measurement window stays outside: [live] sets it in seconds, the
   others in milliseconds. *)
type deploy = {
  protocol : Protocol.t;
  replicas : int;
  clients : int;
  groups : int;
  cross_shard : float;
  seed : int;
  warmup_ms : int;  (** Simulator only. *)
  lease_us : int;
  lease_skew_us : int;
  open_loop : Runner.open_loop option;
  faults : Ci_faults.fault list;
}

(* The flags every deployment command has; [load] is not sharded. *)
let deploy ?(sharded = true) ?live_clients ~clients:n backend =
  let+ protocol = protocol
  and+ replicas = replicas
  and+ clients = clients ?live:live_clients n backend
  and+ groups = if sharded then groups else Term.const 1
  and+ cross_shard = if sharded then cross_shard else Term.const 0.
  and+ seed = seed in
  {
    protocol;
    replicas;
    clients;
    groups;
    cross_shard;
    seed;
    warmup_ms = default_warmup_ms;
    lease_us = 0;
    lease_skew_us = 0;
    open_loop = None;
    faults = [];
  }

let sim_spec d ~duration_ms =
  {
    (Runner.default_spec ~protocol:d.protocol
       ~placement:(Runner.Dedicated { n_replicas = d.replicas; n_clients = d.clients }))
    with
    Runner.groups = d.groups;
    cross_shard_ratio = d.cross_shard;
    duration = Sim_time.ms duration_ms;
    warmup = Sim_time.ms d.warmup_ms;
    seed = d.seed;
    lease = Sim_time.us d.lease_us;
    lease_skew = Sim_time.us d.lease_skew_us;
    open_loop = d.open_loop;
    nemesis = { Ci_faults.seed = d.seed; faults = d.faults };
  }

let live_spec d ~duration_s =
  {
    (Live.default_spec ~protocol:d.protocol) with
    Live.n_replicas = d.replicas;
    n_clients = d.clients;
    groups = d.groups;
    cross_shard_ratio = d.cross_shard;
    duration_s;
    seed = d.seed;
    lease = d.lease_us * 1_000;
    lease_skew = d.lease_skew_us * 1_000;
    open_loop = d.open_loop;
    nemesis = { Ci_faults.seed = d.seed; faults = d.faults };
  }

(* What the verdict reads from either backend's result. *)
type outcome = {
  consistency : Consistency.report;
  atomicity : Ci_rsm.Atomicity.report option;
  load : LS.t option;
  lease_reads : int;
  failover : Ci_obs.Failover.t option;
}

let of_sim (r : Runner.result) =
  {
    consistency = r.consistency;
    atomicity = r.atomicity;
    load = r.load;
    lease_reads = r.lease_reads;
    failover = r.failover;
  }

let of_live (r : Live.result) =
  {
    consistency = r.consistency;
    atomicity = r.atomicity;
    load = r.load;
    lease_reads = r.lease_reads;
    failover = r.failover;
  }

(* The one pass/fail verdict: every group's log is consistent,
   cross-shard transactions are atomic and no session read was stale. *)
let passed o =
  Consistency.ok o.consistency
  && (match o.atomicity with Some a -> Ci_rsm.Atomicity.ok a | None -> true)
  && match o.load with Some s -> LS.stale_reads s = 0 | None -> true

let exit_code o = if passed o then 0 else 1

let print_atomicity = function
  | Some a -> Format.printf "atomicity: %a@." Ci_rsm.Atomicity.pp a
  | None -> ()

let print_sim (r : Runner.result) =
  Format.printf "%a@." Runner.pp_result r;
  print_atomicity r.atomicity

(* Run [d] on [backend], let [sim] or [live] print that backend's own
   lines, and return what the verdict reads. *)
let run_on backend d ~duration_ms ~sim ~live =
  match backend with
  | `Sim ->
    let r = Runner.run (sim_spec d ~duration_ms) in
    sim r;
    of_sim r
  | `Live ->
    let r = Live.run (live_spec d ~duration_s:(float_of_int duration_ms /. 1000.)) in
    live r;
    of_live r

let write_file path contents =
  Out_channel.with_open_text path (fun oc -> output_string oc contents);
  Format.printf "wrote %s@." path

(* Every deployment command runs through here: a spec the library
   rejects is one line on stderr and exit 1, and a host that cannot
   provide the socket transport's sockets or processes is exit 3, a
   skip. *)
let guard run =
  match run () with
  | code -> code
  | exception Invalid_argument m ->
    Format.eprintf "%s@." m;
    1
  | exception
      Unix.Unix_error
        ( (( Unix.EPERM | Unix.EACCES | Unix.ENOSYS | Unix.EAFNOSUPPORT
           | Unix.EPROTONOSUPPORT | Unix.EMFILE | Unix.ENFILE | Unix.EAGAIN
           | Unix.ENOMEM ) as e),
          fn,
          _ ) ->
    Format.eprintf "live: socket transport unavailable on this host (%s: %s); skipping@."
      fn (Unix.error_message e);
    3

let deployment_cmd name ~doc term = Cmd.v (Cmd.info name ~doc) (Term.map guard term)

(* ----- run ---------------------------------------------------------------- *)

let run_cmd =
  let trace_format =
    Arg.(
      value
      & opt (enum [ ("chrome", `Chrome); ("jsonl", `Jsonl) ]) `Chrome
      & info [ "trace-format" ] ~docv:"FMT"
          ~doc:
            "Trace format: $(b,chrome) (load in ui.perfetto.dev) or $(b,jsonl) \
             (one JSON object per line).")
  in
  let term =
    let+ d = deploy ~clients:5 on_sim
    and+ duration_ms = duration_ms 50 on_sim
    and+ warmup_ms = warmup
    and+ faults = slow_cores
    and+ joint =
      flag [ "joint" ]
        "Joint deployment: every node is replica and client; $(b,--replicas) \
         sets the node count."
    and+ read_ratio = read_ratio
    and+ think = think
    and+ timeout = int_opt [ "timeout-us" ] 2000 "Client retry timeout (us)."
    and+ topology =
      Arg.(
        value
        & opt topology_conv Topology.opteron_48
        & info [ "topology" ] ~doc:"Machine: 48, 8 or SOCKETSxCORES.")
    and+ net =
      Arg.(
        value & opt net_conv Net_params.multicore
        & info [ "net" ] ~doc:"Network preset: multicore, lan, lan-wide or rdma.")
    and+ relaxed_reads =
      flag [ "relaxed-reads" ] "Serve marked reads from local learner state (stale allowed)."
    and+ local_reads = flag [ "local-reads" ] "2PC-Joint: serve unlocked reads locally."
    and+ colocate_acceptor =
      flag [ "colocate-acceptor" ] "1Paxos: put the initial acceptor on the leader's node."
    and+ batch =
      int_opt [ "batch" ] 1
        "1Paxos/Multi-Paxos: commands per batched consensus instance (1 = the \
         paper's protocol)."
    and+ batch_delay =
      int_opt [ "batch-delay-us" ] 5 "How long the leader holds a partial batch (us)."
    and+ pipeline =
      int_opt [ "pipeline" ] 0
        "Max batches in flight at the leader (0 = unbounded, as in the paper)."
    and+ coalesce =
      int_opt [ "coalesce" ] 1
        "Receive-coalescing budget: messages drained per reception charge (1 = \
         uncoalesced)."
    and+ timeline = flag [ "timeline" ] "Also print per-10ms commit rates."
    and+ trace_out =
      Arg.(
        value & opt (some string) None
        & info [ "trace-out" ] ~docv:"FILE"
            ~doc:"Record typed trace events and write them to $(docv).")
    and+ trace_format = trace_format
    and+ metrics_out = metrics_out in
    fun () ->
      let ring = Option.map (fun _ -> Ci_obs.Event.create_ring ()) trace_out in
      let base = sim_spec { d with warmup_ms; faults } ~duration_ms in
      let spec =
        {
          base with
          Runner.placement =
            (if joint then Runner.Joint { n_nodes = d.replicas } else base.placement);
          read_ratio;
          think = Sim_time.us think;
          timeout = Sim_time.us timeout;
          topology;
          params = { net with Net_params.coalesce };
          relaxed_reads;
          local_reads;
          colocate_acceptor;
          batch;
          batch_delay = Sim_time.us batch_delay;
          pipeline;
          trace = ring;
        }
      in
      let r = Runner.run spec in
      print_sim r;
      if timeline then begin
        Format.printf "timeline (op/s per 10ms bucket):@.";
        Array.iteri (fun i x -> Format.printf "  %4dms %10.0f@." (i * 10) x) r.timeline
      end;
      (match (trace_out, ring) with
       | Some path, Some ring ->
         write_file path
           (match trace_format with
            | `Chrome -> Ci_obs.Event.to_chrome ring
            | `Jsonl -> Ci_obs.Event.to_jsonl ring);
         if Ci_obs.Event.dropped ring > 0 then
           Format.printf "note: ring capacity exceeded, %d oldest events dropped@."
             (Ci_obs.Event.dropped ring)
       | _ -> ());
      Option.iter (fun path -> write_file path (Ci_obs.Metrics.to_json r.metrics)) metrics_out;
      exit_code (of_sim r)
  in
  deployment_cmd "run" ~doc:"Run one experiment and print its measurements." term

(* ----- live --------------------------------------------------------------- *)

let live_cmd =
  let term =
    let+ d = deploy ~clients:2 on_live
    and+ transport =
      Arg.(
        value & opt transport_conv Live.Spsc
        & info [ "transport" ]
            ~doc:
              "Transport: $(b,spsc) (domains over shared-memory byte rings, the \
               default) or $(b,socket) (one process per node over stream sockets).")
    and+ duration_s =
      float_opt [ "d"; "duration-s" ] 1.0 "Measured wall-clock phase (seconds)."
    and+ drain_s =
      float_opt [ "drain-s" ] 0.2 "Quiesce phase before stopping the domains (seconds)."
    and+ queue_slots =
      int_opt [ "ring-cap"; "queue-slots" ] 64
        "Ring capacity per ordered node pair, in slots. Raising it relieves \
         full-ring back-pressure (see the per-node full-ring sends the run \
         prints)."
    and+ slot_size =
      int_opt [ "slot-size" ] 128
        "Bytes per ring slot — a power of two, at least 32. Every non-batch \
         message fits one 128-byte slot; batch messages spill over consecutive \
         slots."
    and+ timeout_ms =
      int_opt [ "timeout-ms" ] 150
        "Client retry timeout (ms). Keep generous on oversubscribed hosts."
    and+ read_ratio = read_ratio
    and+ think = think
    and+ metrics_out = metrics_out in
    fun () ->
      let r =
        Live.run
          {
            (live_spec d ~duration_s) with
            Live.drain_s;
            transport;
            queue_slots;
            slot_size;
            client_timeout = timeout_ms * 1_000_000;
            think = think * 1_000;
            read_ratio;
          }
      in
      Format.printf "live %s (%s): %d replica + %d router + %d client %s on %d cores@."
        (Protocol.name d.protocol) (Live.transport_name transport)
        (d.groups * d.replicas)
        (if d.groups = 1 then 0 else d.groups)
        d.clients
        (match transport with Live.Spsc -> "domains" | Live.Socket -> "processes")
        r.cores;
      Format.printf "  measured %.3fs  ops %d  throughput %.0f op/s@." r.wall_s r.ops
        r.throughput;
      Format.printf "  latency %a@." Ci_stats.Summary.pp r.latency;
      Format.printf "  retries %d  leader-changes %d  acceptor-changes %d@." r.retries
        r.leader_changes r.acceptor_changes;
      let q = r.queues in
      Format.printf "  queues %d  msgs %d  full-ring sends %d  occupancy-peak %d/%d@."
        q.q_count q.q_msgs q.q_blocked q.q_occupancy_peak queue_slots;
      Format.printf "  full-ring sends per node: %s@."
        (String.concat " "
           (Array.to_list
              (Array.mapi (fun i b -> Printf.sprintf "n%d:%d" i b) r.full_ring_sends)));
      Format.printf "  alloc %.0f words/op (replica+router domains)@."
        r.alloc_words_per_op;
      Format.printf "%a@." Consistency.pp r.consistency;
      print_atomicity r.atomicity;
      Option.iter (fun path -> write_file path (Ci_obs.Metrics.to_json r.metrics)) metrics_out;
      exit_code (of_live r)
  in
  deployment_cmd "live"
    ~doc:
      "Run the protocol cores for real: OCaml 5 domains over shared-memory byte \
       rings, or one process per node over sockets ($(b,--transport socket))."
    term

(* ----- load --------------------------------------------------------------- *)

let print_sink ~offered ~lease_us ~lease_reads (sink : LS.t) =
  let us ns = float_of_int ns /. 1e3 in
  let lp = LS.latency_percentiles sink in
  let sp = LS.service_percentiles sink in
  Format.printf "  offered %.0f op/s  issued %d  completed %d  achieved %.0f op/s@."
    offered (LS.issued sink) (LS.completed sink) (LS.throughput sink);
  Format.printf
    "  latency from intended arrival: p50 %.1fus  p99 %.1fus  p99.9 %.1fus@."
    (us lp.LS.p50) (us lp.LS.p99) (us lp.LS.p999);
  Format.printf
    "  latency from first send:       p50 %.1fus  p99 %.1fus  p99.9 %.1fus@."
    (us sp.LS.p50) (us sp.LS.p99) (us sp.LS.p999);
  Format.printf "  retries %d  rejected %d  max-backlog %d  stale session reads %d@."
    (LS.retries sink) (LS.rejected sink) (LS.max_backlog sink) (LS.stale_reads sink);
  if lease_us > 0 then
    Format.printf "  lease reads %d (leader-local, linearizable)@." lease_reads

let load_cmd =
  let term =
    let+ backend = backend
    and+ d = deploy ~sharded:false ~clients:2 backend
    and+ duration_ms = duration_ms 50 backend
    and+ warmup_ms = warmup
    and+ rate = float_opt [ "rate" ] 50_000. "Offered rate per driver (requests/second)."
    and+ poisson =
      flag [ "poisson" ] "Poisson arrivals (exponential gaps) instead of the fixed-rate metronome."
    and+ key_dist =
      Arg.(
        value
        & opt key_dist_conv Ci_load.Key_dist.Uniform
        & info [ "key-dist" ]
            ~doc:
              "Key popularity: $(b,uniform), $(b,zipf:THETA) (0.99 is the YCSB \
               default skew) or $(b,hotkey:HOT:SPREAD).")
    and+ key_space = int_opt [ "key-space" ] 65_536 "Keys drawn from [0, key-space)."
    and+ reads = float_opt [ "reads" ] 0.9 "Fraction of Get commands."
    and+ cas = float_opt [ "cas" ] 0. "Fraction of compare-and-swap commands."
    and+ ranges = float_opt [ "ranges" ] 0. "Fraction of single-shard Range commands."
    and+ range_span = int_opt [ "range-span" ] 16 "Keys per Range command."
    and+ population =
      int_opt [ "population" ] 100_000
        "Logical clients multiplexed over the sessions (read-your-writes is \
         tracked per logical client)."
    and+ sessions = int_opt [ "sessions" ] 16 "Concurrent in-flight sessions per driver."
    and+ lease_us =
      int_opt [ "lease-us" ] 0
        "Leader-lease duration (us): serve linearizable reads from the leader's \
         local store while a majority's grants are unexpired. 0 disables leases \
         (all reads go through consensus)."
    and+ lease_skew_us =
      int_opt [ "lease-skew-us" ] 0
        "Clock-rate-skew margin (us) subtracted from every grant's validity at \
         the leader; must be < $(b,--lease-us)." in
    fun () ->
      let arrival =
        if poisson then Ci_load.Arrival.Poisson rate else Ci_load.Arrival.Fixed rate
      in
      let open_loop =
        {
          Runner.arrival;
          key_dist;
          key_space;
          mix = { Ci_load.Open_client.reads; cas; ranges };
          range_span;
          population;
          sessions;
        }
      in
      let d = { d with warmup_ms; lease_us; lease_skew_us; open_loop = Some open_loop } in
      let name = Protocol.name d.protocol in
      let o =
        run_on backend d ~duration_ms
          ~sim:(fun _ ->
            Format.printf "load %s (sim): %d replicas, %d drivers@." name d.replicas
              d.clients)
          ~live:(fun r ->
            Format.printf "load %s (live): %d replica + %d driver domains on %d cores@."
              name d.replicas d.clients r.cores)
      in
      print_sink ~offered:(rate *. float_of_int d.clients) ~lease_us
        ~lease_reads:o.lease_reads (Option.get o.load);
      Format.printf "%a@." Consistency.pp o.consistency;
      exit_code o
  in
  deployment_cmd "load"
    ~doc:
      "Drive open-loop load at the service: arrivals follow the offered schedule \
       regardless of how the system keeps up, and latency is charged from each \
       request's intended arrival (coordinated-omission aware)."
    term

(* ----- nemesis ------------------------------------------------------------ *)

(* Print the failover analysis and turn the verdict and recovery into an
   exit code. "Recovered" means the failover window saw at least one
   commit after the fault onset. *)
let nemesis_verdict o =
  (match o.failover with
   | Some f -> Format.printf "failover: %a@." Ci_obs.Failover.pp f
   | None ->
     Format.printf "failover: n/a (first fault onset outside the measured window)@.");
  let recovered =
    match o.failover with
    | None -> true
    | Some f ->
      f.Ci_obs.Failover.time_to_failover <> None
      && f.Ci_obs.Failover.completions_after > 0
  in
  if not (passed o) then begin
    Format.eprintf "FAIL: consistency violation@.";
    1
  end
  else if not recovered then begin
    Format.eprintf "FAIL: the run never committed again after the fault@.";
    1
  end
  else 0

let nemesis_cmd =
  let faults parse name ~docv ~doc =
    Arg.(value & opt_all parse [] & info [ name ] ~docv ~doc)
  in
  let term =
    let+ backend = backend
    and+ d = deploy ~clients:5 ~live_clients:2 backend
    and+ duration_ms = duration_ms ~live:1200 50 backend
    and+ scenario =
      Arg.(
        value
        & opt (some (enum [ ("crash-acceptor", `Acceptor); ("crash-leader", `Leader) ])) None
        & info [ "scenario" ]
            ~doc:
              "Preset: crash the initial active acceptor (node 1) or the leader \
               (node 0) at 40% of the window and restart it 30% later.")
    and+ crashes =
      faults crash_conv "crash" ~docv:"NODE:AT_MS[:DOWN_MS]"
        ~doc:
          "Crash $(i,NODE) at $(i,AT_MS), losing all volatile state; restart it \
           $(i,DOWN_MS) later through the protocol's recover path (omitted: \
           stays down). Repeatable."
    and+ pauses =
      faults pause_conv "pause" ~docv:"NODE:FROM_MS:UNTIL_MS"
        ~doc:
          "Pause $(i,NODE) for the window: it handles no message and fires no \
           timer until it resumes and drains its backlog; no state is lost. \
           Repeatable."
    and+ drops =
      faults (link_p_conv `Drop) "drop" ~docv:"SRC:DST:FROM_MS:UNTIL_MS:P"
        ~doc:"Lose each $(i,SRC)->$(i,DST) message with probability $(i,P). Repeatable."
    and+ dups =
      faults (link_p_conv `Dup) "duplicate" ~docv:"SRC:DST:FROM_MS:UNTIL_MS:P"
        ~doc:
          "Deliver each $(i,SRC)->$(i,DST) message twice with probability $(i,P). \
           Repeatable."
    and+ delays =
      faults delay_conv "delay" ~docv:"SRC:DST:FROM_MS:UNTIL_MS:EXTRA_US"
        ~doc:
          "Add $(i,EXTRA_US) of propagation to each $(i,SRC)->$(i,DST) message. \
           Repeatable."
    and+ partitions =
      faults partition_conv "partition" ~docv:"FROM_MS:UNTIL_MS:GROUPS"
        ~doc:
          "Cut every link between nodes in different groups for the window; \
           groups are /-separated lists, e.g. $(b,10:20:0/1,2). Repeatable."
    and+ slows = slow_cores in
    fun () ->
      let scenario =
        match scenario with
        | None -> []
        | Some which ->
          [
            Ci_faults.Crash
              {
                node = (match which with `Acceptor -> 1 | `Leader -> 0);
                at = Sim_time.ms (duration_ms * 2 / 5);
                down_for = Some (Sim_time.ms (max 1 (duration_ms * 3 / 10)));
              };
          ]
      in
      let faults =
        scenario @ crashes @ pauses @ drops @ dups @ delays @ partitions @ slows
      in
      if faults = [] then
        invalid_arg
          "empty fault schedule: pass --scenario or at least one of \
           --crash/--pause/--drop/--duplicate/--delay/--partition/--slow-core";
      run_on backend { d with faults } ~duration_ms ~sim:print_sim ~live:(fun r ->
          Format.printf
            "live %s: %d ops, %.0f op/s, retries %d, leader-changes %d, \
             acceptor-changes %d@."
            (Protocol.name d.protocol) r.ops r.throughput r.retries r.leader_changes
            r.acceptor_changes;
          Format.printf "%a@." Consistency.pp r.consistency;
          print_atomicity r.atomicity)
      |> nemesis_verdict
  in
  deployment_cmd "nemesis"
    ~doc:
      "Run one experiment under a declarative fault schedule (crash, pause, \
       drop, duplicate, delay, partition, slow core) on either backend and \
       report the failover analysis; exits 1 on a consistency violation or if \
       commits never resume after the fault."
    term

(* ----- figures -------------------------------------------------------------- *)

(* Live-backend twin of [E.failover]: the same crash-restart schedule on
   real domains, with wall-clock 100 ms buckets. *)
let live_failover_timelines () =
  let base =
    {
      (Live.default_spec ~protocol:Live.Onepaxos) with
      Live.duration_s = 1.2;
      drain_s = 0.3;
    }
  in
  let crash node =
    {
      base with
      Live.nemesis =
        {
          Ci_faults.seed = 42;
          faults =
            [
              Ci_faults.Crash
                { node; at = Sim_time.ms 400; down_for = Some (Sim_time.ms 300) };
            ];
        };
    }
  in
  let case label spec =
    let r = Live.run spec in
    if not (Consistency.ok r.Live.consistency) then
      failwith (label ^ ": consistency violation");
    {
      E.label;
      bucket_ms = 100.;
      rates = r.Live.timeline;
      leader_changes = r.Live.leader_changes;
      acceptor_changes = r.Live.acceptor_changes;
    }
  in
  [
    case "1Paxos live - crashed acceptor" (crash 1);
    case "1Paxos live - crashed leader" (crash 0);
    case "1Paxos live - no failure" base;
  ]

let figures_cmd =
  let sections :
      (string * (jobs:int ->
        [ `Series of E.series list
        | `Bars of E.bar list
        | `Timelines of E.timeline list
        | `Netchar of E.netchar_row list
        | `Latency of E.latency_row list
        | `Load of E.load_row list ])) list =
    [
      ("netchar", fun ~jobs -> `Netchar (E.netchar ~jobs ()));
      ("fig2", fun ~jobs -> `Series (E.fig2 ~jobs ()));
      ("latency", fun ~jobs -> `Latency (E.latency_table ~jobs ()));
      ("fig8", fun ~jobs -> `Series (E.fig8 ~jobs ()));
      ("fig9", fun ~jobs -> `Series (E.fig9 ~jobs ()));
      ("fig10", fun ~jobs -> `Bars (E.fig10 ~jobs ()));
      ("fig11", fun ~jobs -> `Timelines (E.fig11 ~jobs ()));
      ("sec2_2", fun ~jobs -> `Timelines (E.sec2_2 ~jobs ()));
      ("lan", fun ~jobs -> `Series (E.lan_1paxos ~jobs ()));
      ("ablation-placement", fun ~jobs -> `Series (E.ablation_placement ~jobs ()));
      ("ablation-slots", fun ~jobs -> `Series (E.ablation_slots ~jobs ()));
      ("ablation-ratio", fun ~jobs -> `Series (E.ablation_ratio ~jobs ()));
      ("ablation-batch", fun ~jobs -> `Series (E.ablation_batch ~jobs ()));
      ("ablation-pipeline", fun ~jobs -> `Series (E.ablation_pipeline ~jobs ()));
      ("ablation-coalesce", fun ~jobs -> `Series (E.ablation_coalesce ~jobs ()));
      ("protocols", fun ~jobs -> `Series (E.protocol_comparison ~jobs ()));
      ( "protocols-rdma",
        fun ~jobs -> `Series (E.protocol_comparison ~jobs ~params:Net_params.rdma ()) );
      ("failover", fun ~jobs -> `Timelines (E.failover ~jobs ()));
      ("failover-live", fun ~jobs:_ -> `Timelines (live_failover_timelines ()));
      ("shards", fun ~jobs -> `Series (E.shards ~jobs ()));
      ("load", fun ~jobs -> `Load (E.load_curve ~jobs ()));
    ]
  in
  (* The fault-injecting sections are opt-in: the default set must stay
     byte-identical run-to-run (and to pre-nemesis baselines), a promise
     wall-clock live runs cannot make. [shards] is opt-in too so the
     default figure set stays byte-identical to pre-sharding baselines,
     and [load] (ISSUE 9's open-loop service curves) likewise. *)
  let opt_in = [ "failover"; "failover-live"; "shards"; "load" ] in
  let default_names =
    List.filter (fun n -> not (List.mem n opt_in)) (List.map fst sections)
  in
  let which =
    Arg.(
      value & pos_all string default_names
      & info [] ~docv:"SECTION"
          ~doc:
            (Printf.sprintf
               "Sections to regenerate (default: all except the opt-in fault \
                sections %s): %s."
               (String.concat ", " opt_in)
               (String.concat ", " (List.map fst sections))))
  in
  let out_dir =
    Arg.(
      value & opt (some string) None
      & info [ "out" ] ~docv:"DIR"
          ~doc:"Also write each section as CSV (plus a gnuplot script) into $(docv).")
  in
  let jobs =
    Arg.(
      value
      & opt int (Ci_workload.Pool.default_jobs ())
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains for a section's independent simulation runs \
             (default: $(b,CI_JOBS) if set, else the core count). Output is \
             byte-identical at any value.")
  in
  let emit name out result =
    (match result with
     | `Series series -> Format.printf "%a" E.pp_series series
     | `Bars bars -> Format.printf "%a" E.pp_bars bars
     | `Timelines ts -> Format.printf "%a" E.pp_timelines ts
     | `Netchar rows -> Format.printf "%a" E.pp_netchar rows
     | `Latency rows -> Format.printf "%a" E.pp_latency_table rows
     | `Load rows -> Format.printf "%a" E.pp_load_table rows);
    match out with
    | None -> ()
    | Some dir ->
      let module R = Ci_workload.Report in
      let csv_name = name ^ ".csv" in
      let paths =
        match result with
        | `Series series ->
          let p = R.write_file ~dir ~name:csv_name (R.series_csv series) in
          let gp =
            R.write_file ~dir ~name:(name ^ ".gp")
              (R.gnuplot_series ~title:name ~xlabel:"clients / replicas"
                 ~csv:csv_name series)
          in
          [ p; gp ]
        | `Timelines ts ->
          let p = R.write_file ~dir ~name:csv_name (R.timelines_csv ts) in
          let gp =
            R.write_file ~dir ~name:(name ^ ".gp")
              (R.gnuplot_timelines ~title:name ~csv:csv_name ts)
          in
          [ p; gp ]
        | `Bars bars -> [ R.write_file ~dir ~name:csv_name (R.bars_csv bars) ]
        | `Netchar rows -> [ R.write_file ~dir ~name:csv_name (R.netchar_csv rows) ]
        | `Latency rows -> [ R.write_file ~dir ~name:csv_name (R.latency_csv rows) ]
        | `Load rows -> [ R.write_file ~dir ~name:csv_name (R.load_csv rows) ]
      in
      List.iter (Format.printf "wrote %s@.") paths
  in
  let run which out jobs =
    if jobs < 1 then begin
      Format.eprintf "--jobs must be >= 1@.";
      exit 1
    end;
    List.fold_left
      (fun code name ->
        match List.assoc_opt name sections with
        | Some f ->
          Format.printf "== %s ==@." name;
          emit name out (f ~jobs);
          code
        | None ->
          Format.eprintf "unknown section %S@." name;
          1)
      0 which
  in
  let term = Term.(const run $ which $ out_dir $ jobs) in
  Cmd.v (Cmd.info "figures" ~doc:"Regenerate the paper's tables and figures.") term

(* ----- explore: bounded model checking --------------------------------- *)

let explore_cmd =
  let module Trace = Ci_explore.Trace in
  let module Search = Ci_explore.Search in
  let replicas =
    Arg.(value & opt int 3 & info [ "replicas" ] ~doc:"Replica count (2-7).")
  in
  let clients =
    Arg.(value & opt int 1 & info [ "clients" ] ~doc:"Client count (1-4).")
  in
  let commands =
    Arg.(value & opt int 2 & info [ "commands" ] ~doc:"Commands per client (1-8).")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Per-node RNG seed.") in
  let drops =
    Arg.(value & opt int 0 & info [ "drops" ] ~doc:"Message-drop fault budget.")
  in
  let crashes =
    Arg.(
      value & opt int 0
      & info [ "crashes" ]
          ~doc:"Crash fault budget (majority-preserving crashes only).")
  in
  let fires =
    Arg.(
      value & opt int 4
      & info [ "fires" ] ~doc:"Timer-fire budget per node per execution.")
  in
  let max_depth =
    Arg.(
      value & opt int Search.default_bounds.Search.max_depth
      & info [ "max-depth" ] ~doc:"Deepest choice prefix explored.")
  in
  let max_states =
    Arg.(
      value & opt int Search.default_bounds.Search.max_states
      & info [ "max-states" ] ~doc:"State budget before giving up.")
  in
  let stale_adoption =
    Arg.(
      value & flag
      & info [ "stale-adoption" ]
          ~doc:
            "Re-seed the historical 1Paxos stale-adoption split-brain (test \
             fixture; the checker should find it).")
  in
  let trace_out =
    Arg.(
      value & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:"Write the shrunk counterexample trace to $(docv).")
  in
  let events_out =
    Arg.(
      value & opt (some string) None
      & info [ "events-out" ] ~docv:"FILE"
          ~doc:
            "Write the typed event log (JSON lines) of the replayed \
             counterexample, or of the $(b,--replay) execution, to $(docv).")
  in
  let replay_file =
    Arg.(
      value & opt (some string) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:
            "Replay a trace written by $(b,--trace-out) instead of exploring; \
             all bound/config flags are ignored (the trace header wins).")
  in
  let events_sidecar events_out cfg choices =
    match events_out with
    | None -> ()
    | Some path ->
      let ring = Ci_obs.Event.create_ring () in
      ignore (Search.replay ~ring cfg choices);
      write_file path (Ci_obs.Event.to_jsonl ring)
  in
  let print_stats (s : Search.stats) =
    let ratio num den = if den = 0 then 0. else float_of_int num /. float_of_int den in
    Format.printf
      "states=%d executions=%d choices=%d branches=%d dedup_hits=%d \
       dedup_ratio=%.3f sleep_skips=%d sleep_ratio=%.3f rounds=%d closures=%d@."
      s.Search.states s.Search.executions s.Search.choices_applied
      s.Search.branches s.Search.dedup_hits
      (ratio s.Search.dedup_hits (s.Search.dedup_hits + s.Search.states))
      s.Search.sleep_skips
      (ratio s.Search.sleep_skips (s.Search.sleep_skips + s.Search.branches))
      s.Search.deepening_rounds s.Search.closures
  in
  let run protocol replicas clients commands seed drops crashes fires max_depth
      max_states stale_adoption trace_out events_out replay_file =
    match replay_file with
    | Some path -> (
      match Trace.of_string (In_channel.with_open_text path In_channel.input_all) with
      | Error msg ->
        Format.eprintf "unreadable trace %s: %s@." path msg;
        2
      | Ok (cfg, choices) -> (
        Format.printf "%s@." (Trace.config_to_line cfg);
        Format.printf "trace-hash=%s choices=%d@." (Trace.hash_hex choices)
          (List.length choices);
        events_sidecar events_out cfg choices;
        match Search.replay cfg choices with
        | Error msg ->
          Format.eprintf "replay diverged: %s@." msg;
          2
        | Ok None ->
          Format.printf "verdict=live@.";
          0
        | Ok (Some v) ->
          Format.printf "verdict=violation@.%a@." Search.pp_violation v;
          1))
    | None -> (
      let cfg =
        {
          Trace.protocol;
          n_replicas = replicas;
          n_clients = clients;
          n_commands = commands;
          seed;
          drop_budget = drops;
          crash_budget = crashes;
          fire_budget = fires;
          unsafe_stale_adoption = stale_adoption;
        }
      in
      match Trace.validate_config cfg with
      | Error msg ->
        Format.eprintf "bad config: %s@." msg;
        2
      | Ok () -> (
        let bounds =
          { Search.default_bounds with Search.max_depth; max_states }
        in
        Format.printf "%s@." (Trace.config_to_line cfg);
        let { Search.outcome; stats } = Search.explore ~bounds cfg in
        print_stats stats;
        match outcome with
        | Search.Exhausted ->
          Format.printf "outcome=exhausted@.";
          0
        | Search.Bounded ->
          Format.printf "outcome=bounded@.";
          0
        | Search.Violated { trace; violation = _; shrunk; shrunk_violation } ->
          Format.printf "outcome=violation@.%a@." Search.pp_violation
            shrunk_violation;
          Format.printf
            "counterexample: %d choices (shrunk from %d), trace-hash=%s@."
            (List.length shrunk) (List.length trace) (Trace.hash_hex shrunk);
          List.iter
            (fun c -> Format.printf "  %s@." (Trace.choice_to_line c))
            shrunk;
          (match trace_out with
          | Some path -> write_file path (Trace.to_string ~config:cfg shrunk)
          | None -> ());
          events_sidecar events_out cfg shrunk;
          1))
  in
  let term =
    Term.(
      const run $ protocol $ replicas $ clients $ commands $ seed $ drops
      $ crashes $ fires $ max_depth $ max_states $ stale_adoption $ trace_out
      $ events_out $ replay_file)
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Bounded model checking: exhaust delivery orderings and fault \
          placements of a small configuration, checking consistency at every \
          state and liveness at quiescent ones; shrink any counterexample to \
          a minimal replayable trace. Exits 1 on violation.")
    term

let () =
  let info =
    Cmd.info "consensus_sim" ~version:"1.0.0"
      ~doc:"Consensus Inside (Middleware 2014) reproduction: 1Paxos, Multi-Paxos and 2PC on a simulated many-core."
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ run_cmd; live_cmd; load_cmd; nemesis_cmd; figures_cmd; explore_cmd ]))
