(* Nemesis: fault schedules compiled onto the simulator, crash-recovery
   through the protocols' own [recover] entry points, and the failover
   observability built on top. The live-runtime half of the nemesis is
   exercised in [Test_runtime]. *)

module Sim_time = Ci_engine.Sim_time
module Runner = Ci_workload.Runner
module Consistency = Ci_rsm.Consistency
module Failover = Ci_obs.Failover
module Metrics = Ci_obs.Metrics

let base_spec protocol =
  let spec =
    Runner.default_spec ~protocol
      ~placement:(Runner.Dedicated { n_replicas = 3; n_clients = 3 })
  in
  {
    spec with
    Runner.duration = Sim_time.ms 30;
    warmup = Sim_time.ms 5;
    drain = Sim_time.ms 10;
  }

let with_nemesis spec faults =
  { spec with Runner.nemesis = { Ci_faults.seed = 7; faults } }

let check_consistent what (r : Runner.result) =
  Alcotest.(check bool)
    (what ^ ": consistent")
    true
    (Consistency.ok r.Runner.consistency);
  Alcotest.(check bool) (what ^ ": commits > 0") true (r.Runner.commits > 0)

(* A run must keep committing after the fault: the failover analysis
   sees completions on both sides of the onset and a finite first
   post-fault completion. *)
let check_recovers what (r : Runner.result) =
  check_consistent what r;
  match r.Runner.failover with
  | None -> Alcotest.fail (what ^ ": no failover analysis")
  | Some f ->
    Alcotest.(check bool)
      (what ^ ": completions before fault")
      true
      (f.Failover.completions_before > 0);
    Alcotest.(check bool)
      (what ^ ": resumes committing after fault")
      true
      (f.Failover.completions_after > 0);
    (match f.Failover.time_to_failover with
    | Some t ->
      Alcotest.(check bool) (what ^ ": finite time_to_failover") true (t >= 0)
    | None -> Alcotest.fail (what ^ ": time_to_failover is infinite"))

let crash_acceptor_1paxos () =
  let spec = base_spec Runner.Onepaxos in
  (* Replica 1 is the seeded active acceptor under dedicated placement. *)
  let spec =
    with_nemesis spec
      [
        Ci_faults.Crash
          { node = 1; at = Sim_time.ms 15; down_for = Some (Sim_time.ms 10) };
      ]
  in
  let r = Runner.run spec in
  check_recovers "crash acceptor" r;
  Alcotest.(check bool)
    "acceptor was replaced" true
    (r.Runner.acceptor_changes > 0);
  (* The failover metrics are published in the registry too. *)
  (match Metrics.find r.Runner.metrics "failover.time_to_failover_ns" with
  | Some _ -> ()
  | None -> Alcotest.fail "failover.time_to_failover_ns not in metrics")

let crash_leader_1paxos () =
  let spec = base_spec Runner.Onepaxos in
  let spec =
    with_nemesis spec
      [
        Ci_faults.Crash
          { node = 0; at = Sim_time.ms 15; down_for = Some (Sim_time.ms 10) };
      ]
  in
  let r = Runner.run spec in
  check_recovers "crash leader" r;
  Alcotest.(check bool)
    "leadership moved" true
    (r.Runner.leader_changes > 0)

let crash_leader_multipaxos () =
  let spec = base_spec Runner.Multipaxos in
  let spec =
    with_nemesis spec
      [
        Ci_faults.Crash
          { node = 0; at = Sim_time.ms 15; down_for = Some (Sim_time.ms 10) };
      ]
  in
  let r = Runner.run spec in
  check_recovers "crash mp leader" r

let crash_no_restart () =
  (* A crashed-forever acceptor: the other two replicas still form a
     majority for PaxosUtility, so 1Paxos replaces it and keeps going. *)
  let spec = base_spec Runner.Onepaxos in
  let spec =
    with_nemesis spec
      [ Ci_faults.Crash { node = 1; at = Sim_time.ms 15; down_for = None } ]
  in
  let r = Runner.run spec in
  check_recovers "crash without restart" r

let pause_leader_1paxos () =
  let spec = base_spec Runner.Onepaxos in
  let spec =
    with_nemesis spec
      [ Ci_faults.Pause { node = 0; from_ = Sim_time.ms 15; until_ = Sim_time.ms 22 } ]
  in
  let r = Runner.run spec in
  check_recovers "pause leader" r

let lossy_link () =
  let spec = base_spec Runner.Onepaxos in
  let spec =
    with_nemesis spec
      [
        Ci_faults.Drop
          { src = 0; dst = 1; from_ = Sim_time.ms 10; until_ = Sim_time.ms 25; p = 0.3 };
        Ci_faults.Duplicate
          { src = 1; dst = 0; from_ = Sim_time.ms 10; until_ = Sim_time.ms 25; p = 0.3 };
        Ci_faults.Delay
          { src = 0; dst = 2; from_ = Sim_time.ms 10; until_ = Sim_time.ms 25;
            extra = Sim_time.us 50 };
      ]
  in
  let r = Runner.run spec in
  check_recovers "lossy link" r;
  let dropped =
    match Metrics.find r.Runner.metrics "faults.dropped" with
    | Some (Metrics.Int n) -> n
    | _ -> 0
  in
  Alcotest.(check bool) "some messages dropped" true (dropped > 0)

let partition_heals () =
  (* Cut the leader off from both peers; nothing can commit during the
     cut (no acceptor reachable), and the run must converge after the
     heal — on either the old leader or a successor. *)
  let spec = base_spec Runner.Onepaxos in
  let spec =
    with_nemesis spec
      [
        Ci_faults.Partition
          { groups = [ [ 0 ]; [ 1; 2 ] ]; from_ = Sim_time.ms 15; until_ = Sim_time.ms 20 };
      ]
  in
  let r = Runner.run spec in
  check_recovers "partition" r

let empty_nemesis_is_identity () =
  (* The whole fault layer must be pay-per-use: a spec with the empty
     schedule reproduces the no-nemesis run exactly. *)
  let spec = base_spec Runner.Onepaxos in
  let plain = Runner.run spec in
  let empt = Runner.run { spec with Runner.nemesis = Ci_faults.empty } in
  Alcotest.(check int) "commits" plain.Runner.commits empt.Runner.commits;
  Alcotest.(check int) "messages" plain.Runner.messages_total empt.Runner.messages_total;
  Alcotest.(check int) "sim events" plain.Runner.sim_events empt.Runner.sim_events;
  Alcotest.(check bool) "no failover analysis" true (empt.Runner.failover = None)

let rejects_bad_schedules () =
  let spec = base_spec Runner.Onepaxos in
  let expect_invalid what faults =
    match Runner.run (with_nemesis spec faults) with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail (what ^ ": accepted")
  in
  expect_invalid "inverted window"
    [ Ci_faults.Pause { node = 0; from_ = Sim_time.ms 20; until_ = Sim_time.ms 10 } ];
  expect_invalid "node out of range"
    [ Ci_faults.Crash { node = 7; at = Sim_time.ms 10; down_for = None } ];
  expect_invalid "p out of range"
    [ Ci_faults.Drop { src = 0; dst = 1; from_ = 0; until_ = Sim_time.ms 1; p = 1.5 } ];
  expect_invalid "NaN factor"
    [ Ci_faults.Slow { core = 0; from_ = 0; until_ = Sim_time.ms 1; factor = Float.nan } ];
  expect_invalid "sub-1 factor"
    [ Ci_faults.Slow { core = 0; from_ = 0; until_ = Sim_time.ms 1; factor = 0.5 } ];
  expect_invalid "self link"
    [ Ci_faults.Drop { src = 1; dst = 1; from_ = 0; until_ = Sim_time.ms 1; p = 0.5 } ];
  (* Crash/pause needs a recoverable protocol and dedicated placement. *)
  (match
     Runner.run
       (with_nemesis (base_spec Runner.Twopc)
          [ Ci_faults.Crash { node = 1; at = Sim_time.ms 10; down_for = None } ])
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "2pc crash: accepted");
  match
    Runner.run
      (with_nemesis
         {
           (base_spec Runner.Onepaxos) with
           Runner.placement = Runner.Joint { n_nodes = 3 };
         }
         [ Ci_faults.Crash { node = 1; at = Sim_time.ms 10; down_for = None } ])
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "joint crash: accepted"

let fault_plan_validation () =
  let ok ?n_cores f =
    match Ci_faults.validate ?n_cores ~n_nodes:3 { Ci_faults.seed = 0; faults = [ f ] } with
    | Ok () -> true
    | Error _ -> false
  in
  let slow core from_ until_ factor = Ci_faults.Slow { core; from_; until_; factor } in
  Alcotest.(check bool) "valid slow" true (ok ~n_cores:48 (slow 0 0 10 9.));
  Alcotest.(check bool) "inverted window" false (ok (slow 0 10 10 infinity));
  Alcotest.(check bool) "core range" false (ok ~n_cores:4 (slow 9 0 10 2.));
  Alcotest.(check bool) "NaN factor" false (ok (slow 0 0 10 Float.nan))

(* Randomized nemesis grid: every protocol stays consistent under every
   schedule [Ci_faults.random] can produce (crash/pause schedules are
   restricted to the protocols that support recovery). *)
let qcheck_nemesis_safety =
  let open QCheck in
  let horizon = Sim_time.ms 45 in
  let protocols =
    [
      Runner.Onepaxos; Runner.Multipaxos; Runner.Twopc; Runner.Mencius;
      Runner.Cheappaxos;
    ]
  in
  Test.make ~count:20 ~name:"nemesis grid: consistency under random schedules"
    (make
       Gen.(
         map2
           (fun s p -> (s, p))
           (int_bound 10_000)
           (oneofl protocols)))
    (fun (seed, protocol) ->
      let sched = Ci_faults.random ~seed ~n_nodes:3 ~horizon in
      let sched =
        match protocol with
        | Runner.Onepaxos | Runner.Multipaxos -> sched
        | _ ->
          {
            sched with
            Ci_faults.faults =
              List.filter
                (function
                  | Ci_faults.Crash _ | Ci_faults.Pause _ -> false
                  | _ -> true)
                sched.Ci_faults.faults;
          }
      in
      let spec = { (base_spec protocol) with Runner.nemesis = sched } in
      let r = Runner.run spec in
      Consistency.ok r.Runner.consistency)

(* ----- live runtime ------------------------------------------------------ *)

module Live = Ci_runtime.Live

let live_spec protocol =
  {
    (Live.default_spec ~protocol) with
    Live.duration_s = 1.2;
    drain_s = 0.3;
  }

let live_with_nemesis spec faults =
  { spec with Live.nemesis = { Ci_faults.seed = 11; faults } }

let check_live_recovers what (r : Live.result) =
  if not (Consistency.ok r.Live.consistency) then
    Alcotest.failf "%s: %a" what Consistency.pp r.Live.consistency;
  Alcotest.(check bool) (what ^ ": ops > 0") true (r.Live.ops > 0);
  match r.Live.failover with
  | None -> Alcotest.fail (what ^ ": no failover analysis")
  | Some f ->
    Alcotest.(check bool)
      (what ^ ": completions before fault")
      true
      (f.Failover.completions_before > 0);
    Alcotest.(check bool)
      (what ^ ": resumes committing after fault")
      true
      (f.Failover.completions_after > 0);
    if f.Failover.time_to_failover = None then
      Alcotest.fail (what ^ ": time_to_failover is infinite")

(* Kill the active acceptor mid-run on the real domains: the leader
   must replace it through the freshness handshake, commits must
   resume, and the restarted replica (rejoining via recover + learner
   sync) must not contradict the survivors. *)
let live_crash_acceptor () =
  let spec = live_spec Live.Onepaxos in
  let spec =
    live_with_nemesis spec
      [
        Ci_faults.Crash
          { node = 1; at = Sim_time.ms 400; down_for = Some (Sim_time.ms 300) };
      ]
  in
  let r = Live.run spec in
  check_live_recovers "live crash acceptor" r;
  Alcotest.(check bool)
    "acceptor was replaced" true
    (r.Live.acceptor_changes > 0)

let live_crash_mp_leader () =
  let spec = live_spec Live.Multipaxos in
  let spec =
    live_with_nemesis spec
      [
        Ci_faults.Crash
          { node = 0; at = Sim_time.ms 400; down_for = Some (Sim_time.ms 300) };
      ]
  in
  let r = Live.run spec in
  check_live_recovers "live crash mp leader" r;
  Alcotest.(check bool) "an election ran" true (r.Live.leader_changes > 0)

let live_pause_leader () =
  let spec = live_spec Live.Onepaxos in
  let spec =
    live_with_nemesis spec
      [
        Ci_faults.Pause
          { node = 0; from_ = Sim_time.ms 400; until_ = Sim_time.ms 700 };
      ]
  in
  let r = Live.run spec in
  check_live_recovers "live pause leader" r

(* A dead peer must not grow any sender's heap: with a crashed replica
   that never drains its rings, every sender's parked backlog stays
   within the configured cap. *)
let live_outbox_capped () =
  let cap = 64 in
  let spec =
    { (live_spec Live.Onepaxos) with Live.outbox_cap = cap; queue_slots = 2 }
  in
  let spec =
    live_with_nemesis spec
      [ Ci_faults.Crash { node = 1; at = Sim_time.ms 300; down_for = None } ]
  in
  let r = Live.run spec in
  if not (Consistency.ok r.Live.consistency) then
    Alcotest.failf "outbox cap: %a" Consistency.pp r.Live.consistency;
  Alcotest.(check bool) "ops" true (r.Live.ops > 0);
  Alcotest.(check bool)
    (Printf.sprintf "outbox peak %d <= cap %d" r.Live.queues.Live.q_outbox_peak
       cap)
    true
    (r.Live.queues.Live.q_outbox_peak <= cap)

(* [Ci_faults.crashes] hands out the restart as an absolute instant;
   both backends must restart the replica [down_for] after the crash,
   not at [2 * at + down_for]. *)
let restart_at = Sim_time.ms 200
let restart_down = Sim_time.ms 100

let crash_with_restart =
  [ Ci_faults.Crash { node = 1; at = restart_at; down_for = Some restart_down } ]

let sim_restarts_after_down_for () =
  let machine =
    Ci_machine.Machine.create ~topology:(Ci_machine.Topology.single_socket 4)
      ~params:Ci_machine.Net_params.multicore ()
  in
  let sim = Ci_machine.Machine.sim machine in
  let log = ref [] in
  let note what ~node = log := (what, node, Ci_engine.Sim.now sim) :: !log in
  Ci_workload.Nemesis.install machine
    ~nemesis:{ Ci_faults.seed = 1; faults = crash_with_restart }
    ~crash:(note "crash") ~restart:(note "restart") ~pause:(note "pause")
    ~resume:(note "resume");
  Ci_engine.Sim.run sim;
  Alcotest.(check (list (triple string int int)))
    "crash at [at], restart [down_for] later"
    [ ("crash", 1, restart_at); ("restart", 1, restart_at + restart_down) ]
    (List.rev !log)

let live_restarts_after_down_for () =
  let spec =
    live_with_nemesis
      { (live_spec Live.Onepaxos) with Live.duration_s = 0.5; drain_s = 0.1 }
      crash_with_restart
  in
  let r = Live.run spec in
  if not (Consistency.ok r.Live.consistency) then
    Alcotest.failf "live restart: %a" Consistency.pp r.Live.consistency;
  let get what = Metrics.get_int r.Live.metrics ("live.faults.node1." ^ what ^ "_ns") in
  (* Transitions are applied by the replica's own loop, so each lands a
     little after its instant; the slack absorbs a descheduled domain
     on a small host. The doubled-offset bug restarted at 500 ms. *)
  let within what at due =
    Alcotest.(check bool)
      (Printf.sprintf "%s at %d ns, due %d" what at due)
      true
      (at >= due && at < due + Sim_time.ms 150)
  in
  within "crash" (get "crashed_at") restart_at;
  within "restart" (get "restarted_at") (restart_at + restart_down)

let live_rejects_slow () =
  let spec =
    live_with_nemesis (live_spec Live.Onepaxos)
      [
        Ci_faults.Slow
          { core = 0; from_ = 0; until_ = Sim_time.ms 100; factor = 9. };
      ]
  in
  match Live.run spec with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "live accepted a Slow fault"

(* ----- regression pins ---------------------------------------------------- *)

(* Exact deterministic expectations so failover behaviour cannot drift
   silently: the fig11 slow-leader figure and the recovery-time metric
   of a fixed crash schedule. The simulator is deterministic, so any
   diff here is a real behaviour change — update a pin only together
   with an explanation of what moved it. *)
module E = Ci_workload.Experiments

let test_fig11_pins () =
  match E.fig11 ~duration:(Sim_time.ms 120) () with
  | [ faulty; baseline ] ->
    Alcotest.(check int) "faulty leader changes" 1 faulty.E.leader_changes;
    Alcotest.(check int) "faulty acceptor changes" 1 faulty.E.acceptor_changes;
    Alcotest.(check int) "baseline leader changes" 0 baseline.E.leader_changes;
    let sum = Array.fold_left ( +. ) 0. in
    Alcotest.(check (float 1.0)) "faulty rate mass" 1_993_400. (sum faulty.E.rates);
    Alcotest.(check (float 1.0)) "baseline rate mass" 2_028_500.
      (sum baseline.E.rates)
  | _ -> Alcotest.fail "expected two timelines"

let test_recovery_time_pin () =
  let spec = base_spec Runner.Onepaxos in
  let spec =
    with_nemesis spec
      [
        Ci_faults.Crash
          { node = 1; at = Sim_time.ms 15; down_for = Some (Sim_time.ms 10) };
      ]
  in
  let r = Runner.run spec in
  Alcotest.(check int) "commits" 4163 r.Runner.commits;
  match r.Runner.failover with
  | None -> Alcotest.fail "no failover analysis"
  | Some f ->
    (* 1150 ns: the reply already in flight when the acceptor dies — the
       interesting outage is the [unavailable_ns] gap, but the first
       post-fault completion is what the metric is defined as. *)
    Alcotest.(check (option int)) "time_to_failover_ns" (Some 1150)
      f.Failover.time_to_failover;
    Alcotest.(check int) "completions_after" 4163 f.Failover.completions_after

let suite =
  ( "nemesis",
    [
      Alcotest.test_case "crash active acceptor (1paxos)" `Quick
        crash_acceptor_1paxos;
      Alcotest.test_case "crash leader (1paxos)" `Quick crash_leader_1paxos;
      Alcotest.test_case "crash leader (multipaxos)" `Quick
        crash_leader_multipaxos;
      Alcotest.test_case "crash without restart" `Quick crash_no_restart;
      Alcotest.test_case "pause leader (1paxos)" `Quick pause_leader_1paxos;
      Alcotest.test_case "lossy, duplicating, laggy links" `Quick lossy_link;
      Alcotest.test_case "partition heals" `Quick partition_heals;
      Alcotest.test_case "empty schedule is the identity" `Quick
        empty_nemesis_is_identity;
      Alcotest.test_case "invalid schedules rejected" `Quick
        rejects_bad_schedules;
      Alcotest.test_case "fault plan validation" `Quick fault_plan_validation;
      Alcotest.test_case "regression pins: fig11" `Quick test_fig11_pins;
      Alcotest.test_case "regression pins: recovery time" `Quick
        test_recovery_time_pin;
      QCheck_alcotest.to_alcotest qcheck_nemesis_safety;
      Alcotest.test_case "live: crash active acceptor" `Slow
        live_crash_acceptor;
      Alcotest.test_case "live: crash multipaxos leader" `Slow
        live_crash_mp_leader;
      Alcotest.test_case "live: pause leader" `Slow live_pause_leader;
      Alcotest.test_case "live: dead peer cannot grow sender heap" `Slow
        live_outbox_capped;
      Alcotest.test_case "live: Slow faults rejected" `Quick live_rejects_slow;
      Alcotest.test_case "sim: crashed replica restarts down_for later" `Quick
        sim_restarts_after_down_for;
      Alcotest.test_case "live: crashed replica restarts down_for later" `Quick
        live_restarts_after_down_for;
    ] )
