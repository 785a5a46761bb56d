(* 1Paxos protocol behaviour: the failure-free fast path, acceptor
   switch, leader switch, freshness defence, and the paper's message
   count and availability claims. *)

open Test_util
module Onepaxos = Ci_consensus.Onepaxos
module Command = Ci_rsm.Command

let test_failure_free_commit () =
  let h = onepaxos_cluster () in
  send h ~req_id:0 (Command.Put { key = 1; data = 5 });
  run_ms h 5;
  (match h.replies with
   | [ (0, Command.Done, _) ] -> ()
   | _ -> Alcotest.failf "expected one Done reply, got %d" (List.length h.replies));
  check_safety ~cores:(onepaxos_cores h) h;
  Alcotest.(check bool) "replica 0 leads" true (Onepaxos.is_leader h.replicas.(0));
  Alcotest.(check (option int)) "acceptor is replica 1"
    (Some h.replica_ids.(1))
    (Onepaxos.active_acceptor h.replicas.(0))

let test_all_learners_learn () =
  let h = onepaxos_cluster () in
  for i = 0 to 9 do
    send h ~req_id:i (Command.Put { key = i; data = i })
  done;
  run_ms h 10;
  Alcotest.(check int) "all replies" 10 (List.length h.replies);
  Array.iter
    (fun core ->
      Alcotest.(check int) "every learner executed all 10" 10
        (Ci_consensus.Replica_core.commits core))
    (onepaxos_cores h);
  check_safety ~cores:(onepaxos_cores h) h

let test_message_count_per_commit () =
  (* Figure 3's claim: five boundary-crossing messages per command on
     three replicas (request, accept, two remote learns, reply). *)
  let h = onepaxos_cluster () in
  send h ~req_id:0 Command.Nop;
  run_ms h 5;
  let warm = Machine.total_messages h.machine in
  let reqs = 50 in
  let next = ref 1 in
  let pump () =
    if !next <= reqs then begin
      let r = !next in
      incr next;
      send h ~req_id:r Command.Nop
    end
  in
  (* Closed loop via the reply hook. *)
  Machine.set_handler h.client (fun ~src:_ msg ->
      match msg with
      | Wire.Reply { req_id; result; _ } ->
        h.replies <- (req_id, result, Machine.now h.machine) :: h.replies;
        pump ()
      | _ -> ());
  pump ();
  run_ms h 50;
  let total = Machine.total_messages h.machine - warm in
  let per_commit = float_of_int total /. float_of_int reqs in
  Alcotest.(check bool)
    (Printf.sprintf "5 messages per commit (got %.2f)" per_commit)
    true
    (per_commit > 4.9 && per_commit < 5.1)

let test_duplicate_request_replied_from_cache () =
  let h = onepaxos_cluster () in
  send h ~req_id:0 (Command.Put { key = 1; data = 7 });
  run_ms h 5;
  send h ~req_id:0 (Command.Put { key = 1; data = 7 });
  run_ms h 10;
  Alcotest.(check int) "two replies" 2 (List.length h.replies);
  (* But only one log instance. *)
  let core = (onepaxos_cores h).(0) in
  Alcotest.(check int) "single instance" 1 (Ci_consensus.Replica_core.commits core)

let test_pipelining () =
  (* A burst of requests is proposed without waiting for prior commits:
     total time must be far below n * single-request latency. *)
  let h = onepaxos_cluster () in
  for i = 0 to 19 do
    send h ~req_id:i Command.Nop
  done;
  run_ms h 2;
  Alcotest.(check int) "20 commits within 2ms" 20 (List.length h.replies)

let test_relaxed_read_local () =
  let h = onepaxos_cluster ~tweak:(fun c -> { c with Onepaxos.relaxed_reads = true }) () in
  send h ~req_id:0 (Command.Put { key = 1; data = 42 });
  run_ms h 5;
  (* A relaxed read at a non-leader replica is answered locally. *)
  let before = Machine.total_messages h.machine in
  send h ~dst:2 ~relaxed:true ~req_id:1 (Command.Get { key = 1 });
  run_ms h 10;
  (match h.replies with
   | (1, Command.Found (Some 42), _) :: _ -> ()
   | _ -> Alcotest.fail "relaxed read lost or stale beyond the write");
  let cost = Machine.total_messages h.machine - before in
  Alcotest.(check int) "request + reply only" 2 cost;
  Alcotest.(check bool) "no leader change triggered" true
    (not (Onepaxos.is_leader h.replicas.(2)))

let test_acceptor_switch_on_slow_acceptor () =
  let h = onepaxos_cluster () in
  send h ~req_id:0 Command.Nop;
  run_ms h 5;
  (* Starve the acceptor's core (replica 1 on core 1). *)
  slow_core h ~core:1 ~from_ms:5 ~until_ms:100 ~factor:1e9;
  for i = 1 to 5 do
    send h ~req_id:i (Command.Put { key = i; data = i })
  done;
  run_ms h 60;
  Alcotest.(check int) "all commit after the switch" 6 (List.length h.replies);
  Alcotest.(check (option int)) "acceptor moved to replica 2"
    (Some h.replica_ids.(2))
    (Onepaxos.active_acceptor h.replicas.(0));
  Alcotest.(check bool) "an acceptor change happened" true
    (Onepaxos.acceptor_changes h.replicas.(0) >= 1);
  Alcotest.(check bool) "leadership retained" true (Onepaxos.is_leader h.replicas.(0));
  check_safety ~cores:(onepaxos_cores h) h

let test_uncommitted_proposals_survive_acceptor_switch () =
  (* Lemma 2a's scenario: proposals accepted (or in flight) at a slow
     acceptor are carried through the AcceptorChange and committed with
     their original values and instances. *)
  let h = onepaxos_cluster () in
  send h ~req_id:0 Command.Nop;
  run_ms h 5;
  slow_core h ~core:1 ~from_ms:5 ~until_ms:200 ~factor:1e9;
  (* These land at the leader while the acceptor is dead. *)
  for i = 1 to 4 do
    send h ~req_id:i (Command.Put { key = i; data = i * 10 })
  done;
  run_ms h 80;
  Alcotest.(check int) "all five replies" 5 (List.length h.replies);
  check_safety ~cores:(onepaxos_cores h) h;
  (* Values must appear exactly once each in the log. *)
  let core = (onepaxos_cores h).(0) in
  Alcotest.(check int) "five instances" 5 (Ci_consensus.Replica_core.commits core)

let test_leader_switch_on_client_failover () =
  let h = onepaxos_cluster () in
  send h ~req_id:0 Command.Nop;
  run_ms h 5;
  (* Leader's core starved; the client, as the paper prescribes, sends
     to another node, which takes over through PaxosUtility. *)
  slow_core h ~core:0 ~from_ms:5 ~until_ms:200 ~factor:1e9;
  send h ~dst:2 ~req_id:1 (Command.Put { key = 9; data = 9 });
  run_ms h 100;
  Alcotest.(check bool) "new reply arrived" true
    (List.exists (fun (r, _, _) -> r = 1) h.replies);
  Alcotest.(check bool) "replica 2 is now leader" true
    (Onepaxos.is_leader h.replicas.(2));
  Alcotest.(check bool) "a leader change was applied" true
    (Onepaxos.leader_changes h.replicas.(2) >= 1);
  check_safety ~cores:(onepaxos_cores h) h

let test_acceptor_takes_over_leadership () =
  (* The failed-over client may hit the acceptor node itself: it must
     become leader and relocate the acceptor role off itself. *)
  let h = onepaxos_cluster () in
  send h ~req_id:0 Command.Nop;
  run_ms h 5;
  slow_core h ~core:0 ~from_ms:5 ~until_ms:200 ~factor:1e9;
  send h ~dst:1 ~req_id:1 Command.Nop;
  run_ms h 100;
  Alcotest.(check bool) "reply arrived" true
    (List.exists (fun (r, _, _) -> r = 1) h.replies);
  Alcotest.(check bool) "replica 1 leads" true (Onepaxos.is_leader h.replicas.(1));
  (match Onepaxos.active_acceptor h.replicas.(1) with
   | Some a ->
     Alcotest.(check bool) "acceptor moved off the leader" true
       (a <> h.replica_ids.(1))
   | None -> Alcotest.fail "no active acceptor");
  check_safety ~cores:(onepaxos_cores h) h

let test_blocks_when_leader_and_acceptor_both_slow () =
  (* Section 5.4: with leader and acceptor both unresponsive, 1Paxos
     stalls (safety intact), and resumes when one of them returns. *)
  let h = onepaxos_cluster () in
  send h ~req_id:0 Command.Nop;
  run_ms h 5;
  slow_core h ~core:0 ~from_ms:5 ~until_ms:60 ~factor:1e9;
  slow_core h ~core:1 ~from_ms:5 ~until_ms:60 ~factor:1e9;
  send h ~dst:2 ~req_id:1 Command.Nop;
  run_ms h 40;
  Alcotest.(check int) "stalled while both are down" 1 (List.length h.replies);
  run_ms h 150;
  Alcotest.(check bool) "resumes when they return" true
    (List.exists (fun (r, _, _) -> r = 1) h.replies);
  check_safety ~cores:(onepaxos_cores h) h

let test_acceptor_reset_detected () =
  (* The freshness defence: a silently rebooted acceptor (lost promise
     and accepted proposals) must never be adopted as if intact; the
     last leader replaces it. *)
  let h = onepaxos_cluster () in
  send h ~req_id:0 Command.Nop;
  run_ms h 5;
  Onepaxos.inject_acceptor_reset h.replicas.(1);
  for i = 1 to 3 do
    send h ~req_id:i (Command.Put { key = i; data = i })
  done;
  run_ms h 100;
  Alcotest.(check int) "all commits despite the reset" 4 (List.length h.replies);
  Alcotest.(check bool) "acceptor was replaced" true
    (Onepaxos.acceptor_changes h.replicas.(0) >= 1);
  check_safety ~cores:(onepaxos_cores h) h

let test_five_replicas () =
  let h = onepaxos_cluster ~n:5 () in
  for i = 0 to 9 do
    send h ~req_id:i (Command.Put { key = i; data = i })
  done;
  run_ms h 10;
  Alcotest.(check int) "commits on five replicas" 10 (List.length h.replies);
  check_safety ~cores:(onepaxos_cores h) h

let test_five_replicas_tolerate_non_critical_slowdowns () =
  (* With N=5, any node that is neither leader nor active acceptor can
     be arbitrarily slow without stalling anything. *)
  let h = onepaxos_cluster ~n:5 () in
  slow_core h ~core:3 ~from_ms:0 ~until_ms:100 ~factor:1e9;
  slow_core h ~core:4 ~from_ms:0 ~until_ms:100 ~factor:1e9;
  for i = 0 to 9 do
    send h ~req_id:i Command.Nop
  done;
  run_ms h 20;
  Alcotest.(check int) "progress with 2 of 5 slow" 10 (List.length h.replies);
  check_safety ~cores:(onepaxos_cores h) h

let test_deterministic_replay () =
  let run seed =
    let h = onepaxos_cluster ~seed () in
    for i = 0 to 9 do
      send h ~req_id:i Command.Nop
    done;
    run_ms h 10;
    List.map (fun (r, _, t) -> (r, t)) h.replies
  in
  Alcotest.(check (list (pair int int))) "same seed, same trace" (run 7) (run 7);
  ignore (run 8)

(* A backend whose failure-detector tick outlasts the lease (the live
   runtime's check period is 50 ms) must still keep a 20 ms lease held:
   the leader renews at the lease's own cadence, not the detector's.
   Ticking every 50 ms instead holds the lease about 40% of the time.
   Open-loop: one request every 200 µs for 400 ms, nine in ten a Get. *)
let test_lease_renewed_between_slow_ticks () =
  let h =
    onepaxos_cluster
      ~tweak:(fun c ->
        {
          c with
          Onepaxos.check_period = Sim_time.ms 50;
          lease = Sim_time.ms 20;
          lease_skew = Sim_time.us 200;
        })
      ()
  in
  let n = 2000 in
  let reads = ref 0 in
  for i = 0 to n - 1 do
    let key = i mod 64 in
    let cmd =
      if i mod 10 = 9 then Command.Put { key; data = i }
      else begin
        incr reads;
        Command.Get { key }
      end
    in
    send h ~req_id:i cmd;
    Machine.run_until h.machine ~time:(Sim_time.us (200 * (i + 1)))
  done;
  run_ms h 450;
  Alcotest.(check int) "every request answered" n (List.length h.replies);
  check_safety ~cores:(onepaxos_cores h) h;
  let served = Onepaxos.lease_reads h.replicas.(0) in
  Alcotest.(check bool)
    (Printf.sprintf "%d of %d reads served under the lease (>= 90%%)" served !reads)
    true
    (10 * served >= 9 * !reads)

let suite =
  ( "onepaxos",
    [
      Alcotest.test_case "failure-free commit" `Quick test_failure_free_commit;
      Alcotest.test_case "all learners learn" `Quick test_all_learners_learn;
      Alcotest.test_case "5 messages per commit (Figure 3)" `Quick
        test_message_count_per_commit;
      Alcotest.test_case "duplicate request served from cache" `Quick
        test_duplicate_request_replied_from_cache;
      Alcotest.test_case "instance pipelining" `Quick test_pipelining;
      Alcotest.test_case "relaxed local read (7.5)" `Quick test_relaxed_read_local;
      Alcotest.test_case "acceptor switch (5.2)" `Quick
        test_acceptor_switch_on_slow_acceptor;
      Alcotest.test_case "carried proposals survive switch (Lemma 2a)" `Quick
        test_uncommitted_proposals_survive_acceptor_switch;
      Alcotest.test_case "leader switch (5.3)" `Quick
        test_leader_switch_on_client_failover;
      Alcotest.test_case "acceptor node takes leadership (5.4)" `Quick
        test_acceptor_takes_over_leadership;
      Alcotest.test_case "blocks only with leader+acceptor both slow (5.4)" `Quick
        test_blocks_when_leader_and_acceptor_both_slow;
      Alcotest.test_case "silent acceptor reset detected (freshness)" `Quick
        test_acceptor_reset_detected;
      Alcotest.test_case "five replicas" `Quick test_five_replicas;
      Alcotest.test_case "N=5 tolerates non-critical slowdowns" `Quick
        test_five_replicas_tolerate_non_critical_slowdowns;
      Alcotest.test_case "deterministic replay" `Quick test_deterministic_replay;
      Alcotest.test_case "lease renewed between slow detector ticks" `Quick
        test_lease_renewed_between_slow_ticks;
    ] )
