(* End-to-end tests of the live runtime: the same protocol cores the
   simulator drives, here on real domains over SPSC queues. Runs are
   kept short (a couple hundred ms) — the point is that every reply the
   clients saw checks out against the replicas' joined views, not the
   throughput number. *)

module Live = Ci_runtime.Live
module Runner = Ci_workload.Runner
module Protocol = Ci_consensus.Protocol
module Consistency = Ci_rsm.Consistency

let short_spec protocol =
  {
    (Live.default_spec ~protocol) with
    Live.duration_s = 0.15;
    drain_s = 0.1;
  }

let check_live name (r : Live.result) =
  if not (Consistency.ok r.Live.consistency) then
    Alcotest.failf "%s: %a" name Consistency.pp r.Live.consistency;
  if r.Live.ops <= 0 then Alcotest.failf "%s: no operations completed" name;
  Alcotest.(check int) (name ^ ": latency samples") r.Live.ops
    r.Live.latency.Ci_stats.Summary.count

let test_live_onepaxos () =
  let r = Live.run (short_spec Live.Onepaxos) in
  check_live "1paxos" r;
  Alcotest.(check int) "no acceptor changes" 0 r.Live.acceptor_changes

let test_live_multipaxos () =
  let r = Live.run (short_spec Live.Multipaxos) in
  check_live "multipaxos" r

let test_live_five_replicas () =
  let r = Live.run { (short_spec Live.Onepaxos) with Live.n_replicas = 5 } in
  check_live "1paxos x5" r

let test_tiny_queues () =
  (* 1-slot rings force every send through the outbox fallback; the
     run must still complete and stay consistent. *)
  let r = Live.run { (short_spec Live.Onepaxos) with Live.queue_slots = 1 } in
  check_live "1paxos slots=1" r;
  Alcotest.(check bool) "peak bounded" true
    (r.Live.queues.Live.q_occupancy_peak <= 1)

(* Conformance: the identical protocol core, read workload and checker,
   once under the simulator and once on the metal. Both backends must
   commit work and pass the consistency check — the seam
   (Ci_engine.Node_env) is only honest if nothing protocol-visible
   depends on which backend is underneath. *)
let conformance protocol sim_protocol () =
  let live = Live.run { (short_spec protocol) with Live.read_ratio = 0.3 } in
  check_live "live backend" live;
  let sim =
    Runner.run
      {
        (Runner.default_spec ~protocol:sim_protocol
           ~placement:(Runner.Dedicated { n_replicas = 3; n_clients = 2 }))
        with
        Runner.read_ratio = 0.3;
      }
  in
  if not (Consistency.ok sim.Runner.consistency) then
    Alcotest.failf "sim backend: %a" Consistency.pp sim.Runner.consistency;
  if sim.Runner.commits <= 0 then Alcotest.fail "sim backend: no commits"

(* Sharded live runs: 2 groups x 2 replicas plus a router per group on
   real domains, 30% of commands cross-shard 2PC multi-puts. Both the
   per-group consistency check and the cross-shard atomicity check must
   sign off. *)
let sharded_spec protocol =
  {
    (Live.default_spec ~protocol) with
    Live.n_replicas = 2;
    n_clients = 2;
    groups = 2;
    cross_shard_ratio = 0.3;
    duration_s = 0.25;
    drain_s = 0.15;
  }

let check_sharded name (r : Live.result) =
  check_live name r;
  match r.Live.atomicity with
  | None -> Alcotest.fail (name ^ ": no atomicity report at groups=2")
  | Some a ->
    if not (Ci_rsm.Atomicity.ok a) then
      Alcotest.failf "%s: %a" name Ci_rsm.Atomicity.pp a;
    Alcotest.(check bool)
      (name ^ ": cross-shard txns resolved")
      true
      (a.Ci_rsm.Atomicity.committed + a.Ci_rsm.Atomicity.aborted > 0)

let test_live_sharded_onepaxos () =
  check_sharded "1paxos sharded" (Live.run (sharded_spec Live.Onepaxos))

let test_live_sharded_multipaxos () =
  check_sharded "multipaxos sharded" (Live.run (sharded_spec Live.Multipaxos))

(* The PR-3 allocation diet, extended to the live hot path: words
   allocated per committed op across the replica and router domains
   (Gc.allocated_bytes is domain-local), on a sharded run so the
   router/2PC path is included. The fixed-slot codec and the
   allocation-free event loop brought this from ~15k words/op down to
   ~800 on a 1-core host; the 8k bound keeps headroom for short
   oversubscribed runs (domain startup amortizes badly) while pinning
   the order of magnitude — a per-event closure or ref sneaking back
   into the loop blows straight through it. *)
let test_live_alloc_budget () =
  let r =
    Live.run { (sharded_spec Live.Onepaxos) with Live.duration_s = 0.4 }
  in
  check_sharded "alloc run" r;
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words/op <= 8k budget" r.Live.alloc_words_per_op)
    true
    (r.Live.alloc_words_per_op > 0. && r.Live.alloc_words_per_op <= 8_000.)

(* Open-loop drivers and leader leases on real domains: the live halves
   of the lib/load subsystem (the simulator halves live in Test_load). *)

let open_loop_spec protocol =
  {
    (short_spec protocol) with
    Live.open_loop =
      Some
        {
          Runner.default_open_loop with
          Runner.arrival = Ci_load.Arrival.Fixed 5_000.;
          key_space = 1024;
          mix = { Ci_load.Open_client.reads = 0.6; cas = 0.05; ranges = 0.05 };
          sessions = 8;
        };
  }

let check_live_open name (r : Live.result) =
  if not (Consistency.ok r.Live.consistency) then
    Alcotest.failf "%s: %a" name Consistency.pp r.Live.consistency;
  let sink =
    match r.Live.load with
    | Some s -> s
    | None -> Alcotest.failf "%s: no load sink on an open-loop run" name
  in
  Alcotest.(check bool)
    (name ^ ": completions") true
    (Ci_load.Load_stats.completed sink > 0);
  Alcotest.(check int)
    (name ^ ": no stale session reads")
    0
    (Ci_load.Load_stats.stale_reads sink)

let test_live_open_loop () =
  List.iter
    (fun (name, protocol) ->
      check_live_open name (Live.run (open_loop_spec protocol)))
    [ ("1paxos", Live.Onepaxos); ("multipaxos", Live.Multipaxos) ]

(* 1Paxos renews its lease at the lease's own cadence even though the
   live failure detector ticks only every 50 ms, so the leader holds the
   lease nearly all the time and serves nearly every read locally. The
   reads completed are estimated from the mix (Get and Range). *)
let test_live_lease_reads () =
  List.iter
    (fun (name, protocol, min_share) ->
      let spec =
        {
          (open_loop_spec protocol) with
          Live.duration_s = 0.3;
          lease = 20_000_000 (* 20 ms *);
          lease_skew = 200_000;
        }
      in
      let r = Live.run spec in
      check_live_open name r;
      let mix = (Option.get spec.Live.open_loop).Runner.mix in
      let reads =
        float_of_int (Ci_load.Load_stats.completed (Option.get r.Live.load))
        *. (mix.Ci_load.Open_client.reads +. mix.Ci_load.Open_client.ranges)
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d of ~%.0f reads served under the lease" name
           r.Live.lease_reads reads)
        true
        (r.Live.lease_reads > 0
        && float_of_int r.Live.lease_reads >= min_share *. reads))
    [ ("1paxos", Live.Onepaxos, 0.8); ("multipaxos", Live.Multipaxos, 0.) ]

(* The idle path allocates nothing: a protocol node parks on a futex,
   not a [select] that builds lists and a result tuple on every park.
   At 2k ops/s the nodes park between nearly every pair of requests, so
   an allocating park shows straight through the per-op figure (about
   400 words/op with [select]); the requests themselves, served mostly
   under the lease, cost well under 100. *)
let test_live_idle_alloc () =
  let spec =
    {
      (short_spec Live.Onepaxos) with
      Live.n_clients = 1;
      duration_s = 1.0;
      lease = 20_000_000;
      lease_skew = 200_000;
      open_loop =
        Some
          {
            Runner.default_open_loop with
            Runner.arrival = Ci_load.Arrival.Poisson 2000.;
            key_space = 65536;
            mix = { Ci_load.Open_client.reads = 0.9; cas = 0.; ranges = 0. };
          };
    }
  in
  let r = Live.run spec in
  check_live_open "idle alloc" r;
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words/op <= 100" r.Live.alloc_words_per_op)
    true
    (r.Live.alloc_words_per_op > 0. && r.Live.alloc_words_per_op <= 100.)

(* Doorbell parking under pressure: two domains ping-pong 20k
   messages. Node 0 parks after every empty drain; node 1 polls for a
   while first, and both hold each reply, and each park, back by a
   varying few spins, so replies land all over the other side's
   drain/park/re-check/block sequence. A lost wake-up leaves a side
   parked until its 10 s deadline, which the elapsed-time bound
   catches. (A park that skips the re-check loses wake-ups here.) *)
let test_doorbell_ping_pong () =
  let module T = Ci_runtime.Transport in
  let module Clock = Ci_runtime.Clock in
  let rounds = 20_000 in
  let mesh = T.rings_mesh ~n:2 ~slots:4 ~slot_size:128 in
  let bells = T.doorbells 2 in
  let ping i = Ci_consensus.Wire.Reply { req_id = i; result = Ci_rsm.Command.Done } in
  (* Node 0 sends [i] and waits for its echo before sending [i + 1];
     node 1 echoes. Both return how many messages they received, and
     both give up once the elapsed-time bound has passed. *)
  let t0 = Unix.gettimeofday () in
  let play id =
    let tr = T.rings_endpoint mesh ~id ~outbox_cap:4 ~doorbells:bells in
    let received = ref 0 in
    let handle ~src msg =
      match msg with
      | Ci_consensus.Wire.Reply { req_id; _ } ->
        if req_id <> !received then
          Alcotest.failf "node %d: got %d, expected %d" id req_id !received;
        incr received;
        for _ = 1 to (req_id * 7) mod 61 do
          Domain.cpu_relax ()
        done;
        if id = 1 then T.send tr ~dst:src msg
        else if !received < rounds then T.send tr ~dst:src (ping !received)
      | _ -> Alcotest.fail "unexpected message"
    in
    if id = 0 then T.send tr ~dst:1 (ping 0);
    let idle = ref 0 in
    while !received < rounds && Unix.gettimeofday () -. t0 < 8. do
      if T.drain tr handle > 0 then idle := 0
      else begin
        incr idle;
        if id = 0 || !idle > 500 then begin
          (* A reply that lands between this empty drain and the park
             must be caught by [wait]'s re-check, not slept through. *)
          for _ = 1 to (!received * 13) mod 29 do
            Domain.cpu_relax ()
          done;
          T.wait tr ~deadline:(Clock.now_ns () + 10_000_000_000)
        end
        else Domain.cpu_relax ()
      end
    done;
    !received
  in
  let echo = Domain.spawn (fun () -> play 1) in
  let got = play 0 in
  let echoed = Domain.join echo in
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check (pair int int)) "every ping echoed" (rounds, rounds) (got, echoed);
  Alcotest.(check bool)
    (Printf.sprintf "no lost wake-up (%.2f s for %d round trips)" elapsed rounds)
    true (elapsed < 8.)

(* A rings run opens no descriptors at all (its doorbells are futex
   words, not pipes): whatever it might open must be closed again when
   [Live.run] returns. *)
let test_live_closes_fds () =
  let open_fds () = Array.length (Sys.readdir "/proc/self/fd") in
  if not (Sys.file_exists "/proc/self/fd") then
    print_endline "no /proc/self/fd on this host; skipping"
  else begin
    let before = open_fds () in
    check_live "fd run" (Live.run (short_spec Live.Onepaxos));
    Alcotest.(check int) "open descriptors unchanged" before (open_fds ())
  end

let test_validation () =
  let expect_invalid name spec =
    match Live.run spec with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: accepted a malformed spec" name
  in
  let ok = Live.default_spec ~protocol:Live.Onepaxos in
  List.iter
    (fun p -> expect_invalid (Protocol.name p) { ok with Live.protocol = p })
    [ Live.Twopc; Live.Mencius; Live.Cheappaxos ];
  expect_invalid "replicas" { ok with Live.n_replicas = 1 };
  expect_invalid "clients" { ok with Live.n_clients = 0 };
  expect_invalid "duration" { ok with Live.duration_s = 0. };
  expect_invalid "NaN duration" { ok with Live.duration_s = Float.nan };
  expect_invalid "drain" { ok with Live.drain_s = -0.1 };
  expect_invalid "NaN drain" { ok with Live.drain_s = Float.nan };
  expect_invalid "slots" { ok with Live.queue_slots = 0 };
  expect_invalid "slot size not a power of two" { ok with Live.slot_size = 96 };
  expect_invalid "slot size below minimum"
    { ok with Live.slot_size = Ci_runtime.Spsc_bytes.min_slot_size / 2 };
  expect_invalid "timeout" { ok with Live.client_timeout = 0 };
  expect_invalid "read ratio" { ok with Live.read_ratio = 1.5 };
  expect_invalid "groups" { ok with Live.groups = 0 };
  expect_invalid "cross-shard ratio < 0" { ok with Live.cross_shard_ratio = -0.1 };
  expect_invalid "cross-shard ratio > 1" { ok with Live.cross_shard_ratio = 1.1 };
  expect_invalid "socket transport with groups > 1"
    { ok with Live.transport = Live.Socket; groups = 2 };
  expect_invalid "negative lease" { ok with Live.lease = -1 };
  expect_invalid "lease skew >= lease"
    { ok with Live.lease = 100; lease_skew = 100 };
  expect_invalid "socket transport with the open-loop driver"
    {
      ok with
      Live.transport = Live.Socket;
      open_loop = Some Runner.default_open_loop;
    };
  expect_invalid "socket transport with a nemesis"
    {
      ok with
      Live.transport = Live.Socket;
      nemesis =
        {
          Ci_faults.seed = 1;
          faults = [ Ci_faults.Crash { node = 0; at = 1; down_for = None } ];
        };
    }

let test_protocol_names () =
  (* The live runtime parses protocol names like every front end;
     [Live.run] rejects the three it does not run (see [test_validation]). *)
  List.iter
    (fun (s, expect) ->
      Alcotest.(check (option string)) s expect
        (Option.map Protocol.name (Protocol.of_string s)))
    [
      ("onepaxos", Some "1paxos");
      ("1paxos", Some "1paxos");
      ("multipaxos", Some "multipaxos");
      ("multi-paxos", Some "multipaxos");
      ("2pc", Some "2pc");
    ];
  List.iter
    (fun (s, expect) ->
      Alcotest.(check (option string)) s expect
        (Option.map Live.transport_name (Live.transport_of_string s)))
    [
      ("spsc", Some "spsc");
      ("rings", Some "spsc");
      ("socket", Some "socket");
      ("sockets", Some "socket");
      ("rdma", None);
    ]

(* Socket transport smoke: OCaml 5 refuses Unix.fork once a process has
   spawned any domain — and the suites before this one spawn plenty —
   so the run happens in a fresh process via the CLI (Sys.command goes
   through libc system(3), whose fork+exec never runs OCaml code in the
   child). Exit 0 means the run completed AND the consistency check
   signed off; exit 3 is the CLI's "sockets unavailable on this host"
   skip. *)
let test_socket_smoke () =
  let candidates =
    [ "../bin/consensus_sim.exe"; "_build/default/bin/consensus_sim.exe" ]
  in
  match List.find_opt Sys.file_exists candidates with
  | None -> Printf.printf "consensus_sim.exe not found; skipping\n"
  | Some exe ->
    List.iter
      (fun protocol ->
        let cmd =
          Printf.sprintf
            "%s live -p %s --transport socket -d 0.2 --drain-s 0.1 >/dev/null"
            (Filename.quote exe) protocol
        in
        match Sys.command cmd with
        | 0 -> ()
        | 3 -> Printf.printf "sockets unavailable; skipping %s\n" protocol
        | rc -> Alcotest.failf "socket live %s: exit %d" protocol rc)
      [ "onepaxos"; "multipaxos" ]

let suite =
  ( "runtime",
    [
      Alcotest.test_case "live 1paxos: consistent, makes progress" `Quick
        test_live_onepaxos;
      Alcotest.test_case "live multipaxos: consistent, makes progress" `Quick
        test_live_multipaxos;
      Alcotest.test_case "live 1paxos, 5 replicas" `Quick test_live_five_replicas;
      Alcotest.test_case "1-slot rings: outbox fallback stays consistent" `Quick
        test_tiny_queues;
      Alcotest.test_case "sim vs runtime conformance (1paxos)" `Quick
        (conformance Live.Onepaxos Runner.Onepaxos);
      Alcotest.test_case "sim vs runtime conformance (multipaxos)" `Quick
        (conformance Live.Multipaxos Runner.Multipaxos);
      Alcotest.test_case "live sharded 1paxos: consistent and atomic" `Quick
        test_live_sharded_onepaxos;
      Alcotest.test_case "live sharded multipaxos: consistent and atomic" `Quick
        test_live_sharded_multipaxos;
      Alcotest.test_case "live alloc words/op budget (sharded hot path)" `Quick
        test_live_alloc_budget;
      Alcotest.test_case "live open-loop drivers: sessions read their writes"
        `Quick test_live_open_loop;
      Alcotest.test_case "live leases serve local reads" `Quick
        test_live_lease_reads;
      Alcotest.test_case "live idle path: <= 100 words/op at 2k ops/s" `Quick
        test_live_idle_alloc;
      Alcotest.test_case "doorbells: 20k ping-pongs, no lost wake-up" `Quick
        test_doorbell_ping_pong;
      Alcotest.test_case "live run closes its descriptors" `Quick test_live_closes_fds;
      Alcotest.test_case "spec validation" `Quick test_validation;
      Alcotest.test_case "protocol and transport name parsing" `Quick
        test_protocol_names;
      Alcotest.test_case "socket transport: both protocols consistent" `Quick
        test_socket_smoke;
    ] )
