(* The shared deployment pieces, exercised without any backend: the
   post-run audit over synthetic replica views, and the node layout
   both runners build on. *)

module Audit = Ci_consensus.Audit
module Deployment = Ci_workload.Deployment
module Protocol = Ci_consensus.Protocol
module Shard = Ci_consensus.Shard
module Wire = Ci_consensus.Wire
module Command = Ci_rsm.Command
module Consistency = Ci_rsm.Consistency
module Atomicity = Ci_rsm.Atomicity

(* ----- audit ----------------------------------------------------------- *)

let groups = 2
let client = 10

(* The first keys owned by group 0 and by group 1. *)
let key_in g =
  let rec go k = if Shard.group_of_key ~groups k = g then k else go (k + 1) in
  go 0

let value ~client ~req_id cmd = { Wire.client; req_id; cmd }

let view replica decisions =
  {
    Consistency.replica;
    decisions = List.mapi (fun i v -> (i, v)) decisions;
    fingerprint = 0;
    executed_prefix = List.length decisions;
  }

(* Two replicas per group, each group's replicas agreeing on [g0] resp.
   [g1]. *)
let two_groups g0 g1 = [ [ view 0 g0; view 1 g0 ]; [ view 2 g1; view 3 g1 ] ]

let audit ~issued ~acked ?(txns = []) views =
  Audit.check
    ~issued:(fun ~client ~req_id -> List.assoc_opt (client, req_id) issued)
    ~acked:(fun f -> List.iter (fun (client, req_id) -> f client req_id) acked)
    ~logs:(List.map (List.map Consistency.log_of_view) views)
    ~txns

let lost_acks (r : Consistency.report) =
  List.filter
    (function Consistency.Lost_ack _ -> true | _ -> false)
    r.Consistency.violations

let test_single_shard_owner () =
  let cmd = Command.Put { key = key_in 0; data = 7 } in
  let v = value ~client ~req_id:0 cmd in
  let issued = [ ((client, 0), cmd) ] and acked = [ (client, 0) ] in
  let owner_learned, atomicity = audit ~issued ~acked (two_groups [ v ] []) in
  Alcotest.(check bool) "learned by its owner: consistent" true
    (Consistency.ok owner_learned);
  Alcotest.(check bool) "sharded audits report atomicity" true (atomicity <> None);
  Alcotest.(check int) "every replica checked" 4
    owner_learned.Consistency.checked_replicas;
  let other_learned, _ = audit ~issued ~acked (two_groups [] [ v ]) in
  Alcotest.(check int) "missing from its owner: one lost ack" 1
    (List.length (lost_acks other_learned))

let test_cross_shard_missing_commit () =
  let k1 = key_in 0 and k2 = key_in 1 in
  let mput = Command.Mput { k1; d1 = 1; k2; d2 = 2 } in
  let issued = [ ((client, 0), mput) ] and acked = [ (client, 0) ] in
  (* The router's participants propose the transaction's halves under
     their own identities. *)
  let prep g key data = value ~client:(g * 2) ~req_id:0 (Command.Prep { txn = 1; key; data }) in
  let fin g key = value ~client:(g * 2) ~req_id:1 (Command.Fin { txn = 1; key; commit = true }) in
  let issued =
    issued
    @ List.map
        (fun (v : Wire.value) -> ((v.Wire.client, v.Wire.req_id), v.Wire.cmd))
        [ prep 0 k1 1; fin 0 k1; prep 1 k2 2; fin 1 k2 ]
  in
  let txns =
    [
      {
        Atomicity.txn = 1;
        client;
        req_id = 0;
        parts = [ (0, k1, 1); (1, k2, 2) ];
        outcome = Atomicity.Committed;
      };
    ]
  in
  let consistency, atomicity =
    audit ~issued ~acked ~txns
      (two_groups [ prep 0 k1 1; fin 0 k1 ] [ prep 1 k2 2; fin 1 k2 ])
  in
  Alcotest.(check bool) "committed everywhere: consistent" true
    (Consistency.ok consistency);
  Alcotest.(check bool) "committed everywhere: atomic" true
    (Atomicity.ok (Option.get atomicity));
  let consistency, atomicity =
    audit ~issued ~acked ~txns (two_groups [ prep 0 k1 1; fin 0 k1 ] [ prep 1 k2 2 ])
  in
  Alcotest.(check bool) "a cross-shard ack is not a per-group lost ack" true
    (Consistency.ok consistency);
  Alcotest.(check bool) "group 1 never decided the commit" true
    (List.exists
       (function Atomicity.Missing_commit { txn = 1; group = 1 } -> true | _ -> false)
       (Option.get atomicity).Atomicity.violations)

let test_mencius_skips_proposed () =
  let skip = { Wire.client = -1; req_id = 0; cmd = Command.Nop } in
  let stray = value ~client ~req_id:5 (Command.Put { key = 1; data = 1 }) in
  let r, atomicity = audit ~issued:[] ~acked:[] [ [ view 0 [ skip ]; view 1 [ skip ] ] ] in
  Alcotest.(check bool) "skip placeholder counts as proposed" true (Consistency.ok r);
  Alcotest.(check bool) "single group: no atomicity verdict" true (atomicity = None);
  let r, _ = audit ~issued:[] ~acked:[] [ [ view 0 [ stray ] ] ] in
  Alcotest.(check bool) "an unissued value is not" false (Consistency.ok r)

(* ----- layout ----------------------------------------------------------- *)

let deployment ?(protocol = Protocol.Onepaxos) ~groups ~replicas ~clients () =
  {
    Deployment.protocol;
    groups;
    replicas;
    clients;
    joint = false;
    cross_shard_ratio = 0.;
    tuning = Protocol.default_tuning;
    timeout = 1;
    think = 0;
    read_ratio = 0.;
    key_space = 64;
    max_requests = None;
    open_loop = None;
    nemesis = Ci_faults.empty;
  }

let ints = Alcotest.(array int)

let layout d =
  ( Array.init (Deployment.total_replicas d) Fun.id,
    Array.init (Deployment.n_routers d) (Deployment.router_id d),
    Array.init d.Deployment.clients (Deployment.client_id d),
    Array.init d.Deployment.clients (Deployment.primary d),
    Array.init (Deployment.n_routers d) (Deployment.entry d) )

(* Node ids are part of the figures' oracle: replicas group-major,
   routers next, clients last, as both runners number them. *)
let test_layout_one_group () =
  let d = deployment ~groups:1 ~replicas:3 ~clients:2 () in
  let replicas, routers, clients, primaries, participants = layout d in
  Alcotest.check ints "replicas" [| 0; 1; 2 |] replicas;
  Alcotest.check ints "no routers" [||] routers;
  Alcotest.check ints "clients" [| 3; 4 |] clients;
  Alcotest.check ints "targets are the replicas" [| 0; 1; 2 |] (Deployment.targets d);
  Alcotest.check ints "everyone starts at the leader" [| 0; 0 |] primaries;
  Alcotest.check ints "no participants" [||] participants;
  Alcotest.(check int) "nodes" 5 (Deployment.n_nodes d);
  let mencius = deployment ~protocol:Protocol.Mencius ~groups:1 ~replicas:3 ~clients:4 () in
  Alcotest.check ints "Mencius spreads clients over owners" [| 0; 1; 2; 0 |]
    (Array.init 4 (Deployment.primary mencius));
  let joint = { d with Deployment.joint = true } in
  Alcotest.check ints "joint clients live on the replicas" [| 0; 1; 2 |]
    (Array.init 3 (Deployment.client_id joint));
  Alcotest.(check int) "joint nodes" 3 (Deployment.n_nodes joint)

let test_layout_two_groups () =
  let d = deployment ~groups:2 ~replicas:2 ~clients:3 () in
  let replicas, routers, clients, primaries, participants = layout d in
  Alcotest.check ints "replicas" [| 0; 1; 2; 3 |] replicas;
  Alcotest.check ints "one router per group" [| 4; 5 |] routers;
  Alcotest.check ints "clients" [| 6; 7; 8 |] clients;
  Alcotest.check ints "targets are the routers" [| 4; 5 |] (Deployment.targets d);
  Alcotest.check ints "clients spread over routers" [| 0; 1; 0 |] primaries;
  Alcotest.check ints "participants on entry replicas" [| 0; 2 |] participants;
  Alcotest.check ints "group 1" [| 2; 3 |] (Deployment.group_members d 1);
  Alcotest.(check int) "replica 3's group" 1 (Deployment.group_of d 3);
  Alcotest.(check int) "nodes" 9 (Deployment.n_nodes d)

let suite =
  ( "deployment",
    [
      Alcotest.test_case "audit: single-shard ack checked by its owner" `Quick
        test_single_shard_owner;
      Alcotest.test_case "audit: cross-shard missing commit" `Quick
        test_cross_shard_missing_commit;
      Alcotest.test_case "audit: Mencius skips are proposed" `Quick
        test_mencius_skips_proposed;
      Alcotest.test_case "layout: one group" `Quick test_layout_one_group;
      Alcotest.test_case "layout: two groups" `Quick test_layout_two_groups;
    ] )
