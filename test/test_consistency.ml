module Consistency = Ci_rsm.Consistency

let view replica decisions fingerprint executed_prefix =
  { Consistency.replica; decisions; fingerprint; executed_prefix }

let check_all ?(proposed = fun _ -> true) ?(acked = []) views =
  Consistency.check ~equal:String.equal ~proposed ~acked
    ~key_of:(fun v -> (String.length v, 0))
    views

let test_clean () =
  let r =
    check_all
      [
        view 0 [ (0, "a"); (1, "b") ] 42 2;
        view 1 [ (0, "a"); (1, "b") ] 42 2;
      ]
  in
  Alcotest.(check bool) "ok" true (Consistency.ok r);
  Alcotest.(check int) "instances" 2 r.Consistency.checked_instances;
  Alcotest.(check int) "replicas" 2 r.Consistency.checked_replicas

let test_disagreement () =
  let r =
    check_all [ view 0 [ (0, "a") ] 1 1; view 1 [ (0, "DIFFERENT") ] 2 1 ]
  in
  Alcotest.(check bool) "not ok" false (Consistency.ok r);
  match r.Consistency.violations with
  | [ Consistency.Disagreement { inst = 0; a = 0; b = 1 }; _ ] | [ Consistency.Disagreement { inst = 0; a = 0; b = 1 } ] -> ()
  | v -> Alcotest.failf "unexpected violations (%d)" (List.length v)

let test_partial_views_ok () =
  (* A replica that learned fewer instances is not a violation. *)
  let r =
    check_all
      [ view 0 [ (0, "a"); (1, "b"); (2, "c") ] 1 3; view 1 [ (0, "a") ] 2 1 ]
  in
  Alcotest.(check bool) "lagging learner fine" true (Consistency.ok r)

let test_unproposed () =
  let r = check_all ~proposed:(fun v -> v <> "evil") [ view 0 [ (0, "evil") ] 1 1 ] in
  match r.Consistency.violations with
  | [ Consistency.Unproposed { replica = 0; inst = 0 } ] -> ()
  | _ -> Alcotest.fail "expected Unproposed"

let test_fingerprint_mismatch () =
  let r =
    check_all [ view 0 [ (0, "a") ] 111 1; view 1 [ (0, "a") ] 222 1 ]
  in
  match r.Consistency.violations with
  | [ Consistency.Fingerprint_mismatch { prefix = 1; _ } ] -> ()
  | _ -> Alcotest.fail "expected Fingerprint_mismatch"

let test_different_prefixes_not_compared () =
  let r = check_all [ view 0 [ (0, "a") ] 111 1; view 1 [] 222 0 ] in
  Alcotest.(check bool) "no cross-prefix comparison" true (Consistency.ok r)

let test_lost_ack () =
  let r = check_all ~acked:[ (1, 0); (9, 9) ] [ view 0 [ (0, "x") ] 1 1 ] in
  (* "x" has key (1,0); the (9,9) ack was never learned. *)
  match r.Consistency.violations with
  | [ Consistency.Lost_ack { client = 9; req_id = 9 } ] -> ()
  | _ -> Alcotest.fail "expected exactly the lost ack"

let test_pp () =
  let r = check_all [ view 0 [ (0, "a") ] 1 1; view 1 [ (0, "b") ] 1 1 ] in
  let s = Format.asprintf "%a" Consistency.pp r in
  Alcotest.(check bool) "mentions disagreement" true
    (String.length s > 0 && not (Consistency.ok r))

(* Every violation kind at once, the reported list pinned in full:
   agreement in view-then-instance order, then non-triviality, then
   state convergence, then lost acks in ack order. *)
let test_all_kinds_ordered () =
  let key_of v = (String.length v, Char.code v.[0]) in
  let r =
    Consistency.check ~equal:String.equal
      ~proposed:(fun v -> v <> "evil")
      ~acked:[ (1, Char.code 'a'); (7, 7); (1, Char.code 'z') ]
      ~key_of
      [
        view 0 [ (0, "a"); (1, "b"); (2, "evil") ] 10 3;
        view 1 [ (0, "a"); (1, "B"); (3, "x") ] 20 2;
        view 2 [ (0, "a"); (1, "b"); (2, "evil"); (3, "y") ] 11 3;
      ]
  in
  let violation = Alcotest.testable Consistency.pp_violation ( = ) in
  Alcotest.(check (list violation))
    "violations, in order"
    [
      Consistency.Disagreement { inst = 1; a = 0; b = 1 };
      Consistency.Disagreement { inst = 3; a = 1; b = 2 };
      Consistency.Unproposed { replica = 0; inst = 2 };
      Consistency.Unproposed { replica = 2; inst = 2 };
      Consistency.Fingerprint_mismatch { a = 0; b = 2; prefix = 3 };
      Consistency.Lost_ack { client = 7; req_id = 7 };
      Consistency.Lost_ack { client = 1; req_id = Char.code 'z' };
    ]
    r.Consistency.violations;
  Alcotest.(check int) "distinct instances" 4 r.Consistency.checked_instances;
  Alcotest.(check int) "replicas" 3 r.Consistency.checked_replicas

let suite =
  ( "consistency",
    [
      Alcotest.test_case "clean report" `Quick test_clean;
      Alcotest.test_case "disagreement detected" `Quick test_disagreement;
      Alcotest.test_case "lagging learner accepted" `Quick test_partial_views_ok;
      Alcotest.test_case "unproposed value detected" `Quick test_unproposed;
      Alcotest.test_case "state divergence detected" `Quick test_fingerprint_mismatch;
      Alcotest.test_case "different prefixes not compared" `Quick
        test_different_prefixes_not_compared;
      Alcotest.test_case "lost ack detected" `Quick test_lost_ack;
      Alcotest.test_case "report printing" `Quick test_pp;
      Alcotest.test_case "all four kinds, order pinned" `Quick test_all_kinds_ordered;
    ] )
