module Session_table = Ci_rsm.Session_table
module Command = Ci_rsm.Command

let test_find_missing () =
  let t = Session_table.create () in
  Alcotest.(check bool) "not executed" false (Session_table.executed t ~client:1 ~req_id:1);
  Alcotest.(check bool) "find none" true
    (Session_table.find t ~client:1 ~req_id:1 = None)

let test_record_and_find () =
  let t = Session_table.create () in
  Session_table.record t ~client:1 ~req_id:1 Command.Done;
  Alcotest.(check bool) "executed" true (Session_table.executed t ~client:1 ~req_id:1);
  (match Session_table.find t ~client:1 ~req_id:1 with
   | Some Command.Done -> ()
   | _ -> Alcotest.fail "cached result lost");
  Alcotest.(check int) "size" 1 (Session_table.size t)

let test_clients_isolated () =
  let t = Session_table.create () in
  Session_table.record t ~client:1 ~req_id:7 (Command.Found (Some 1));
  Alcotest.(check bool) "other client's req 7 not executed" false
    (Session_table.executed t ~client:2 ~req_id:7);
  Session_table.record t ~client:2 ~req_id:7 (Command.Found (Some 2));
  (match Session_table.find t ~client:1 ~req_id:7, Session_table.find t ~client:2 ~req_id:7 with
   | Some (Command.Found (Some 1)), Some (Command.Found (Some 2)) -> ()
   | _ -> Alcotest.fail "per-client results mixed up")

let test_double_record_asserts () =
  let t = Session_table.create () in
  Session_table.record t ~client:1 ~req_id:1 Command.Done;
  try
    Session_table.record t ~client:1 ~req_id:1 Command.Done;
    Alcotest.fail "double record accepted"
  with Assert_failure _ -> ()

(* Ids outside the dense per-client shape — a skip value's client -1,
   a huge client id, a request id far past the client's range — must
   round-trip like any other. *)
let test_odd_ids () =
  let t = Session_table.create () in
  let pairs =
    [ (-1, 0); (-1, 5); (70_000, 1); (3, 0); (3, 1 lsl 40); (3, 1); (-7, 2) ]
  in
  List.iteri
    (fun i (client, req_id) ->
      Session_table.record t ~client ~req_id (Command.Found (Some i)))
    pairs;
  List.iteri
    (fun i (client, req_id) ->
      match Session_table.find t ~client ~req_id with
      | Some (Command.Found (Some j)) when i = j -> ()
      | _ -> Alcotest.failf "lost (%d, %d)" client req_id)
    pairs;
  Alcotest.(check int) "size" (List.length pairs) (Session_table.size t);
  Alcotest.(check bool) "absent pair" false (Session_table.executed t ~client:3 ~req_id:2)

let suite =
  ( "session_table",
    [
      Alcotest.test_case "missing lookups" `Quick test_find_missing;
      Alcotest.test_case "ids outside the dense shape" `Quick test_odd_ids;
      Alcotest.test_case "record and find" `Quick test_record_and_find;
      Alcotest.test_case "clients isolated" `Quick test_clients_isolated;
      Alcotest.test_case "double record rejected" `Quick test_double_record_asserts;
    ] )
