module Op_log = Ci_rsm.Op_log

let test_in_order () =
  let l = Op_log.create () in
  Alcotest.(check int) "gap at 0" 0 (Op_log.first_gap l);
  (match Op_log.decide l ~inst:0 "a" with `New -> () | _ -> Alcotest.fail "new");
  (match Op_log.decide l ~inst:1 "b" with `New -> () | _ -> Alcotest.fail "new");
  Alcotest.(check int) "gap moves" 2 (Op_log.first_gap l);
  Alcotest.(check int) "count" 2 (Op_log.decided_count l);
  Alcotest.(check (option int)) "highest" (Some 1) (Op_log.highest_decided l);
  Alcotest.(check (option string)) "lookup" (Some "b") (Op_log.get l ~inst:1)

let test_out_of_order_gap () =
  let l = Op_log.create () in
  ignore (Op_log.decide l ~inst:2 "c");
  Alcotest.(check int) "gap stays at 0" 0 (Op_log.first_gap l);
  Alcotest.(check (option int)) "highest jumps" (Some 2) (Op_log.highest_decided l);
  ignore (Op_log.decide l ~inst:0 "a");
  Alcotest.(check int) "gap at 1" 1 (Op_log.first_gap l);
  ignore (Op_log.decide l ~inst:1 "b");
  Alcotest.(check int) "gap closes through 2" 3 (Op_log.first_gap l)

let test_duplicate () =
  let l = Op_log.create () in
  ignore (Op_log.decide l ~inst:0 "a");
  (match Op_log.decide l ~inst:0 "a" with
   | `Duplicate -> ()
   | `New | `Conflict _ -> Alcotest.fail "expected Duplicate");
  Alcotest.(check int) "count unchanged" 1 (Op_log.decided_count l)

let test_conflict () =
  let l = Op_log.create () in
  ignore (Op_log.decide l ~inst:0 "a");
  (match Op_log.decide l ~inst:0 "b" with
   | `Conflict prev -> Alcotest.(check string) "previous value" "a" prev
   | `New | `Duplicate -> Alcotest.fail "expected Conflict");
  Alcotest.(check (option string)) "first write wins" (Some "a") (Op_log.get l ~inst:0);
  Alcotest.(check int) "conflict recorded" 1 (List.length (Op_log.conflicts l))

let test_custom_equal () =
  let l = Op_log.create ~equal:(fun a b -> String.lowercase_ascii a = String.lowercase_ascii b) () in
  ignore (Op_log.decide l ~inst:0 "Hello");
  (match Op_log.decide l ~inst:0 "HELLO" with
   | `Duplicate -> ()
   | `New | `Conflict _ -> Alcotest.fail "custom equal ignored")

let test_to_list_sorted () =
  let l = Op_log.create () in
  List.iter (fun (i, v) -> ignore (Op_log.decide l ~inst:i v))
    [ (3, "d"); (0, "a"); (2, "c"); (1, "b") ];
  Alcotest.(check (list (pair int string)))
    "sorted"
    [ (0, "a"); (1, "b"); (2, "c"); (3, "d") ]
    (Op_log.to_list l)

let test_iter_prefix () =
  let l = Op_log.create () in
  List.iter (fun i -> ignore (Op_log.decide l ~inst:i i)) [ 0; 1; 2; 4; 5 ];
  let seen = ref [] in
  let next = Op_log.iter_prefix l ~from_:0 (fun i _ -> seen := i :: !seen) in
  Alcotest.(check (list int)) "contiguous prefix" [ 0; 1; 2 ] (List.rev !seen);
  Alcotest.(check int) "stops at gap" 3 next;
  ignore (Op_log.decide l ~inst:3 3);
  let seen2 = ref [] in
  let next2 = Op_log.iter_prefix l ~from_:next (fun i _ -> seen2 := i :: !seen2) in
  Alcotest.(check (list int)) "resumes" [ 3; 4; 5 ] (List.rev !seen2);
  Alcotest.(check int) "new gap" 6 next2

let test_negative_instance () =
  let l = Op_log.create () in
  try
    ignore (Op_log.decide l ~inst:(-1) "x");
    Alcotest.fail "negative instance accepted"
  with Invalid_argument _ -> ()

(* Property: for any insertion order of distinct instances, first_gap is
   the smallest missing natural and to_list is sorted. *)
let prop_gap_correct =
  QCheck.Test.make ~name:"first_gap = mex of decided set" ~count:200
    QCheck.(list (int_bound 30))
    (fun insts ->
      let l = Op_log.create () in
      List.iter (fun i -> ignore (Op_log.decide l ~inst:i i)) insts;
      let decided = List.sort_uniq compare insts in
      let rec mex n = if List.mem n decided then mex (n + 1) else n in
      Op_log.first_gap l = mex 0
      && Op_log.to_list l = List.map (fun i -> (i, i)) decided)

(* Property: the log behaves exactly like a plain hash table of first
   decisions — out-of-order, duplicate and conflicting decisions and
   large gaps included. The model is the obvious Hashtbl log; [iter],
   [to_list], [to_list_from] and [iter_prefix] must all read the model's
   sorted bindings. *)
module Model = struct
  type t = { tbl : (int, int) Hashtbl.t; mutable bad : (int * int * int) list }

  let create () = { tbl = Hashtbl.create 16; bad = [] }

  let decide m ~inst v =
    match Hashtbl.find_opt m.tbl inst with
    | Some prev when prev = v -> `Duplicate
    | Some prev ->
      m.bad <- (inst, prev, v) :: m.bad;
      `Conflict prev
    | None ->
      Hashtbl.add m.tbl inst v;
      `New

  let to_list m =
    List.sort compare (Hashtbl.fold (fun i v acc -> (i, v) :: acc) m.tbl [])

  let rec gap_from m i = if Hashtbl.mem m.tbl i then gap_from m (i + 1) else i
  let highest m = Hashtbl.fold (fun i _ acc -> Some (max i (Option.value acc ~default:i))) m.tbl None
end

(* Instances cluster near 0 (so duplicates and conflicts are common)
   with an occasional jump far out; values come from a tiny alphabet. *)
let op_gen =
  QCheck.Gen.(
    pair
      (frequency [ (8, int_bound 40); (1, int_range 1_000 100_000) ])
      (int_bound 2))

let prop_matches_model =
  QCheck.Test.make ~name:"op_log agrees with a hashtable model" ~count:300
    QCheck.(
      make
        ~print:Print.(pair (list (pair int int)) (list int))
        Gen.(pair (list_size (int_bound 120) op_gen) (list_size (int_bound 5) (int_bound 60))))
    (fun (ops, froms) ->
      let l = Op_log.create () and m = Model.create () in
      let same_outcome =
        List.for_all (fun (inst, v) -> Op_log.decide l ~inst v = Model.decide m ~inst v) ops
      in
      let prefix_of f from_ =
        let seen = ref [] in
        let next = f ~from_ (fun i v -> seen := (i, v) :: !seen) in
        (next, List.rev !seen)
      in
      let model_prefix ~from_ f =
        let i = ref from_ in
        while Hashtbl.mem m.Model.tbl !i do
          f !i (Hashtbl.find m.Model.tbl !i);
          incr i
        done;
        !i
      in
      let iterated =
        let seen = ref [] in
        Op_log.iter l (fun i v -> seen := (i, v) :: !seen);
        List.rev !seen
      in
      same_outcome
      && Op_log.to_list l = Model.to_list m
      && iterated = Model.to_list m
      && Op_log.first_gap l = Model.gap_from m 0
      && Op_log.highest_decided l = Model.highest m
      && Op_log.decided_count l = Hashtbl.length m.Model.tbl
      && Op_log.conflicts l = List.rev m.Model.bad
      && List.for_all
           (fun from_ ->
             prefix_of (fun ~from_ f -> Op_log.iter_prefix l ~from_ f) from_
             = prefix_of model_prefix from_
             && Op_log.to_list_from l ~from_
                = List.filter (fun (i, _) -> i >= from_) (Model.to_list m))
           froms
      && List.for_all
           (fun (inst, _) ->
             Op_log.get l ~inst = Hashtbl.find_opt m.Model.tbl inst
             && Op_log.is_decided l ~inst = Hashtbl.mem m.Model.tbl inst)
           ops)

let suite =
  ( "op_log",
    [
      Alcotest.test_case "in-order decisions" `Quick test_in_order;
      Alcotest.test_case "out-of-order gaps" `Quick test_out_of_order_gap;
      Alcotest.test_case "duplicate decision" `Quick test_duplicate;
      Alcotest.test_case "conflicting decision" `Quick test_conflict;
      Alcotest.test_case "custom equality" `Quick test_custom_equal;
      Alcotest.test_case "to_list sorted" `Quick test_to_list_sorted;
      Alcotest.test_case "iter_prefix" `Quick test_iter_prefix;
      Alcotest.test_case "negative instance rejected" `Quick test_negative_instance;
      QCheck_alcotest.to_alcotest prop_gap_correct;
      QCheck_alcotest.to_alcotest ~speed_level:`Quick prop_matches_model;
    ] )
