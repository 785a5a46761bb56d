(* Self-tests of the benchmark's own machinery: the ladder harness, the
   span self-time arithmetic, and the metric schema against
   BENCHMARK.json. *)

open Perfbench

let checks = ref 0
let failures = ref 0

let check name ok =
  incr checks;
  if not ok then begin
    Printf.printf "FAIL %s\n" name;
    incr failures
  end

(* One command through three Onepaxos cores on the synchronous harness:
   exactly five boundary messages and agreeing decided logs. *)
let harness () =
  let h =
    Ladder.create
      { Ladder.seed = 7; commands = 1; warmup = 0; read_ratio = 0.; lease = 0 }
  in
  let b0 = h.Ladder.boundary in
  let committed = Ladder.run h in
  check "harness commits one command" (committed = 1);
  check
    (Printf.sprintf "harness: %d boundary messages per commit = 5" (h.Ladder.boundary - b0))
    (h.Ladder.boundary - b0 = 5);
  let logs =
    Array.map
      (fun r ->
        (Ci_consensus.Replica_core.view (Ci_consensus.Onepaxos.replica_core r)).Ci_rsm.Consistency.decisions
        |> List.sort compare)
      h.Ladder.replicas
  in
  check "harness: all three replicas decided the command"
    (Array.for_all (fun l -> List.length l = 1) logs);
  check "harness: decided logs agree"
    (Array.for_all
       (fun l -> List.equal (fun (i, a) (j, b) -> i = j && Ci_consensus.Wire.value_equal a b) l logs.(0))
       logs);
  check "harness: consistency check passes" (Ladder.consistent h)

(* Self time is the span minus its child spans. *)
let self_time () =
  let clock = ref [ 0; 10; 30; 40; 45; 100 ] in
  let now () =
    match !clock with
    | t :: rest ->
      clock := rest;
      t
    | [] -> assert false
  in
  let s = Spans.create ~now ~capacity:8 () in
  Spans.enter s ~label:1 ~req:9;
  Spans.enter s ~label:2 ~req:9;
  Spans.leave s;
  Spans.enter s ~label:3 ~req:9;
  Spans.leave s;
  Spans.leave s;
  let self = Spans.self_times s in
  check "spans: parent links" (Spans.parent s 0 = -1 && Spans.parent s 1 = 0 && Spans.parent s 2 = 0);
  check "spans: children keep their duration" (self.(1) = 20 && self.(2) = 5);
  check "spans: self = 100 - 20 - 5" (self.(0) = 75);
  check "spans: request id shared" (Spans.req s 1 = 9 && Spans.req s 2 = 9)

(* (name, unit) pairs declared in BENCHMARK.json, read without a JSON
   library: every metric entry is {"name": "...", "unit": "...", ...}. *)
let declared_metrics text =
  let find_from s sub i =
    let n = String.length sub in
    let rec go i =
      if i + n > String.length s then None
      else if String.sub s i n = sub then Some (i + n)
      else go (i + 1)
    in
    go i
  in
  let string_at i =
    let j = String.index_from text i '"' in
    (String.sub text i (j - i), j)
  in
  let rec go i acc =
    match find_from text "{\"name\": \"" i with
    | None -> List.rev acc
    | Some i -> (
      let name, j = string_at i in
      match find_from text "\"unit\": \"" j with
      | Some k when k - j <= 12 ->
        let unit_, k = string_at k in
        go k ((name, unit_) :: acc)
      | _ -> go j acc)
  in
  go 0 []

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let schema () =
  let text = In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all in
  let declared = declared_metrics text in
  check "schema: BENCHMARK.json declares exactly the printed metrics"
    (List.sort compare declared = List.sort compare (Schema.end_to_end @ Schema.per_layer));
  List.iter
    (fun (trace, names) ->
      let values = Hashtbl.create 64 in
      List.iter (fun (n, _) -> Hashtbl.replace values n 1.5) names;
      let metrics, _ = Schema.metrics_json ~trace values in
      let line = Schema.result_line ~correct:true ~attempted:1 ~failed:0 metrics in
      List.iter
        (fun (n, u) ->
          check
            (Printf.sprintf "schema: output names %s in %s" n u)
            (contains line (Printf.sprintf "\"%s\":{\"value\":1.5,\"unit\":\"%s\"}" n u)))
        names)
    [ (false, Schema.end_to_end); (true, Schema.per_layer) ];
  check "schema: setup_s is end-to-end in s" (List.assoc_opt "setup_s" Schema.end_to_end = Some "s")

let () =
  harness ();
  self_time ();
  schema ();
  if !failures > 0 then begin
    Printf.printf "%d of %d benchmark self-checks failed\n" !failures !checks;
    exit 1
  end
