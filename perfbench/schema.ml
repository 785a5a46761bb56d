(* Metric names and units, and the JSON the benchmark prints.

   BENCHMARK.json at the repository root declares the same lists; the
   self-test checks that the two agree. *)

let end_to_end =
  [
    ("ops_per_s", "1/s");
    ("latency_p50_us", "us");
    ("latency_p90_us", "us");
    ("setup_s", "s");
    ("peak_rss_mb", "MB");
  ]

let commit_kinds = [ "Request"; "Op_accept_request"; "Op_learn"; "Reply" ]
let protocols = [ "1paxos"; "multipaxos" ]

let per_layer =
  [
    ("failed_frac", "frac");
    ("load.issued", "count");
    ("load.completed", "count");
    ("load.retries", "count");
    ("load.max_backlog", "count");
    ("load.service_p50_us", "us");
    ("load.p99_us", "us");
    ("load.p999_us", "us");
    ("load.tail_samples", "count");
    ("client.retries", "count");
    ("client.p99_us", "us");
    ("client.tail_samples", "count");
    ("live.events_per_op", "count");
    ("live.alloc_words_per_op", "words");
    ("live.residual_us", "us");
    ("live.residual_share", "frac");
    ("transport.msgs_per_op", "count");
    ("transport.blocked_sends", "count");
    ("transport.occupancy_peak", "slots");
    ("transport.outbox_peak", "count");
    ("transport.outbox_dropped", "count");
    ("transport.ring_hop_ns", "ns");
    ("transport.ring_xdomain_rtt_us", "us");
    ("transport.socket_hop_us", "us");
  ]
  @ List.concat_map
      (fun k -> [ ("codec.encode_ns." ^ k, "ns"); ("codec.decode_ns." ^ k, "ns") ])
      commit_kinds
  @ List.map (fun k -> ("protocol.handle_ns." ^ k, "ns")) commit_kinds
  @ [
      ("protocol.handle_ns.Request_lease", "ns");
      ("protocol.lease_read_frac", "frac");
    ]
  @ List.map (fun p -> ("protocol.leader_changes." ^ p, "count")) protocols
  @ [
      ("protocol.acceptor_changes.1paxos", "count");
      ("rsm.apply_ns.put", "ns");
      ("rsm.apply_ns.get", "ns");
      ("ladder.commit_path_us", "us");
      ("ladder.lease_read_path_us", "us");
      ("trace.span_overhead_ns", "ns");
      ("sim.sweep_wall_s", "s");
      ("sim.failed_frac", "frac");
      ("engine.events", "count");
      ("engine.events_per_s", "1/s");
      ("engine.alloc_words_per_event", "words");
      ("engine.evq_push_pop_ns", "ns");
    ]
  @ List.concat_map
      (fun p ->
        [
          ("machine.msgs_per_commit." ^ p, "count");
          ("machine.leader_util." ^ p, "frac");
          ("sim_commit_p50_us." ^ p, "sim_us");
          ("sim_peak_ops_s." ^ p, "sim_ops/s");
        ])
      protocols
  @ [
      ("explore.search_wall_s", "s");
      ("explore_states", "count");
      ("explore.executions", "count");
      ("explore.choices_applied", "count");
      ("explore.us_per_choice", "us");
      ("explore.dedup_ratio", "frac");
      ("explore.sleep_ratio", "frac");
    ]

(* ----- JSON -------------------------------------------------------------- *)

type json =
  | Null
  | Bool of bool
  | Int of int
  | Num of float
  | Str of string
  | List of json list
  | Obj of (string * json) list

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let rec to_buffer b = function
  | Null -> Buffer.add_string b "null"
  | Bool x -> Buffer.add_string b (string_of_bool x)
  | Int i -> Buffer.add_string b (string_of_int i)
  | Num f when Float.is_integer f && Float.abs f < 1e15 ->
    Printf.bprintf b "%.1f" f
  | Num f when Float.is_finite f -> Printf.bprintf b "%.17g" f
  | Num _ -> Buffer.add_string b "null"
  | Str s -> Printf.bprintf b "\"%s\"" (escape s)
  | List l ->
    Buffer.add_char b '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char b ',';
        to_buffer b x)
      l;
    Buffer.add_char b ']'
  | Obj kv ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        Printf.bprintf b "\"%s\":" (escape k);
        to_buffer b v)
      kv;
    Buffer.add_char b '}'

let to_string j =
  let b = Buffer.create 1024 in
  to_buffer b j;
  Buffer.contents b

(* The result line: every metric of the selected list, in declaration
   order. A metric the workload did not set is a bug for the end-to-end
   list; per-layer metrics of layers a workload does not exercise read
   0, and [unset] names them. *)
let metrics_json ~trace values =
  let names = if trace then per_layer else end_to_end in
  let unset = ref [] in
  let metrics =
    List.map
      (fun (name, unit_) ->
        let v =
          match Hashtbl.find_opt values name with
          | Some v -> v
          | None ->
            if not trace then
              invalid_arg ("Schema.metrics_json: end-to-end metric unset: " ^ name);
            unset := name :: !unset;
            0.
        in
        (name, Obj [ ("value", Num v); ("unit", Str unit_) ]))
      names
  in
  (Obj metrics, List.rev !unset)

let result_line ~correct ~attempted ~failed metrics =
  to_string
    (Obj
       [
         ("correct", Bool correct);
         ("attempted", Int attempted);
         ("failed", Int failed);
         ("metrics", metrics);
       ])
