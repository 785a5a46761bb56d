(* The benchmark workloads and the traced run's layer probes, measured
   from outside the program through the public functions of the
   libraries. Each fills a [run] with end-to-end values (medians over
   the phases that fit into the requested seconds), per-layer values,
   correctness gates and report fields. *)

module Live = Ci_runtime.Live
module Runner = Ci_workload.Runner
module LS = Ci_load.Load_stats
module H = Ci_stats.Histogram
module Summary = Ci_stats.Summary
module Sim_time = Ci_engine.Sim_time
module J = Schema

type run = {
  values : (string, float) Hashtbl.t;
  mutable attempted : int;
  mutable failed : int;
  mutable gates : (string * bool) list;  (** Newest first. *)
  mutable report : (string * J.json) list;  (** Newest first. *)
  mutable setups : float list;  (** Per repetition, seconds. *)
}

let create () =
  { values = Hashtbl.create 64; attempted = 0; failed = 0; gates = []; report = []; setups = [] }

let set r name v = Hashtbl.replace r.values name v
let note r key j = r.report <- (key, j) :: r.report

(* A failed gate fails the run and counts the ops it covered as failed. *)
let gate r name ok ~ops =
  r.gates <- (name, ok) :: r.gates;
  if not ok then r.failed <- r.failed + ops

let now () = Unix.gettimeofday ()

(* Nearest-rank quantile of a float list: always a measured value. *)
let quantile l q =
  match List.sort compare l with
  | [] -> 0.
  | s ->
    let n = List.length s in
    let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int n))) in
    List.nth s (min n rank - 1)

let median l = quantile l 0.5

(* Samples strictly beyond the nearest-rank [q]-quantile of [n]. *)
let beyond ~n q = n - max 1 (int_of_float (Float.ceil (q *. float_of_int n)))

let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l
let fsum f l = List.fold_left (fun acc x -> acc +. f x) 0. l
let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb -> kb)
    | _ -> find ()
    | exception End_of_file -> 0
  in
  let kb = Fun.protect ~finally:(fun () -> close_in ic) find in
  float_of_int kb /. 1024.

(* The Histogram bucket [lo, hi) a quantile estimate was interpolated
   in: a change that stays inside it cannot move the estimate. *)
let bucket_of h v =
  match List.find_opt (fun (lo, hi, _) -> lo <= v && v < hi) (H.buckets h) with
  | Some (lo, hi, _) -> J.List [ J.Num (float_of_int lo /. 1e3); J.Num (float_of_int hi /. 1e3) ]
  | None -> J.Null

let us ns = float_of_int ns /. 1e3

(* ----- live workloads ---------------------------------------------------- *)

let drain_s = 0.15

(* Phases of about 1.1 s each, so that the medians over them absorb the
   scheduling luck of four domains on a small host. *)
let live_phases seconds =
  let k = max 3 (int_of_float (seconds /. 1.25)) in
  (k, Float.max 0.5 ((seconds /. float_of_int k) -. drain_s))

let run_live r ~name spec =
  let t0 = now () in
  let res = Live.run spec in
  let call = now () -. t0 in
  r.setups <- (call -. res.Live.wall_s -. spec.Live.drain_s) :: r.setups;
  gate r
    (Printf.sprintf "%s/seed%d consistency" name spec.Live.seed)
    (Ci_rsm.Consistency.ok res.Live.consistency)
    ~ops:res.Live.ops;
  res

let live_common r (rs : Live.result list) =
  let ops = sum (fun (x : Live.result) -> x.Live.ops) rs in
  let q f = sum (fun (x : Live.result) -> f x.Live.queues) rs in
  set r "ops_per_s"
    (float_of_int ops /. fsum (fun (x : Live.result) -> x.Live.wall_s) rs);
  set r "live.events_per_op"
    (ratio (sum (fun (x : Live.result) -> Ci_obs.Metrics.get_int x.Live.metrics "live.events") rs) ops);
  set r "live.alloc_words_per_op"
    (median (List.map (fun (x : Live.result) -> x.Live.alloc_words_per_op) rs));
  set r "transport.msgs_per_op" (ratio (q (fun q -> q.Live.q_msgs)) ops);
  set r "transport.blocked_sends" (float_of_int (q (fun q -> q.Live.q_blocked)));
  set r "transport.outbox_dropped" (float_of_int (q (fun q -> q.Live.q_outbox_dropped)));
  let peak f = List.fold_left (fun acc (x : Live.result) -> max acc (f x.Live.queues)) 0 rs in
  set r "transport.occupancy_peak" (float_of_int (peak (fun q -> q.Live.q_occupancy_peak)));
  set r "transport.outbox_peak" (float_of_int (peak (fun q -> q.Live.q_outbox_peak)));
  note r "live_phases"
    (J.List
       (List.map
          (fun (x : Live.result) ->
            J.Obj
              [
                ("seed", J.Int x.Live.spec.Live.seed);
                ("wall_s", J.Num x.Live.wall_s);
                ("ops", J.Int x.Live.ops);
                ("ops_per_s", J.Num x.Live.throughput);
                ("latency_p50_us", J.Num (us x.Live.latency.Summary.p50));
                ("retries", J.Int x.Live.retries);
                ("leader_changes", J.Int x.Live.leader_changes);
                ("acceptor_changes", J.Int x.Live.acceptor_changes);
              ])
          rs))

let live_spec ~seed ~duration k =
  {
    (Live.default_spec ~protocol:Live.Onepaxos) with
    Live.n_replicas = 3;
    n_clients = 1;
    duration_s = duration;
    drain_s;
    seed = (seed * 1000) + k;
  }

let live_commit r ~seed ~seconds =
  let k, duration = live_phases seconds in
  let rs =
    List.init k (fun i ->
        run_live r ~name:"live-commit" { (live_spec ~seed ~duration i) with Live.think = 0; read_ratio = 0. })
  in
  live_common r rs;
  (* Closed loop: each client always has one request in flight, so the
     attempted ops are the completed ones plus one per client. *)
  let clients = 1 in
  r.attempted <- sum (fun (x : Live.result) -> x.Live.ops + clients) rs;
  set r "failed_frac" (ratio (List.length rs * clients) r.attempted);
  let lat (x : Live.result) = x.Live.latency in
  set r "latency_p50_us" (median (List.map (fun x -> us (lat x).Summary.p50) rs));
  set r "latency_p90_us" (median (List.map (fun x -> us (lat x).Summary.p90) rs));
  set r "client.p99_us" (median (List.map (fun x -> us (lat x).Summary.p99) rs));
  set r "client.retries" (float_of_int (sum (fun (x : Live.result) -> x.Live.retries) rs));
  let samples = sum (fun x -> (lat x).Summary.count) rs in
  let tail q = sum (fun x -> beyond ~n:(lat x).Summary.count q) rs in
  set r "client.tail_samples" (float_of_int (tail 0.99));
  note r "percentiles"
    (J.Obj
       (List.map
          (fun (name, q) ->
            ( name,
              J.Obj
                [
                  ("samples", J.Int samples);
                  ("samples_beyond", J.Int (tail q));
                  ("source", J.Str "exact (raw samples), median over phases");
                ] ))
          [ ("latency_p50_us", 0.5); ("latency_p90_us", 0.9); ("client.p99_us", 0.99) ]))

let lease_mix = { Ci_load.Open_client.reads = 0.9; cas = 0.; ranges = 0. }

let live_lease_read r ~seed ~seconds =
  let k, duration = live_phases seconds in
  let open_loop =
    {
      Runner.default_open_loop with
      Runner.arrival = Ci_load.Arrival.Poisson 2000.;
      key_dist = Ci_load.Key_dist.Uniform;
      key_space = 65536;
      mix = lease_mix;
    }
  in
  let rs =
    List.init k (fun i ->
        run_live r ~name:"live-lease-read"
          {
            (live_spec ~seed ~duration i) with
            Live.lease = Sim_time.ms 20;
            lease_skew = Sim_time.us 200;
            open_loop = Some open_loop;
          })
  in
  live_common r rs;
  let loads = List.map (fun (x : Live.result) -> Option.get x.Live.load) rs in
  List.iter2
    (fun (x : Live.result) s ->
      gate r
        (Printf.sprintf "live-lease-read/seed%d stale_reads=0" x.Live.spec.Live.seed)
        (LS.stale_reads s = 0) ~ops:(LS.issued s))
    rs loads;
  let issued = sum LS.issued loads and completed = sum LS.completed loads in
  let rejected = sum LS.rejected loads in
  r.attempted <- issued;
  set r "failed_frac" (ratio (issued - completed + rejected) issued);
  let pooled = LS.create ~from_:0 ~until_:max_int in
  List.iter (fun s -> LS.merge ~into:pooled s) loads;
  let hq h q = H.quantile h q in
  set r "latency_p50_us" (median (List.map (fun s -> us (hq (LS.latency s) 0.5)) loads));
  set r "latency_p90_us" (median (List.map (fun s -> us (hq (LS.latency s) 0.9)) loads));
  set r "load.issued" (float_of_int issued);
  set r "load.completed" (float_of_int completed);
  set r "load.retries" (float_of_int (sum LS.retries loads));
  set r "load.max_backlog" (float_of_int (List.fold_left (fun a s -> max a (LS.max_backlog s)) 0 loads));
  let lat = LS.latency pooled and svc = LS.service pooled in
  let n = H.count lat in
  set r "load.service_p50_us" (us (hq svc 0.5));
  set r "load.p99_us" (us (hq lat 0.99));
  set r "load.p999_us" (us (hq lat 0.999));
  set r "load.tail_samples" (float_of_int (beyond ~n 0.99));
  let lease_reads = sum (fun (x : Live.result) -> x.Live.lease_reads) rs in
  set r "protocol.lease_read_frac"
    (float_of_int lease_reads /. (float_of_int issued *. lease_mix.Ci_load.Open_client.reads));
  let pct name h q ~scope =
    let v = hq h q in
    ( name,
      J.Obj
        [
          ("value_us", J.Num (us v));
          ("samples", J.Int (H.count h));
          ("samples_beyond", J.Int (beyond ~n:(H.count h) q));
          ("bucket_us", bucket_of h v);
          ("scope", J.Str scope);
        ] )
  in
  (* The end-to-end quantiles are medians over phases: report the
     phase each median came from. *)
  let median_phase q =
    let by_value =
      List.sort (fun (a, _) (b, _) -> compare a b) (List.map (fun s -> (hq (LS.latency s) q, s)) loads)
    in
    snd (List.nth by_value ((List.length by_value - 1) / 2))
  in
  note r "percentiles"
    (J.Obj
       ([
          pct "latency_p50_us" (LS.latency (median_phase 0.5)) 0.5 ~scope:"median phase";
          pct "latency_p90_us" (LS.latency (median_phase 0.9)) 0.9 ~scope:"median phase";
        ]
       @ [
           pct "load.service_p50_us" svc 0.5 ~scope:"pooled";
           pct "load.p99_us" lat 0.99 ~scope:"pooled";
           pct "load.p999_us" lat 0.999 ~scope:"pooled";
         ]));
  note r "lease_reads" (J.Obj [ ("lease_reads", J.Int lease_reads); ("issued", J.Int issued) ])

(* ----- simulator and model checker (traced run) ------------------------- *)

(* Measured in the traced live-commit run rather than as workloads of
   their own: their host timings drift by a quarter with the load other
   tenants put on the shared memory system (NOTES.md, note:host-noise),
   more than any end-to-end bound could absorb. Their counts and gates
   do not drift. *)

let sim_protocols = [ (Runner.Onepaxos, "1paxos", 5.); (Runner.Multipaxos, "multipaxos", 10.) ]

let dedicated protocol ~clients ~seed =
  {
    (Runner.default_spec ~protocol
       ~placement:(Runner.Dedicated { n_replicas = 3; n_clients = clients }))
    with
    Runner.seed;
  }

(* Open loop with the leader (node 0) crashed 60 ms into a 150 ms
   window for 45 ms. *)
let fault_spec protocol ~seed =
  let d = dedicated protocol ~clients:2 ~seed in
  {
    d with
    Runner.duration = Sim_time.ms 150;
    open_loop =
      Some
        {
          Runner.default_open_loop with
          Runner.arrival = Ci_load.Arrival.Poisson 20_000.;
          mix = { Ci_load.Open_client.reads = 0.5; cas = 0.; ranges = 0. };
        };
    nemesis =
      {
        Ci_faults.seed;
        faults =
          [
            Ci_faults.Crash
              { node = 0; at = d.Runner.warmup + Sim_time.ms 60; down_for = Some (Sim_time.ms 45) };
          ];
      };
  }

type sim_point = {
  label : string;
  proto : string;
  kind : [ `One | `Peak | `Fault ];
  res : Runner.result;
  host_s : float;
  alloc_words : float;
}

let alloc_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let sim_sweep_once ~seed =
  List.concat_map
    (fun (p, name, _) ->
      List.map
        (fun (kind, label, spec) ->
          let w0 = alloc_words () in
          let t0 = now () in
          let res = Runner.run spec in
          let host_s = now () -. t0 in
          { label = name ^ label; proto = name; kind; res; host_s; alloc_words = alloc_words () -. w0 })
        [
          (`One, "/1c", dedicated p ~clients:1 ~seed);
          (`Peak, "/13c", dedicated p ~clients:13 ~seed);
          (`Fault, "/open-crash", fault_spec p ~seed);
        ])
    sim_protocols

(* Everything a simulated run outputs that the benchmark reads. *)
let fingerprint (pt : sim_point) =
  let x = pt.res in
  let l = x.Runner.latency in
  let load =
    match x.Runner.load with
    | None -> []
    | Some s ->
      let p = LS.latency_percentiles s in
      [ LS.issued s; LS.completed s; LS.rejected s; LS.retries s; p.LS.p50; p.LS.p99; p.LS.p999 ]
  in
  [
    x.Runner.commits; x.Runner.total_replies; x.Runner.messages; x.Runner.retries;
    l.Summary.count; l.Summary.p50; l.Summary.p90; l.Summary.p99;
    x.Runner.leader_changes; x.Runner.acceptor_changes; x.Runner.sim_events; x.Runner.lease_reads;
  ]
  @ load

let sim_attempted (pt : sim_point) =
  match pt.res.Runner.load with Some s -> LS.issued s | None -> pt.res.Runner.commits

(* The simulator sweep, twice: the second pass must reproduce the first
   exactly. *)
let sim_sweep r ~seed =
  let timed () =
    let t0 = now () in
    let pts = sim_sweep_once ~seed in
    (pts, now () -. t0)
  in
  let first, wall0 = timed () in
  let second, wall1 = timed () in
  let ops = sum sim_attempted first in
  r.attempted <- r.attempted + (2 * ops);
  gate r "sim-sweep: second pass identical to the first"
    (List.map fingerprint second = List.map fingerprint first)
    ~ops;
  List.iter
    (fun pt ->
      gate r (pt.label ^ " consistency") (Ci_rsm.Consistency.ok pt.res.Runner.consistency)
        ~ops:(sim_attempted pt);
      (match pt.kind with
      | `One | `Peak ->
        let expect = List.assoc pt.proto (List.map (fun (_, n, e) -> (n, e)) sim_protocols) in
        let m = ratio pt.res.Runner.messages pt.res.Runner.commits in
        gate r
          (Printf.sprintf "%s msgs_per_commit=%.3f within 1%% of %.0f" pt.label m expect)
          (Float.abs (m -. expect) <= 0.01 *. expect)
          ~ops:(sim_attempted pt)
      | `Fault -> ());
      match pt.res.Runner.load with
      | Some s ->
        gate r (pt.label ^ " stale_reads=0") (LS.stale_reads s = 0) ~ops:(sim_attempted pt)
      | None -> ())
    first;
  let wall = Float.min wall0 wall1 in
  let events = sum (fun pt -> pt.res.Runner.sim_events) first in
  set r "sim.sweep_wall_s" wall;
  set r "engine.events" (float_of_int events);
  set r "engine.events_per_s" (float_of_int events /. wall);
  set r "engine.alloc_words_per_event"
    (fsum (fun pt -> pt.alloc_words) second /. float_of_int events);
  let find proto kind = List.find (fun pt -> pt.proto = proto && pt.kind = kind) first in
  List.iter
    (fun (_, p, _) ->
      let peak = find p `Peak and one = find p `One and fault = find p `Fault in
      set r ("machine.msgs_per_commit." ^ p) (ratio peak.res.Runner.messages peak.res.Runner.commits);
      set r ("machine.leader_util." ^ p) (Runner.leader_util peak.res);
      set r ("sim_commit_p50_us." ^ p) (us one.res.Runner.latency.Summary.p50);
      set r ("sim_peak_ops_s." ^ p) peak.res.Runner.throughput;
      set r ("protocol.leader_changes." ^ p) (float_of_int fault.res.Runner.leader_changes);
      if p = "1paxos" then
        set r "protocol.acceptor_changes.1paxos" (float_of_int fault.res.Runner.acceptor_changes))
    sim_protocols;
  (* Requests that fall due while there is no leader: the fault runs'
     availability, which Runner.result.failover cannot see under open
     loop (it reads closed-loop completions only). *)
  let loads =
    List.filter_map (fun pt -> if pt.kind = `Fault then pt.res.Runner.load else None) first
  in
  let issued = sum LS.issued loads in
  set r "sim.failed_frac"
    (ratio (issued - sum LS.completed loads + sum LS.rejected loads) issued);
  let n = 100_000 and rounds = 10 in
  let q = Ci_engine.Event_queue.create () in
  let t0 = Ci_runtime.Clock.now_ns () in
  for round = 0 to rounds - 1 do
    for i = 0 to n - 1 do
      Ci_engine.Event_queue.push q ~time:(((i * 7919) + round) mod 4096) i
    done;
    while not (Ci_engine.Event_queue.is_empty q) do
      ignore (Ci_engine.Event_queue.pop q)
    done
  done;
  set r "engine.evq_push_pop_ns"
    (float_of_int (Ci_runtime.Clock.now_ns () - t0) /. float_of_int (n * rounds));
  note r "sim_runs"
    (J.List
       (List.map
          (fun pt ->
            let x = pt.res in
            J.Obj
              ([
                 ("run", J.Str pt.label);
                 ("commits", J.Int x.Runner.commits);
                 ("throughput", J.Num x.Runner.throughput);
                 ("latency_p50_us", J.Num (us x.Runner.latency.Summary.p50));
                 ("msgs_per_commit", J.Num (ratio x.Runner.messages x.Runner.commits));
                 ("leader_changes", J.Int x.Runner.leader_changes);
                 ("host_s", J.Num pt.host_s);
               ]
              @
              match x.Runner.load with
              | None -> []
              | Some s ->
                [
                  ("issued", J.Int (LS.issued s));
                  ("completed", J.Int (LS.completed s));
                  ( "runner_failover",
                    J.Str
                      (match x.Runner.failover with
                      | None -> "none"
                      | Some f -> Format.asprintf "%a" Ci_obs.Failover.pp f) );
                ]))
          first));
  note r "sim_sweep_wall_s" (J.List [ J.Num wall0; J.Num wall1 ])

let explore_config ~seed =
  {
    (Ci_explore.Trace.default_config ~protocol:Ci_explore.Trace.Onepaxos) with
    Ci_explore.Trace.n_replicas = 3;
    n_clients = 2;
    n_commands = 3;
    crash_budget = 1;
    drop_budget = 0;
    fire_budget = 0;
    seed;
  }

let explore_bounds =
  { Ci_explore.Search.default_bounds with Ci_explore.Search.max_depth = 48; max_states = 2_000_000 }

(* One exhaustive search of the 1Paxos config. *)
let explore_1paxos r ~seed =
  let module S = Ci_explore.Search in
  let cfg = explore_config ~seed in
  let t0 = now () in
  let res = S.explore ~bounds:explore_bounds cfg in
  let wall = now () -. t0 in
  let s = res.S.stats in
  let exhausted = res.S.outcome = S.Exhausted in
  r.attempted <- r.attempted + s.S.states;
  gate r "explore-1paxos outcome=exhausted" exhausted ~ops:s.S.states;
  set r "explore.search_wall_s" wall;
  set r "explore_states" (float_of_int s.S.states);
  set r "explore.executions" (float_of_int s.S.executions);
  set r "explore.choices_applied" (float_of_int s.S.choices_applied);
  set r "explore.us_per_choice" (wall *. 1e6 /. float_of_int s.S.choices_applied);
  set r "explore.dedup_ratio" (ratio s.S.dedup_hits (s.S.states + s.S.dedup_hits));
  set r "explore.sleep_ratio" (ratio s.S.sleep_skips (s.S.branches + s.S.sleep_skips));
  note r "explore"
    (J.Obj
       [
         ("config", J.Str (Ci_explore.Trace.config_to_line cfg));
         ("outcome", J.Str (if exhausted then "exhausted" else "NOT exhausted"));
         ("states", J.Int s.S.states);
         ("choices_applied", J.Int s.S.choices_applied);
         ("wall_s", J.Num wall);
       ])

(* ----- the ladder (traced live-commit) ----------------------------------- *)

let ladder r ~seed =
  let l = Ladder.measure ~seed in
  gate r "ladder: three cores commit with agreeing logs" l.Ladder.consistent ~ops:l.Ladder.commands;
  gate r
    (Printf.sprintf "ladder: %.2f boundary messages per commit = 5" l.Ladder.boundary_per_cmd)
    (Float.abs (l.Ladder.boundary_per_cmd -. 5.) < 1e-9)
    ~ops:l.Ladder.commands;
  (* The lease rungs time the local-read path only if the lease was held
     and every traced Get was served under it. *)
  gate r "ladder: lease harness holds the lease" l.Ladder.lease_established ~ops:l.Ladder.commands;
  gate r "ladder: lease harness cores agree, every Get completes" l.Ladder.lease_consistent
    ~ops:l.Ladder.commands;
  gate r
    (Printf.sprintf "ladder: %d of %d Gets served under the lease" l.Ladder.lease_reads
       l.Ladder.lease_gets)
    (l.Ladder.lease_gets > 0 && l.Ladder.lease_reads = l.Ladder.lease_gets)
    ~ops:l.Ladder.commands;
  List.iteri
    (fun k name ->
      set r ("codec.encode_ns." ^ name) l.Ladder.encode_ns.(k);
      set r ("codec.decode_ns." ^ name) l.Ladder.decode_ns.(k);
      set r ("protocol.handle_ns." ^ name) l.Ladder.handle_ns.(k))
    Schema.commit_kinds;
  set r "transport.ring_hop_ns" l.Ladder.ring_hop_ns;
  set r "transport.ring_xdomain_rtt_us" l.Ladder.xdomain_rtt_us;
  set r "transport.socket_hop_us" l.Ladder.socket_hop_us;
  set r "rsm.apply_ns.put" l.Ladder.apply_put_ns;
  set r "rsm.apply_ns.get" l.Ladder.apply_get_ns;
  set r "protocol.handle_ns.Request_lease" l.Ladder.request_lease_ns;
  set r "ladder.lease_read_path_us" (l.Ladder.lease_read_path_ns /. 1e3);
  set r "trace.span_overhead_ns" l.Ladder.span_overhead_ns;
  let path_us = l.Ladder.commit_path_ns /. 1e3 in
  set r "ladder.commit_path_us" path_us;
  let p50 = Hashtbl.find r.values "latency_p50_us" in
  set r "live.residual_us" (p50 -. path_us);
  set r "live.residual_share" ((p50 -. path_us) /. p50);
  (* Every rung with the share of latency_p50_us it explains. *)
  let rung name ns = (name, J.Obj [ ("ns", J.Num ns); ("share_of_p50", J.Num (ns /. 1e3 /. p50)) ]) in
  let hops = Ladder.commit_hops in
  let count k = List.length (List.filter (( = ) k) hops) in
  let per_kind f = List.mapi (fun k name -> (name, float_of_int (count k) *. f k)) Schema.commit_kinds in
  note r "ladder"
    (J.Obj
       ([ ("latency_p50_us", J.Num p50); ("traced_commits", J.Int l.Ladder.commands) ]
       @ List.map (fun (n, v) -> rung ("codec.encode." ^ n) v) (per_kind (fun k -> l.Ladder.encode_ns.(k)))
       @ List.map (fun (n, v) -> rung ("codec.decode." ^ n) v) (per_kind (fun k -> l.Ladder.decode_ns.(k)))
       @ [ rung "transport.ring (5 hops)" (5. *. l.Ladder.ring_hop_ns) ]
       @ List.map (fun (n, v) -> rung ("protocol.handle." ^ n) v) (per_kind (fun k -> l.Ladder.handle_ns.(k)))
       @ [
           rung "rsm.apply.put" l.Ladder.apply_put_ns;
           rung "ladder.commit_path" l.Ladder.commit_path_ns;
           rung "live.residual" ((p50 *. 1e3) -. l.Ladder.commit_path_ns);
         ]))
