(* The layer ladder: one 1Paxos commit split into per-layer self times.

   Three Onepaxos cores (nodes 0-2) and a closed-loop Client (node 3)
   run on a synchronous Node_env built here: a fake clock that only
   moves when the harness fires a timer, a FIFO of boundary messages,
   and a self-delivery queue. Every boundary message crosses a real
   Spsc_bytes ring (encode into slots, decode out of them) before its
   handler runs, so each hop exercises the same codec, ring and handler
   code as a live run, minus domains and the event loop.

   Once the warmup commands have committed, each hop records spans around the ring push, the
   ring pop and the handler; the sends a handler makes are child spans,
   so the handler's self time excludes them. Codec.encode/decode are
   timed on the hop's own message beside the span tree, which splits
   the push/pop time into codec and ring shares. Kv_store.apply is
   timed on the committed commands as its own rung. *)

module Wire = Ci_consensus.Wire
module Codec = Ci_consensus.Codec
module Onepaxos = Ci_consensus.Onepaxos
module Sb = Ci_runtime.Spsc_bytes
module Eq = Ci_engine.Event_queue
module Client = Ci_workload.Client
module Clock = Ci_runtime.Clock
module Live = Ci_runtime.Live

let n_replicas = 3
let client_node = 3

(* Message kinds on the commit path, indexed as in Schema.commit_kinds;
   index 4 is every other kind. *)
let n_kinds = 5

let kind_index = function
  | Wire.Request _ -> 0
  | Wire.Op_accept_request _ -> 1
  | Wire.Op_learn _ -> 2
  | Wire.Reply _ -> 3
  | _ -> 4

let req_of = function
  | Wire.Request { req_id; _ } | Wire.Reply { req_id; _ } -> req_id
  | Wire.Op_accept_request { v; _ } | Wire.Op_learn { v; _ } -> v.Wire.req_id
  | _ -> -1

(* Span labels: category * n_kinds + kind. *)
let c_hop = 0
let c_push = 1
let c_pop = 2
let c_handle = 3
let c_send = 4
let c_self = 5
let label cat k = (cat * n_kinds) + k

type samples = { mutable a : int array; mutable n : int }

let samples () = { a = Array.make 1024 0; n = 0 }

let add s x =
  if s.n = Array.length s.a then begin
    let a = Array.make (2 * s.n) 0 in
    Array.blit s.a 0 a 0 s.n;
    s.a <- a
  end;
  s.a.(s.n) <- x;
  s.n <- s.n + 1

let median s =
  if s.n = 0 then 0.
  else begin
    let a = Array.sub s.a 0 s.n in
    Array.sort compare a;
    float_of_int (Ci_stats.Summary.quantile a 0.5)
  end

type h = {
  clock : int ref;
  timers : (unit -> unit) Eq.t;
  fifo : (int * int * Wire.t) Queue.t;
  selfq : (int * Wire.t) Queue.t;
  mesh : Sb.t option array array;
  buf : Bytes.t;
  mutable replicas : Onepaxos.t array;
  mutable client : Client.t option;
  mutable boundary : int;
  spans : Spans.t;
  warmup : int;
  mutable tracing : bool;
  encode : samples array;
  decode : samples array;
  ring : samples;
}

let ring h ~src ~dst =
  match h.mesh.(dst).(src) with Some r -> r | None -> assert false

let env h ~seed i : Wire.t Ci_engine.Node_env.t =
  let push msg dst =
    Queue.push (i, dst, msg) h.fifo;
    h.boundary <- h.boundary + 1
  in
  {
    Ci_engine.Node_env.id = i;
    send =
      (fun ~dst msg ->
        if dst = i then Queue.push (i, msg) h.selfq
        else if h.tracing then begin
          Spans.enter h.spans ~label:(label c_send (kind_index msg)) ~req:(req_of msg);
          push msg dst;
          Spans.leave h.spans
        end
        else push msg dst);
    now = (fun () -> !(h.clock));
    after = (fun ~delay f -> Eq.push h.timers ~time:(!(h.clock) + delay) f);
    after_cancel =
      (fun ~delay f ->
        let tok = Eq.push_token h.timers ~time:(!(h.clock) + delay) f in
        { Ci_engine.Node_env.cancel = (fun () -> Eq.cancel h.timers tok) });
    rng = Ci_engine.Rng.create ~seed:((seed * 31) + i);
    note_phase = (fun ~phase:_ -> ());
  }

let handle h ~dst ~src msg =
  if dst = client_node then Client.handle (Option.get h.client) ~src msg
  else Onepaxos.handle h.replicas.(dst) ~src msg

let transit h ~src ~dst msg =
  let r = ring h ~src ~dst in
  if not (Sb.try_push r msg) then failwith "ladder: ring full";
  match Sb.try_pop r with Some m -> m | None -> failwith "ladder: ring empty"

let deliver_traced h ~src ~dst msg =
  let s = h.spans and k = kind_index msg and req = req_of msg in
  let e0 = Clock.now_ns () in
  let len = Codec.encode msg h.buf ~pos:0 in
  let e1 = Clock.now_ns () in
  ignore (Codec.decode h.buf ~pos:0 ~len);
  let e2 = Clock.now_ns () in
  add h.encode.(k) (e1 - e0);
  add h.decode.(k) (e2 - e1);
  let r = ring h ~src ~dst in
  Spans.enter s ~label:(label c_hop k) ~req;
  let push_i = Spans.count s in
  Spans.enter s ~label:(label c_push k) ~req;
  let pushed = Sb.try_push r msg in
  Spans.leave s;
  let pop_i = Spans.count s in
  Spans.enter s ~label:(label c_pop k) ~req;
  let popped = Sb.try_pop r in
  Spans.leave s;
  if not pushed then failwith "ladder: ring full";
  let m = match popped with Some m -> m | None -> failwith "ladder: ring empty" in
  Spans.enter s ~label:(label c_handle k) ~req;
  handle h ~dst ~src m;
  Spans.leave s;
  Spans.leave s;
  add h.ring (Spans.duration s push_i + Spans.duration s pop_i - (e1 - e0) - (e2 - e1))

let pump h =
  let continue = ref true in
  while !continue do
    h.tracing <-
      (match h.client with Some c -> Client.completed c >= h.warmup | None -> false);
    if not (Queue.is_empty h.selfq) then begin
      let n, m = Queue.pop h.selfq in
      if h.tracing then begin
        Spans.enter h.spans ~label:(label c_self (kind_index m)) ~req:(req_of m);
        handle h ~dst:n ~src:n m;
        Spans.leave h.spans
      end
      else handle h ~dst:n ~src:n m
    end
    else if not (Queue.is_empty h.fifo) then begin
      let src, dst, m = Queue.pop h.fifo in
      if h.tracing then deliver_traced h ~src ~dst m
      else handle h ~dst ~src (transit h ~src ~dst m)
    end
    else continue := false
  done

(* Fire the earliest pending timer at its deadline, then deliver what it
   caused. *)
let fire_next h =
  match Eq.pop h.timers with
  | None -> false
  | Some (at, f) ->
    h.clock := max !(h.clock) at;
    f ();
    pump h;
    true

type config = {
  seed : int;
  commands : int;  (** Commands committed with tracing on. *)
  warmup : int;  (** Commands committed before tracing starts. *)
  read_ratio : float;
  lease : int;  (** ns; [0] disables leases. *)
}

(* Replica settings as the live runtime uses them. *)
let replica_config ~lease =
  let d = Onepaxos.default_config ~replicas:(Array.init n_replicas Fun.id) in
  {
    d with
    Onepaxos.acceptor_timeout = Ci_engine.Sim_time.ms 200;
    prepare_timeout = Ci_engine.Sim_time.ms 200;
    check_period = Ci_engine.Sim_time.ms 50;
    pu_timeout = Ci_engine.Sim_time.ms 100;
    lease;
    lease_skew = lease / 100;
  }

let create cfg =
  let total = cfg.warmup + cfg.commands in
  let h =
    {
      clock = ref 0;
      timers = Eq.create ();
      fifo = Queue.create ();
      selfq = Queue.create ();
      mesh = Ci_runtime.Transport.rings_mesh ~n:(n_replicas + 1) ~slots:64 ~slot_size:128;
      buf = Bytes.create 4096;
      replicas = [||];
      client = None;
      boundary = 0;
      spans = Spans.create ~capacity:(40 * (cfg.commands + 8)) ();
      warmup = cfg.warmup;
      tracing = false;
      encode = Array.init n_kinds (fun _ -> samples ());
      decode = Array.init n_kinds (fun _ -> samples ());
      ring = samples ();
    }
  in
  let config = replica_config ~lease:cfg.lease in
  h.replicas <-
    Array.init n_replicas (fun i -> Onepaxos.create ~env:(env h ~seed:cfg.seed i) ~config);
  let policy =
    {
      (Client.default_policy ~targets:(Array.init n_replicas Fun.id)) with
      Client.timeout = Ci_engine.Sim_time.ms 150;
      read_ratio = cfg.read_ratio;
      (* The key space of live-commit, whose Puts the ladder commits. *)
      key_space = (Live.default_spec ~protocol:Live.Onepaxos).Live.key_space;
      max_requests = Some total;
    }
  in
  h.client <-
    Some
      (Client.create ~env:(env h ~seed:cfg.seed client_node) ~policy
         ~stats:(Ci_workload.Run_stats.create ~bucket:(Ci_engine.Sim_time.ms 10)));
  Array.iter Onepaxos.start h.replicas;
  pump h;
  h

(* Fire due timers until the leader holds a lease (bounded). *)
let establish_lease h =
  let rec go n =
    if Onepaxos.holds_lease h.replicas.(0) then true
    else if n = 0 then false
    else if fire_next h then go (n - 1)
    else false
  in
  go 1000

let client h = Option.get h.client

let run h =
  let c = client h in
  Client.start c;
  pump h;
  Client.completed c

let consistent h =
  let views =
    Array.to_list
      (Array.map (fun r -> Ci_consensus.Replica_core.view (Onepaxos.replica_core r)) h.replicas)
  in
  let c = client h in
  let issued = Hashtbl.create 1024 in
  List.iter (fun (id, cmd) -> Hashtbl.replace issued id cmd) (Client.issued c);
  let proposed (v : Wire.value) =
    v.Wire.client = client_node
    &&
    match Hashtbl.find_opt issued v.Wire.req_id with
    | Some cmd -> Ci_rsm.Command.equal cmd v.Wire.cmd
    | None -> false
  in
  Ci_rsm.Consistency.ok
    (Ci_rsm.Consistency.check ~equal:Wire.value_equal ~proposed ~acked:(Client.acked_writes c)
       ~key_of:Wire.value_key views)

(* Per-kind median self time of boundary handlers, from the span tree. *)
let handle_self h =
  let s = h.spans in
  let self = Spans.self_times s in
  let per = Array.init n_kinds (fun _ -> samples ()) in
  for i = 0 to Spans.count s - 1 do
    let l = Spans.label s i in
    if l / n_kinds = c_handle then add per.(l mod n_kinds) self.(i)
  done;
  Array.map median per

(* Median duration of an empty span: what one enter/leave pair adds. *)
let span_overhead_ns () =
  let s = Spans.create ~capacity:20_000 () in
  for _ = 1 to 20_000 do
    Spans.enter s ~label:0 ~req:0;
    Spans.leave s
  done;
  let d = samples () in
  for i = 0 to Spans.count s - 1 do
    add d (Spans.duration s i)
  done;
  median d

let time_apply ?(prefill = []) cmds =
  let store = Ci_rsm.Kv_store.create () in
  List.iter (fun c -> ignore (Ci_rsm.Kv_store.apply store c)) prefill;
  let d = samples () in
  List.iter
    (fun cmd ->
      let t0 = Clock.now_ns () in
      ignore (Ci_rsm.Kv_store.apply store cmd);
      add d (Clock.now_ns () - t0))
    cmds;
  median d

let sample_msg =
  Wire.Op_learn
    { inst = 1000; v = { Wire.client = 3; req_id = 42; cmd = Ci_rsm.Command.Put { key = 7; data = 99 } } }

(* Round trip of one message over two rings between two domains. *)
let xdomain_rtt_us ~iters =
  let a = Sb.create ~slots:64 ~slot_size:128 and b = Sb.create ~slots:64 ~slot_size:128 in
  let stop = Atomic.make false in
  let peer =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          match Sb.try_pop a with
          | Some m -> while not (Sb.try_push b m) do Domain.cpu_relax () done
          | None -> Domain.cpu_relax ()
        done)
  in
  let d = samples () in
  for _ = 1 to iters do
    let t0 = Clock.now_ns () in
    if not (Sb.try_push a sample_msg) then failwith "ladder: rtt ring full";
    let rec wait () =
      match Sb.try_pop b with Some _ -> () | None -> Domain.cpu_relax (); wait ()
    in
    wait ();
    add d (Clock.now_ns () - t0)
  done;
  Atomic.set stop true;
  Domain.join peer;
  median d /. 1e3

(* One message over a socketpair: send, flush, drain on the far end. *)
let socket_hop_us ~iters =
  let fa, fb = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let module T = Ci_runtime.Transport in
  let e0 = T.socket_endpoint ~id:0 ~fds:[| None; Some fa |] ~outbox_cap:64 in
  let e1 = T.socket_endpoint ~id:1 ~fds:[| Some fb; None |] ~outbox_cap:64 in
  let d = samples () in
  for _ = 1 to iters do
    let t0 = Clock.now_ns () in
    T.send e0 ~dst:1 sample_msg;
    ignore (T.flush e0);
    while T.drain e1 (fun ~src:_ _ -> ()) = 0 do
      ()
    done;
    add d (Clock.now_ns () - t0)
  done;
  (try Unix.close fa with Unix.Unix_error _ -> ());
  (try Unix.close fb with Unix.Unix_error _ -> ());
  median d /. 1e3

type result = {
  commands : int;  (** Traced commits. *)
  boundary_per_cmd : float;
  consistent : bool;
  encode_ns : float array;  (** Per commit-path kind. *)
  decode_ns : float array;
  ring_hop_ns : float;
  handle_ns : float array;
      (** Self time per kind, sends excluded; the Op_learn figure also
          excludes the Kv_store.apply it performs. *)
  apply_put_ns : float;
  commit_path_ns : float;
  lease_established : bool;
  lease_consistent : bool;
      (** The lease harness's cores agree and every Get completed. *)
  lease_gets : int;  (** Gets completed in the lease harness. *)
  lease_reads : int;  (** Of those, served by the leader under its lease. *)
  request_lease_ns : float;  (** Leader's Request handler serving a lease read. *)
  apply_get_ns : float;
  lease_read_path_ns : float;
  span_overhead_ns : float;
  xdomain_rtt_us : float;
  socket_hop_us : float;
}

(* The five boundary hops of one commit, by kind. *)
let commit_hops = [ 0; 1; 2; 2; 3 ]

let measure ~seed =
  let commands = 10_000 and warmup = 200 in
  let h = create { seed; commands; warmup; read_ratio = 0.; lease = 0 } in
  let b0 = h.boundary in
  let done_ = run h in
  let boundary_per_cmd = float_of_int (h.boundary - b0) /. float_of_int done_ in
  let commits_agree = consistent h && done_ = warmup + commands in
  let raw_handle = handle_self h in
  let encode_ns = Array.map median h.encode and decode_ns = Array.map median h.decode in
  let ring_hop_ns = median h.ring in
  let puts = List.map snd (Client.issued (client h)) in
  let apply_put_ns = time_apply puts in
  let handle_ns = Array.copy raw_handle in
  handle_ns.(2) <- Float.max 0. (raw_handle.(2) -. apply_put_ns);
  let hop k = encode_ns.(k) +. ring_hop_ns +. decode_ns.(k) +. handle_ns.(k) in
  let commit_path_ns = List.fold_left (fun acc k -> acc +. hop k) apply_put_ns commit_hops in
  (* Lease reads: the same harness with 20 ms leases, Gets only. *)
  let l =
    create
      { seed; commands; warmup; read_ratio = 1.; lease = Ci_engine.Sim_time.ms 20 }
  in
  let lease_established = establish_lease l in
  let lease_gets = if lease_established then run l else 0 in
  let lease_consistent = consistent l && lease_gets = warmup + commands in
  let lease_self = handle_self l in
  let lease_hop k =
    median l.encode.(k) +. median l.ring +. median l.decode.(k) +. lease_self.(k)
  in
  let gets = List.map snd (Client.issued (client l)) in
  {
    commands;
    boundary_per_cmd;
    consistent = commits_agree;
    encode_ns;
    decode_ns;
    ring_hop_ns;
    handle_ns;
    apply_put_ns;
    commit_path_ns;
    lease_established;
    lease_consistent;
    lease_gets;
    lease_reads = Onepaxos.lease_reads l.replicas.(0);
    request_lease_ns = lease_self.(0);
    apply_get_ns = time_apply ~prefill:puts gets;
    lease_read_path_ns = lease_hop 0 +. lease_hop 3;
    span_overhead_ns = span_overhead_ns ();
    xdomain_rtt_us = xdomain_rtt_us ~iters:20_000;
    socket_hop_us = socket_hop_us ~iters:5_000;
  }
