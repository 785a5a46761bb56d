module Node_env = Ci_engine.Node_env
module Event_queue = Ci_engine.Event_queue
module Sim_time = Ci_engine.Sim_time
module Rng = Ci_engine.Rng
module Wire = Ci_consensus.Wire
module Consistency = Ci_rsm.Consistency
module Event = Ci_obs.Event
module Protocol = Ci_consensus.Protocol
module Deployment = Ci_workload.Deployment
module Client = Ci_workload.Client

(* The deployment a config describes: one group of dedicated replicas
   at default tuning (only the 1Paxos stale-adoption fixture is
   configurable) and closed-loop clients writing over two keys, so
   executions interleave state. Only relative order within one node's
   timer queue matters to the explorer; the 2 ms client timeout sits
   safely above every protocol timeout so a replica's own failure
   detector outruns client churn. *)
let deployment (cfg : Trace.config) =
  {
    Deployment.protocol = cfg.protocol;
    groups = 1;
    replicas = cfg.n_replicas;
    clients = cfg.n_clients;
    joint = false;
    cross_shard_ratio = 0.;
    tuning =
      {
        Protocol.default_tuning with
        Protocol.unsafe_stale_adoption = cfg.unsafe_stale_adoption;
      };
    timeout = Sim_time.ms 2;
    think = 0;
    read_ratio = 0.;
    key_space = 2;
    max_requests = Some cfg.n_commands;
    open_loop = None;
    nemesis = Ci_faults.empty;
  }

type t = {
  cfg : Trace.config;
  d : Deployment.t;
  n : int; (* total nodes: replicas then clients *)
  mutable nodes : Deployment.nodes option; (* set once by [create] *)
  mutable handlers : (src:int -> Wire.t -> unit) array;
  timers : (unit -> unit) Event_queue.t array;
  self_q : Wire.t Queue.t array;
  alive : bool array;
  fires_left : int array;
  links : (int * Wire.t) Queue.t array array; (* (send seq, msg) per (src, dst) *)
  mutable clock : Sim_time.t;
  mutable drops_left : int;
  mutable crashes_left : int;
  mutable seq : int; (* machine-wide send sequence, links Send to Recv *)
  ring : Event.ring option;
}

let config t = t.cfg
let clock t = t.clock
let nodes t = Option.get t.nodes
let emit t ev = match t.ring with Some r -> Event.emit r ev | None -> ()

let emit_kind t ~core ~label kind =
  if t.ring <> None then emit t { Event.time = t.clock; core; label; kind }

(* ---- message plumbing ------------------------------------------------ *)

(* A send from a node's handler. Self-sends bypass the link layer and
   queue for a run-to-completion drain after the handler returns — the
   [Node_env] contract ([send] never re-enters the caller's handler),
   and a deliberate reduction: the explorer never interleaves anything
   between a handler and its own local deliveries. Sends to dead nodes
   vanish silently (the network cannot address a dead process); they
   cost no drop budget. *)
let send t ~src ~dst msg =
  if dst = src then Queue.add msg t.self_q.(src)
  else if dst >= 0 && dst < t.n && t.alive.(dst) then begin
    t.seq <- t.seq + 1;
    if t.ring <> None then
      emit_kind t ~core:src
        ~label:(Format.asprintf "%a" Wire.pp msg)
        (Event.Send { src; dst; seq = t.seq });
    Queue.add (t.seq, msg) t.links.(src).(dst)
  end

let rec drain_self t i =
  match Queue.take_opt t.self_q.(i) with
  | None -> ()
  | Some msg ->
    emit_kind t ~core:i ~label:"" (Event.Self_deliver { node = i });
    t.handlers.(i) ~src:i msg;
    drain_self t i

(* ---- construction ---------------------------------------------------- *)

let env t i =
  {
    Node_env.id = i;
    send = (fun ~dst msg -> send t ~src:i ~dst msg);
    now = (fun () -> t.clock);
    after =
      (fun ~delay f ->
        let delay = if delay < 0 then 0 else delay in
        Event_queue.push t.timers.(i) ~time:(t.clock + delay) f);
    after_cancel =
      (fun ~delay f ->
        let delay = if delay < 0 then 0 else delay in
        let tok = Event_queue.push_token t.timers.(i) ~time:(t.clock + delay) f in
        { Node_env.cancel = (fun () -> Event_queue.cancel t.timers.(i) tok) });
    (* Fresh deterministic stream per (seed, node): the same choice
       sequence always replays to the same execution. *)
    rng = Rng.create ~seed:(Hashtbl.hash (t.cfg.Trace.seed, i, "explore-node"));
    note_phase =
      (fun ~phase -> emit_kind t ~core:i ~label:phase (Event.Phase { node = i; phase }));
  }

let create ?ring cfg =
  (match Trace.validate_config cfg with
  | Ok () -> ()
  | Error msg -> invalid_arg ("World.create: " ^ msg));
  let d = deployment cfg in
  let n = Deployment.n_nodes d in
  let t =
    {
      cfg;
      d;
      n;
      nodes = None;
      handlers = [||];
      timers = Array.init n (fun _ -> Event_queue.create ());
      self_q = Array.init n (fun _ -> Queue.create ());
      alive = Array.make n true;
      fires_left = Array.make n cfg.Trace.fire_budget;
      links = Array.init n (fun _ -> Array.init n (fun _ -> Queue.create ()));
      clock = 0;
      drops_left = cfg.Trace.drop_budget;
      crashes_left = cfg.Trace.crash_budget;
      seq = 0;
      ring;
    }
  in
  let stats = Ci_workload.Run_stats.create ~bucket:(Sim_time.ms 1) in
  let nodes =
    Deployment.build d ~replica_env:(env t) ~env:(env t)
      ~stats:(fun _ -> stats)
      ~sink:(fun _ -> assert false) (* closed loop: no open-loop drivers *)
      ~stop_at:0
  in
  t.nodes <- Some nodes;
  t.handlers <-
    Array.init n (fun i ->
        if i < cfg.Trace.n_replicas then Deployment.replica_handler d nodes i
        else Deployment.client_handler nodes (i - cfg.Trace.n_replicas));
  Array.iter Protocol.start nodes.Deployment.replicas;
  Array.iteri (fun k _ -> Deployment.start_client nodes k) nodes.Deployment.clients;
  for i = 0 to n - 1 do
    drain_self t i
  done;
  t

(* ---- enabled choices ------------------------------------------------- *)

(* The two enabling predicates every enumeration below shares. *)
let deliverable t ~src ~dst =
  t.alive.(dst) && not (Queue.is_empty t.links.(src).(dst))

let fireable t node =
  t.alive.(node) && t.fires_left.(node) > 0 && Event_queue.length t.timers.(node) > 0

(* Deliverable links in (src, dst) order. *)
let deliverable_links t =
  let acc = ref [] in
  for src = t.n - 1 downto 0 do
    for dst = t.n - 1 downto 0 do
      if deliverable t ~src ~dst then acc := (src, dst) :: !acc
    done
  done;
  !acc

let fireable_nodes t = List.filter (fireable t) (List.init t.n Fun.id)

(* A crash must leave a majority of replicas alive. *)
let may_crash t =
  let alive = ref 0 in
  for i = 0 to t.cfg.Trace.n_replicas - 1 do
    if t.alive.(i) then incr alive
  done;
  t.crashes_left > 0 && !alive - 1 >= (t.cfg.Trace.n_replicas / 2) + 1

let is_enabled t c =
  let valid i = i >= 0 && i < t.n in
  let link src dst = valid src && valid dst && src <> dst && deliverable t ~src ~dst in
  match c with
  | Trace.Deliver { src; dst } -> link src dst
  | Trace.Drop { src; dst } -> t.drops_left > 0 && link src dst
  | Trace.Fire { node } -> valid node && fireable t node
  | Trace.Crash { node } ->
    node >= 0 && node < t.cfg.Trace.n_replicas && t.alive.(node) && may_crash t

(* The fixed enumeration order — delivers by (src, dst), then timer
   fires by node, then faults — is part of the replay contract: sibling
   order in the DFS, and hence trace shapes, depend on it. *)
let enabled t =
  let links = deliverable_links t in
  List.map (fun (src, dst) -> Trace.Deliver { src; dst }) links
  @ List.map (fun node -> Trace.Fire { node }) (fireable_nodes t)
  @ (if t.drops_left > 0 then List.map (fun (src, dst) -> Trace.Drop { src; dst }) links
     else [])
  @
  if may_crash t then
    List.init t.cfg.Trace.n_replicas Fun.id
    |> List.filter (fun node -> t.alive.(node))
    |> List.map (fun node -> Trace.Crash { node })
  else []

(* ---- applying choices ------------------------------------------------ *)

let do_deliver t ~src ~dst =
  let seq, msg = Queue.pop t.links.(src).(dst) in
  emit_kind t ~core:dst ~label:"" (Event.Recv { src; dst; seq });
  t.handlers.(dst) ~src msg;
  drain_self t dst

(* [budgeted] is false only from the liveness closure, which continues
   fault-free past the per-node fire budgets. *)
let do_fire t ~budgeted node =
  match Event_queue.pop t.timers.(node) with
  | None -> invalid_arg "World: fire on empty timer queue"
  | Some (at, f) ->
    (* Deliveries are instantaneous; only timers advance the clock, to
       the fired deadline (deadlines pop in order per node, but a
       younger node's earlier timer may fire after an older node's
       later one — hence the max). *)
    if at > t.clock then t.clock <- at;
    if budgeted then t.fires_left.(node) <- t.fires_left.(node) - 1;
    emit_kind t ~core:node ~label:"" (Event.Timer { node });
    f ();
    drain_self t node

let do_apply t c =
  match c with
  | Trace.Deliver { src; dst } -> do_deliver t ~src ~dst
  | Trace.Drop { src; dst } ->
    ignore (Queue.pop t.links.(src).(dst));
    t.drops_left <- t.drops_left - 1;
    emit_kind t ~core:dst
      ~label:(Printf.sprintf "drop %d->%d" src dst)
      (Event.Fault { node = dst; fault = "drop" })
  | Trace.Fire { node } -> do_fire t ~budgeted:true node
  | Trace.Crash { node } ->
    t.alive.(node) <- false;
    t.crashes_left <- t.crashes_left - 1;
    (* Fail-stop forever: timers die with the process and in-flight
       messages addressed to it are lost (costing no drop budget);
       messages it already sent stay in the network. Its frozen state
       still participates in consistency checking — values it learned
       before dying must agree with the survivors'. *)
    Event_queue.clear t.timers.(node);
    Queue.clear t.self_q.(node);
    for src = 0 to t.n - 1 do
      Queue.clear t.links.(src).(node)
    done;
    emit_kind t ~core:node ~label:"crash"
      (Event.Fault { node; fault = "crash" })

let apply t c =
  if not (is_enabled t c) then
    invalid_arg
      (Printf.sprintf "World.apply: choice %S not enabled"
         (Trace.choice_to_line c));
  do_apply t c

(* ---- state digest ---------------------------------------------------- *)

(* Known abstractions, documented in DESIGN.md §14: the global clock is
   excluded and timer deadlines hashed relative to it (states differing
   only in absolute time collide — intended); pending timers are hashed
   by relative deadline only, not by what their thunks would do; the
   per-node RNG states are not observable and so not hashed. *)
let digest t =
  let nodes = nodes t in
  let node_digests =
    Array.append
      (Array.map Protocol.digest nodes.Deployment.replicas)
      (Array.map Client.digest nodes.Deployment.clients)
  in
  let links = ref [] in
  for src = t.n - 1 downto 0 do
    for dst = t.n - 1 downto 0 do
      if not (Queue.is_empty t.links.(src).(dst)) then
        (* The machine-wide send seq is history, not state: two
           different pasts reaching the same in-flight multiset must
           collide, so only the messages are hashed. *)
        links :=
          (src, dst, List.map snd (List.of_seq (Queue.to_seq t.links.(src).(dst))))
          :: !links
    done
  done;
  let timers =
    Array.map
      (fun q -> List.map (fun (at, _) -> at - t.clock) (Event_queue.snapshot q))
      t.timers
  in
  let state =
    ( node_digests, !links, timers, t.alive, t.fires_left,
      (t.drops_left, t.crashes_left) )
  in
  (* Two differently seeded 30-bit hashes side by side: one alone
     collides often enough on large searches to prune unexplored
     states as visited. *)
  let h seed = Hashtbl.seeded_hash_param 4000 4000 seed state in
  (h 0 lsl 30) lor h 1

(* ---- properties ------------------------------------------------------ *)

let acked t =
  Array.to_list (nodes t).Deployment.clients
  |> List.concat_map Client.acked_writes
  |> List.sort compare

(* Safety, checked at every explored state: the runners' own end-of-run
   audit over the deployment's current state. *)
let check t = fst (Deployment.audit t.d (nodes t))

let all_acked t =
  Array.for_all
    (fun c -> Client.completed c = t.cfg.Trace.n_commands)
    (nodes t).Deployment.clients

(* Replies arrive in request order, so a client's unacknowledged
   requests are exactly those from its completed count on. *)
let missing_acks t =
  Array.to_list (nodes t).Deployment.clients
  |> List.concat_map (fun c ->
         List.init
           (t.cfg.Trace.n_commands - Client.completed c)
           (fun i -> (Client.node_id c, Client.completed c + i)))
  |> List.sort compare

let quiescent t = deliverable_links t = [] && fireable_nodes t = []

(* Deterministic fault-free continuation: deliver everything in (src,
   dst) order; once no deliveries remain, fire the globally earliest
   timer ignoring fire budgets; repeat. Destroys the world — callers
   rebuild from the prefix. [`Livelock] on a lasso (state digest
   repeats with no new acks or decisions — e.g. a client retrying into
   a 2PC whose coordinator is dead), on true quiescence with commands
   outstanding, or on step-cap exhaustion (conservative). *)
let run_closure t ~max_steps =
  let seen = Hashtbl.create 997 in
  let progress () =
    ( List.length (acked t),
      Array.fold_left
        (fun a r ->
          let v = Ci_consensus.Replica_core.view (Protocol.replica_core r) in
          a + List.length v.Consistency.decisions)
        0 (nodes t).Deployment.replicas )
  in
  let earliest_fire () =
    let best = ref None in
    for node = 0 to t.n - 1 do
      if t.alive.(node) then
        match Event_queue.peek_time t.timers.(node) with
        | Some at -> (
          match !best with
          | Some (bat, _) when bat <= at -> ()
          | _ -> best := Some (at, node))
        | None -> ()
    done;
    !best
  in
  let steps = ref 0 in
  let result = ref None in
  while !result = None do
    if all_acked t then result := Some `Live
    else if !steps >= max_steps then result := Some (`Livelock (missing_acks t))
    else begin
      let key = (digest t, progress ()) in
      if Hashtbl.mem seen key then result := Some (`Livelock (missing_acks t))
      else begin
        Hashtbl.add seen key ();
        match deliverable_links t with
        | (src, dst) :: _ ->
          do_deliver t ~src ~dst;
          incr steps
        | [] -> (
          match earliest_fire () with
          | Some (_, node) ->
            do_fire t ~budgeted:false node;
            incr steps
          | None -> result := Some (`Livelock (missing_acks t)))
      end
    end
  done;
  match !result with Some r -> r | None -> assert false

(* ---- independence ---------------------------------------------------- *)

(* Static footprints over abstract resources: node states, the two
   fault budgets, and each directed link split into a HEAD (pop) and a
   TAIL (append) resource. The split is what makes message chains
   reducible: popping the head of a non-empty FIFO commutes with
   appending to its tail, and only the link's source node ever appends
   — so two choices running different nodes' handlers write disjoint
   tails, and a delivery is independent of the (earlier) delivery that
   produced the message behind it. Conservative where it must be: any
   two choices executing the same node's handlers share that node's
   state resource, all drops share the drop budget, all crashes the
   crash budget. *)
let footprint t c =
  let n = t.n in
  let node i = i in
  let head s d = n + (s * n) + d in
  let tail s d = n + (n * n) + (s * n) + d in
  let drop_budget = n + (2 * n * n) and crash_budget = n + (2 * n * n) + 1 in
  let tails m = List.init n (fun x -> tail m x) in
  match c with
  | Trace.Deliver { src; dst } -> node dst :: head src dst :: tails dst
  | Trace.Fire { node = m } -> node m :: tails m
  | Trace.Drop { src; dst } -> [ head src dst; drop_budget ]
  | Trace.Crash { node = m } ->
    (* Clearing every inbound queue touches both ends of (x, m); the
       node resource covers its timers and frozen state. *)
    (node m :: crash_budget :: tails m)
    @ List.concat (List.init n (fun x -> [ head x m; tail x m ]))

let independent t c1 c2 =
  let f1 = footprint t c1 and f2 = footprint t c2 in
  not (List.exists (fun r -> List.mem r f2) f1)
