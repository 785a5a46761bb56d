module Node_env = Ci_engine.Node_env
module Event_queue = Ci_engine.Event_queue
module Sim_time = Ci_engine.Sim_time
module Rng = Ci_engine.Rng
module Wire = Ci_consensus.Wire
module Command = Ci_rsm.Command
module Consistency = Ci_rsm.Consistency
module Event = Ci_obs.Event
module Protocol = Ci_consensus.Protocol

(* How long an explorer client waits for a [Reply] before retrying on
   the next replica. Only relative order within one node's timer queue
   matters to the explorer; 2 ms sits safely above every protocol
   timeout so a replica's own failure detector outruns client churn. *)
let retry_delay = Sim_time.ms 2

type client = {
  c_id : int;
  mutable c_next : int; (* next request index to issue *)
  mutable c_current : (int * Command.t) option;
  mutable c_target : int; (* replica currently addressed *)
  mutable c_attempt : int; (* transmission generation, as in Client *)
  mutable c_retry : Node_env.timer option;
  mutable c_acked : (int * int) list;
  mutable c_env : Wire.t Node_env.t option; (* set once at creation *)
}

type role = Replica of Protocol.replica | Client of client

type t = {
  cfg : Trace.config;
  n : int; (* total nodes: replicas then clients *)
  mutable roles : role array;
  timers : (unit -> unit) Event_queue.t array;
  self_q : Wire.t Queue.t array;
  alive : bool array;
  fires_left : int array;
  links : (int * Wire.t) Queue.t array array; (* (send seq, msg) per (src, dst) *)
  mutable clock : Sim_time.t;
  mutable drops_left : int;
  mutable crashes_left : int;
  mutable seq : int; (* machine-wide send sequence, links Send to Recv *)
  issued : (int * int, Command.t) Hashtbl.t;
  ring : Event.ring option;
}

let config t = t.cfg
let clock t = t.clock
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

let rec dispatch t i ~src msg =
  match t.roles.(i) with
  | Replica r -> Protocol.handler r ~src msg
  | Client c -> (
    match msg with
    | Wire.Reply { req_id; result = _ } -> (
      match c.c_current with
      | Some (r, _) when r = req_id ->
        c.c_current <- None;
        (match c.c_retry with
        | Some tm ->
          Node_env.cancel_timer tm;
          c.c_retry <- None
        | None -> ());
        c.c_acked <- (c.c_id, req_id) :: c.c_acked;
        client_issue t c
      | Some _ | None -> () (* stale or duplicate reply *))
    | _ -> ())

and client_issue t c =
  if c.c_next < t.cfg.Trace.n_commands then begin
    let req_id = c.c_next in
    c.c_next <- c.c_next + 1;
    (* Deterministic commands: distinct data per (client, request) so a
       disagreement between replicas is observable as differing
       values, over a two-key space so executions interleave state. *)
    let cmd =
      Command.Put { key = req_id mod 2; data = ((c.c_id + 1) * 1000) + req_id }
    in
    Hashtbl.replace t.issued (c.c_id, req_id) cmd;
    c.c_current <- Some (req_id, cmd);
    client_transmit t c
  end

and client_transmit t c =
  match (c.c_current, c.c_env) with
  | Some (req_id, cmd), Some env ->
    env.Node_env.send ~dst:c.c_target
      (Wire.Request { req_id; cmd; relaxed_read = false });
    c.c_attempt <- c.c_attempt + 1;
    let this = c.c_attempt in
    c.c_retry <-
      Some
        (env.Node_env.after_cancel ~delay:retry_delay (fun () ->
             c.c_retry <- None;
             match c.c_current with
             | Some (r, _) when r = req_id && this = c.c_attempt ->
               (* No reply: rotate to the next replica (the addressed
                  one may be deposed or dead) and resend. *)
               c.c_target <- (c.c_target + 1) mod t.cfg.Trace.n_replicas;
               client_transmit t c
             | Some _ | None -> ()))
  | _ -> ()

let rec drain_self t i =
  match Queue.take_opt t.self_q.(i) with
  | None -> ()
  | Some msg ->
    emit_kind t ~core:i ~label:"" (Event.Self_deliver { node = i });
    dispatch t i ~src:i msg;
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

(* Every protocol keeps its default config; only the 1Paxos
   stale-adoption fixture is configurable. *)
let make_replicas t =
  let replicas = Array.init t.cfg.Trace.n_replicas Fun.id in
  let tuning =
    {
      Protocol.default_tuning with
      Protocol.unsafe_stale_adoption = t.cfg.Trace.unsafe_stale_adoption;
    }
  in
  Array.map
    (fun i -> Protocol.create t.cfg.Trace.protocol tuning ~replicas ~env:(env t i))
    replicas

let create ?ring cfg =
  (match Trace.validate_config cfg with
  | Ok () -> ()
  | Error msg -> invalid_arg ("World.create: " ^ msg));
  let n = cfg.Trace.n_replicas + cfg.Trace.n_clients in
  let t =
    {
      cfg;
      n;
      roles = [||];
      timers = Array.init n (fun _ -> Event_queue.create ());
      self_q = Array.init n (fun _ -> Queue.create ());
      alive = Array.make n true;
      fires_left = Array.make n cfg.Trace.fire_budget;
      links = Array.init n (fun _ -> Array.init n (fun _ -> Queue.create ()));
      clock = 0;
      drops_left = cfg.Trace.drop_budget;
      crashes_left = cfg.Trace.crash_budget;
      seq = 0;
      issued = Hashtbl.create 31;
      ring;
    }
  in
  let replicas = make_replicas t in
  let clients =
    Array.init cfg.Trace.n_clients (fun k ->
        let id = cfg.Trace.n_replicas + k in
        (* Mencius is leaderless, so spread clients across owners;
           every other protocol has a seeded leader/coordinator at
           replica 0. *)
        let primary =
          match cfg.Trace.protocol with
          | Trace.Mencius -> k mod cfg.Trace.n_replicas
          | _ -> 0
        in
        let c =
          {
            c_id = id;
            c_next = 0;
            c_current = None;
            c_target = primary;
            c_attempt = 0;
            c_retry = None;
            c_acked = [];
            c_env = None;
          }
        in
        c.c_env <- Some (env t id);
        Client c)
  in
  t.roles <- Array.append (Array.map (fun r -> Replica r) replicas) clients;
  Array.iter Protocol.start replicas;
  Array.iter (function Client c -> client_issue t c | Replica _ -> ()) t.roles;
  for i = 0 to n - 1 do
    drain_self t i
  done;
  t

(* ---- enabled choices ------------------------------------------------- *)

let majority t = (t.cfg.Trace.n_replicas / 2) + 1

let alive_replicas t =
  let k = ref 0 in
  for i = 0 to t.cfg.Trace.n_replicas - 1 do
    if t.alive.(i) then incr k
  done;
  !k

let is_enabled t c =
  let valid i = i >= 0 && i < t.n in
  match c with
  | Trace.Deliver { src; dst } ->
    valid src && valid dst && src <> dst && t.alive.(dst)
    && not (Queue.is_empty t.links.(src).(dst))
  | Trace.Drop { src; dst } ->
    t.drops_left > 0 && valid src && valid dst && src <> dst && t.alive.(dst)
    && not (Queue.is_empty t.links.(src).(dst))
  | Trace.Fire { node } ->
    valid node && t.alive.(node)
    && t.fires_left.(node) > 0
    && Event_queue.length t.timers.(node) > 0
  | Trace.Crash { node } ->
    node >= 0
    && node < t.cfg.Trace.n_replicas
    && t.alive.(node) && t.crashes_left > 0
    && alive_replicas t - 1 >= majority t

(* The fixed enumeration order — delivers by (src, dst), then timer
   fires by node, then faults — is part of the replay contract: sibling
   order in the DFS, and hence trace shapes, depend on it. *)
let enabled t =
  let acc = ref [] in
  let add c = acc := c :: !acc in
  for src = 0 to t.n - 1 do
    for dst = 0 to t.n - 1 do
      if t.alive.(dst) && not (Queue.is_empty t.links.(src).(dst)) then
        add (Trace.Deliver { src; dst })
    done
  done;
  for node = 0 to t.n - 1 do
    if
      t.alive.(node)
      && t.fires_left.(node) > 0
      && Event_queue.length t.timers.(node) > 0
    then add (Trace.Fire { node })
  done;
  if t.drops_left > 0 then
    for src = 0 to t.n - 1 do
      for dst = 0 to t.n - 1 do
        if t.alive.(dst) && not (Queue.is_empty t.links.(src).(dst)) then
          add (Trace.Drop { src; dst })
      done
    done;
  if t.crashes_left > 0 && alive_replicas t - 1 >= majority t then
    for node = 0 to t.cfg.Trace.n_replicas - 1 do
      if t.alive.(node) then add (Trace.Crash { node })
    done;
  List.rev !acc

(* ---- applying choices ------------------------------------------------ *)

let do_deliver t ~src ~dst =
  let seq, msg = Queue.pop t.links.(src).(dst) in
  emit_kind t ~core:dst ~label:"" (Event.Recv { src; dst; seq });
  dispatch t dst ~src msg;
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
  let role_digests =
    Array.map
      (function
        | Replica r -> Protocol.digest r
        | Client c ->
          Hashtbl.hash_param 1000 1000
            ( c.c_next, c.c_current, c.c_target,
              c.c_retry <> None,
              List.sort compare c.c_acked ))
      t.roles
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
  Hashtbl.hash_param 4000 4000
    ( role_digests, !links, timers, t.alive, t.fires_left,
      (t.drops_left, t.crashes_left) )

(* ---- properties ------------------------------------------------------ *)

let acked t =
  Array.fold_left
    (fun acc -> function Client c -> List.rev_append c.c_acked acc | Replica _ -> acc)
    [] t.roles
  |> List.sort compare

let views t =
  Array.to_list t.roles
  |> List.filter_map (function
       | Replica r -> Some (Ci_consensus.Replica_core.view (Protocol.replica_core r))
       | Client _ -> None)

(* Safety, checked at every explored state: agreement, non-triviality,
   state convergence, session integrity — exactly the runners'
   end-of-run audit, over the world's incrementally kept issued table. *)
let check t =
  fst
    (Ci_consensus.Audit.check
       ~issued:(fun ~client ~req_id -> Hashtbl.find_opt t.issued (client, req_id))
       ~acked:(fun f -> List.iter (fun (client, req_id) -> f client req_id) (acked t))
       ~logs:[ List.map Consistency.log_of_view (views t) ]
       ~txns:[])

let all_acked t =
  Array.for_all
    (function
      | Client c -> c.c_next = t.cfg.Trace.n_commands && c.c_current = None
      | Replica _ -> true)
    t.roles

let missing_acks t =
  Array.fold_left
    (fun acc -> function
      | Replica _ -> acc
      | Client c ->
        let from_ = match c.c_current with Some (r, _) -> r | None -> c.c_next in
        let rec span i acc =
          if i >= t.cfg.Trace.n_commands then acc else span (i + 1) ((c.c_id, i) :: acc)
        in
        span from_ acc)
    [] t.roles
  |> List.sort compare

let quiescent t =
  let busy = ref false in
  for src = 0 to t.n - 1 do
    for dst = 0 to t.n - 1 do
      if t.alive.(dst) && not (Queue.is_empty t.links.(src).(dst)) then
        busy := true
    done
  done;
  for node = 0 to t.n - 1 do
    if
      t.alive.(node)
      && t.fires_left.(node) > 0
      && Event_queue.length t.timers.(node) > 0
    then busy := true
  done;
  not !busy

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
      List.fold_left (fun a v -> a + List.length v.Consistency.decisions) 0 (views t) )
  in
  let first_deliver () =
    let found = ref None in
    (try
       for src = 0 to t.n - 1 do
         for dst = 0 to t.n - 1 do
           if t.alive.(dst) && not (Queue.is_empty t.links.(src).(dst)) then begin
             found := Some (src, dst);
             raise Exit
           end
         done
       done
     with Exit -> ());
    !found
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
        match first_deliver () with
        | Some (src, dst) ->
          do_deliver t ~src ~dst;
          incr steps
        | None -> (
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
