(** The model checker's controlled world: one
    {!Ci_workload.Deployment} — a single group of dedicated replicas
    and closed-loop clients, built, wired and audited exactly as the
    simulator and the live runtime build theirs — hosted on node
    environments whose every scheduling decision is an explicit
    {!Trace.choice} made by the caller, instead of the single
    (time, insertion)-ordered next event {!Ci_engine.Sim} would pop.
    The world supplies only what the checker controls: per-node FIFO
    links, choice-driven timer queues, one clock and per-node seeded
    RNGs.

    A world is deterministic given its {!Trace.config}: the same choice
    sequence always reproduces the same execution (per-node RNGs are
    seeded from the config, all queues are FIFO, handler self-sends
    drain run-to-completion in order). Protocol state holds closures
    and is deliberately not cloneable, so {!Search} re-executes
    prefixes from [create] rather than snapshotting — stateless model
    checking.

    Time: deliveries are instantaneous; firing a timer advances the
    single global clock to that timer's deadline. Nodes therefore share
    one clock, an abstraction the digest preserves by hashing deadlines
    relative to it. *)

type t

val create : ?ring:Ci_obs.Event.ring -> Trace.config -> t
(** [create cfg] builds the initial state: the config's deployment
    (2 ms client timeout, no think time, writes only over two keys,
    [n_commands] requests per client) built and started, every
    client's first request already in flight. With
    [ring], sends, deliveries, timer fires, faults and protocol phases
    are emitted as typed {!Ci_obs.Event} records (the replay sidecar);
    without it observation costs nothing. Raises [Invalid_argument] on
    a config {!Trace.validate_config} rejects. *)

val config : t -> Trace.config

val clock : t -> Ci_engine.Sim_time.t
(** Current global virtual time (the maximum fired deadline so far). *)

val enabled : t -> Trace.choice list
(** All currently enabled choices, in the fixed deterministic order
    (deliveries by [(src, dst)], then timer fires by node, then drops,
    then crashes) that the DFS and trace shapes depend on. Crashes are
    never enabled when they would reduce live replicas below a
    majority; drops and crashes require remaining budget; fires require
    remaining per-node budget. *)

val is_enabled : t -> Trace.choice -> bool

val apply : t -> Trace.choice -> unit
(** Execute one choice: deliver (run the destination handler to
    completion, including its self-sends), drop, fire (advance the
    clock, run the thunk), or crash (fail-stop forever — timers and
    inbound in-flight messages lost, frozen state still checked).
    Raises [Invalid_argument] if the choice is not enabled. *)

val digest : t -> int
(** Structural fingerprint for the visited-state table: per-replica
    protocol digests, per-client {!Ci_workload.Client.digest}s, the
    in-flight message multiset per link, relative timer deadlines,
    liveness flags and remaining budgets, hashed into 60 bits (two
    differently seeded 30-bit hashes). Equal states give equal
    digests; the documented abstractions (relative time, thunk-blind
    timers, unhashed RNG state, hash collisions) mean the converse can
    fail — see DESIGN.md §14 for why pruning on it is a soundness
    trade. *)

val check : t -> Ci_rsm.Consistency.report
(** {!Ci_workload.Deployment.audit}, the runners' end-of-run safety
    predicate (agreement, non-triviality, convergence, session
    integrity), evaluated on the {e current} state, crashed replicas'
    frozen logs included. *)

val quiescent : t -> bool
(** No delivery and no (budgeted) timer fire is enabled — only faults,
    if any budget remains, could change the state. The explorer checks
    liveness exactly at these states. *)

val all_acked : t -> bool
(** Every client issued and got every command acknowledged. *)

val missing_acks : t -> (int * int) list
(** The [(client, req_id)] pairs not yet acknowledged (issued or not),
    sorted. *)

val acked : t -> (int * int) list
(** All acknowledged [(client, req_id)] pairs, sorted. *)

val run_closure : t -> max_steps:int -> [ `Live | `Livelock of (int * int) list ]
(** Destructive fault-free continuation for the liveness property:
    deliver every in-flight message (in link order), fire the earliest
    timer when none remain (ignoring fire budgets), inject no further
    faults. [`Live] once {!all_acked}; [`Livelock missing] on a lasso
    (digest repeats without new acks or decisions), on quiescence with
    commands outstanding, or on step-cap exhaustion. The world is
    unusable afterwards — callers re-execute their prefix. *)

val independent : t -> Trace.choice -> Trace.choice -> bool
(** Static footprint disjointness (node states, directed links, fault
    budgets) — the sleep-set reduction's commutation oracle.
    Conservative: [true] implies the two enabled choices commute and
    cannot disable each other. *)
