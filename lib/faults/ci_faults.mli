(** Declarative, seeded fault schedules — the nemesis DSL.

    One schedule describes every fault a run will suffer, in one place,
    independent of the backend that executes it. The simulator compiles
    it to per-link filters, node down-gates and restart hooks
    ([Ci_workload.Nemesis]); the live runtime compiles it to a nemesis
    controller that kills, pauses and restarts replica domains and
    filters messages at the SPSC ring boundary ([Ci_runtime.Live]).

    All times are integer nanoseconds relative to the start of the run
    ({!Ci_engine.Sim_time}), on the backend's own clock (virtual in the
    simulator, monotonic in the live runtime).

    Physical readings of each fault:
    - {b Crash}: the process dies losing all volatile state; its durable
      state (the modeled fsynced registers: decided log, promises,
      accepted proposals, proposal-number round) survives. In-flight and
      arriving messages are lost while down. An optional restart brings
      the node back through the protocol's own [recover] entry point.
    - {b Pause}: SIGSTOP/SIGCONT — the node stops executing but loses
      nothing; inbound messages buffer and timers fire late.
    - {b Slow}: the core keeps running, [factor] times slower (the
      paper's "8 CPU-intensive processes on the victim core").
    - {b Drop}/{b Duplicate}/{b Delay}: lossy, duplicating or laggy
      links, applied per ordered (src, dst) pair during a window.
    - {b Partition}: drop everything between nodes in different groups
      for the window (symmetric; nodes in no group are unaffected). *)

type fault =
  | Crash of { node : int; at : int; down_for : int option }
      (** Kill [node] at [at]; restart it [down_for] ns later, or never
          ([None]). *)
  | Pause of { node : int; from_ : int; until_ : int }
      (** Stop [node] during the window; resume with state intact. *)
  | Slow of { core : int; from_ : int; until_ : int; factor : float }
      (** Multiply the cost of all work on [core] by [factor]
          (simulator only — the live runtime rejects it). The paper's
          slow core is [factor = ]{!paper_slowdown}; a crashed core,
          the limit case, is [factor = infinity]: no progress during
          the window. *)
  | Drop of { src : int; dst : int; from_ : int; until_ : int; p : float }
      (** Lose each [src]->[dst] message with probability [p]. *)
  | Duplicate of { src : int; dst : int; from_ : int; until_ : int; p : float }
      (** Deliver each [src]->[dst] message twice with probability [p]. *)
  | Delay of { src : int; dst : int; from_ : int; until_ : int; extra : int }
      (** Add [extra] ns of propagation to each [src]->[dst] message
          (FIFO order is preserved). *)
  | Partition of { groups : int list list; from_ : int; until_ : int }
      (** Cut every link between nodes in different groups. *)

val paper_slowdown : float
(** The calibrated factor for "8 CPU-intensive processes sharing the
    core" (the paper's Section 2.2 / 7.6 fault): the victim gets
    roughly 1/9 of the cycles, so 9. *)

type t = { seed : int; faults : fault list }
(** A schedule: the faults plus the seed feeding every probabilistic
    decision (drop/duplicate coin flips), so a schedule replays
    identically. *)

val empty : t
(** No faults, seed 0. A run with [empty] must be byte-identical to a
    run without a nemesis at all. *)

val is_empty : t -> bool

val first_fault_at : t -> int option
(** Earliest fault onset in the schedule — the reference instant for
    {!Ci_obs.Failover} analysis. *)

val validate : ?n_cores:int -> n_nodes:int -> t -> (unit, string) result
(** [validate ~n_nodes t] rejects inverted/empty windows, out-of-range
    nodes or cores ([n_cores] defaults to [n_nodes]), NaN or sub-1
    slowdown factors, probabilities outside (0, 1], non-positive delays
    and overlapping partition groups, with a human-readable reason. *)

(** {1 Per-backend decompositions} *)

type link_kind = L_drop of float | L_dup of float | L_delay of int

type link_rule = {
  l_src : int;
  l_dst : int;
  l_from : int;
  l_until : int;
  l_kind : link_kind;
}

val link_rules : t -> link_rule list
(** All link-level faults as per-ordered-pair windows; partitions are
    expanded to [L_drop 1.] on every cut pair. *)

val partition_cuts : int list list -> (int * int) list
(** Ordered pairs separated by the grouping (both directions). *)

type crash_rule = { c_node : int; c_at : int; c_restart : int option }
(** [c_restart] is the absolute restart instant, [c_at + down_for]. *)

val crashes : t -> crash_rule list

type pause_rule = { p_node : int; p_from : int; p_until : int }

val pauses : t -> pause_rule list

type slow_rule = { s_core : int; s_from : int; s_until : int; s_factor : float }

val slows : t -> slow_rule list

(** {1 Generation} *)

val random : seed:int -> n_nodes:int -> horizon:int -> t
(** [random ~seed ~n_nodes ~horizon] is a deterministic pseudo-random
    schedule of 1–3 faults: adversarial but recoverable — at most one
    crash/pause, every window inside [(horizon/5, 4*horizon/5)] so the
    run warms up first and converges after. Drives the qcheck safety
    grid and the CLI's random scenario. *)

val pp_fault : Format.formatter -> fault -> unit
val pp : Format.formatter -> t -> unit
