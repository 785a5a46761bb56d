(** End-of-run consistency checker.

    Encodes the paper's two safety properties for consensus
    (Section 2.3) plus state-machine-level checks, evaluated over the
    logs every replica accumulated during a run:

    - {b consistency} (agreement): no two learners learn different
      values for the same instance;
    - {b non-triviality}: only proposed values are learned;
    - {b state convergence}: replicas that executed the same prefix have
      identical store fingerprints;
    - {b session integrity}: every acknowledged client request was
      learned at least once. *)

type 'v replica_view = {
  replica : int;  (** Replica identifier (for reporting). *)
  decisions : (int * 'v) list;  (** Learned [(instance, value)] pairs. *)
  fingerprint : int;  (** Store fingerprint after execution. *)
  executed_prefix : int;  (** First unexecuted instance. *)
}

type 'v replica_log = {
  log_replica : int;
  iter_decisions : (int -> 'v -> unit) -> unit;
      (** Calls its argument on every learned [(instance, value)]. *)
  log_fingerprint : int;
  log_executed_prefix : int;
}
(** A replica's end state as the checker reads it: a {!replica_view}
    whose decisions are iterated in place instead of copied into a
    list, so auditing a long run allocates nothing per decision. *)

val log_of_view : 'v replica_view -> 'v replica_log

type violation =
  | Disagreement of { inst : int; a : int; b : int }
      (** Replicas [a] and [b] learned different values at [inst]. *)
  | Unproposed of { replica : int; inst : int }
      (** A learned value was never proposed. *)
  | Fingerprint_mismatch of { a : int; b : int; prefix : int }
      (** Same executed prefix, different state. *)
  | Lost_ack of { client : int; req_id : int }
      (** A client got a reply but no replica learned the request. *)

type report = {
  violations : violation list;
  checked_instances : int;  (** Distinct instances examined. *)
  checked_replicas : int;
}

val ok : report -> bool
(** [ok r] is whether no violation was found. *)

val check :
  equal:('v -> 'v -> bool) ->
  proposed:('v -> bool) ->
  acked:(int * int) list ->
  key_of:('v -> int * int) ->
  'v replica_view list ->
  report
(** [check ~equal ~proposed ~acked ~key_of views] evaluates all
    properties. [proposed v] says whether [v] was ever proposed by a
    client; [acked] lists [(client, req_id)] pairs that received
    replies; [key_of v] extracts the [(client, req_id)] identity of a
    value. Equal values must have equal identities and be equally
    proposed: [proposed] runs once per instance, plus once per value
    that disagrees with its instance's first one. Instances are
    non-negative. *)

val check_logs :
  equal:('v -> 'v -> bool) ->
  proposed:('v -> bool) ->
  iter_acked:((int -> int -> unit) -> unit) ->
  key_of:('v -> int * int) ->
  'v replica_log list ->
  report
(** [check_logs] is {!check} over {!replica_log}s, with the acked
    [(client, req_id)] pairs handed out by [iter_acked f], which calls
    [f client req_id] on each. Same report as {!check}. *)

val pp_violation : Format.formatter -> violation -> unit
(** Prints one violation. *)

val pp : Format.formatter -> report -> unit
(** Prints a summary, listing violations if any. *)
