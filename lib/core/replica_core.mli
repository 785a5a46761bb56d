(** The learner and execution side every protocol replica shares.

    Records decided [(instance, value)] pairs, executes the contiguous
    prefix against the key-value store with client-session
    deduplication, and exposes the views the consistency checker and the
    leader-recovery paths need. *)

type executed = {
  inst : int;
  v : Wire.value;
  result : Ci_rsm.Command.result;
      (** Result of execution (from cache when the value is a duplicate
          of an already-executed client request). *)
}

type t
(** Mutable learner/executor state of one replica. *)

val create : replica:int -> t
(** [create ~replica] is an empty state tagged with the replica id. *)

val learn : t -> inst:int -> Wire.value -> executed list
(** [learn t ~inst v] records the decision and executes any newly
    contiguous instances, returning them in order. Re-learning the same
    value is a no-op ([[]]); learning a conflicting value is recorded as
    a violation (visible through [view]) and otherwise ignored. *)

val is_decided : t -> inst:int -> bool
(** [is_decided t ~inst] is whether [inst] has a decision. *)

val decided_value : t -> inst:int -> Wire.value option
(** [decided_value t ~inst] is the decision, if any. *)

val first_gap : t -> int
(** [first_gap t] is the smallest undecided instance. *)

val highest_decided : t -> int option
(** [highest_decided t] is the largest decided instance, if any. *)

val decisions_from : t -> from_:int -> (int * Wire.value) list
(** [decisions_from t ~from_] is all decisions with [inst >= from_],
    sorted (used by learner catch-up replies). *)

val cached_result : t -> client:int -> req_id:int -> Ci_rsm.Command.result option
(** [cached_result t ~client ~req_id] is the stored result if the
    request already executed. *)

val local_get : t -> key:int -> int option
(** [local_get t ~key] reads the replica's store directly — the relaxed
    local read of §7.5 (may be stale). *)

val local_read : t -> Ci_rsm.Command.t -> Ci_rsm.Command.result option
(** [local_read t cmd] answers a read-only command ([Get], [Range])
    straight from the replica's store, [None] for anything that would
    mutate it. Staleness is the caller's problem: relaxed reads accept
    it, lease reads prove freshness first. *)

val commits : t -> int
(** [commits t] is how many instances have been executed. *)

val view : t -> Wire.value Ci_rsm.Consistency.replica_view
(** [view t] is a snapshot of what the consistency checker reads, as
    plain data (it can be marshalled and hashed). *)

val log : t -> Wire.value Ci_rsm.Consistency.replica_log
(** [log t] is what the checker reads, iterated in place: no list is
    built. It reads [t] when iterated, so consume it before [t] moves
    on. *)

val digest : t -> int
(** [digest t] is a structural fingerprint of the decided log, store
    contents and executed prefix (the consistency {!view}), for the
    explorer's visited-state table. *)
