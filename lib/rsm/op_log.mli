(** Ordered, possibly gappy, decided-command log.

    Consensus decides a value per instance number, but instances may be
    decided out of order (e.g. during a leader change). The log records
    decisions as they arrive and exposes the executable prefix: the
    maximal contiguous run of decided instances starting at 0.

    Instances are dense from 0, so the log is a {!Dense_map}: one word
    per instance up to the highest decided one, not a hash table. *)

type 'v t
(** A log of decided values of type ['v]. *)

val create : ?equal:('v -> 'v -> bool) -> unit -> 'v t
(** [create ~equal ()] is an empty log. [equal] (default [( = )])
    detects conflicting re-decisions. *)

val decide : 'v t -> inst:int -> 'v -> [ `New | `Duplicate | `Conflict of 'v ]
(** [decide t ~inst v] records that instance [inst] decided [v].
    [`Duplicate] means the same value was already recorded;
    [`Conflict prev] means a {e different} value was recorded before —
    a consensus safety violation, recorded and reported but not
    overwritten. Requires [inst >= 0]. *)

val get : 'v t -> inst:int -> 'v option
(** [get t ~inst] is the decided value, if any. *)

val is_decided : 'v t -> inst:int -> bool
(** [is_decided t ~inst] is whether the instance has a decision. *)

val first_gap : 'v t -> int
(** [first_gap t] is the smallest undecided instance number. *)

val highest_decided : 'v t -> int option
(** [highest_decided t] is the largest decided instance number. *)

val decided_count : 'v t -> int
(** [decided_count t] is the number of decided instances. *)

val conflicts : 'v t -> (int * 'v * 'v) list
(** [conflicts t] lists observed re-decisions with different values as
    [(inst, first, offender)]. *)

val to_list : 'v t -> (int * 'v) list
(** [to_list t] is all decisions sorted by instance. *)

val to_list_from : 'v t -> from_:int -> (int * 'v) list
(** [to_list_from t ~from_] is the decisions at instances [>= from_],
    sorted by instance. *)

val iter : 'v t -> (int -> 'v -> unit) -> unit
(** [iter t f] calls [f inst v] on every decision in instance order,
    without building a list. *)

val iter_prefix : 'v t -> from_:int -> (int -> 'v -> unit) -> int
(** [iter_prefix t ~from_ f] calls [f] on decided instances [from_,
    from_+1, ...] until the first gap and returns the next unexecuted
    instance (i.e. the gap position). *)
