(** Bounded single-producer single-consumer queue of boxed values on
    [Atomic].

    The per-pair message channel of the live runtime is
    {!Spsc_bytes}, which moves encoded messages through fixed byte
    slots. This queue is its side ring: a message too large for any
    contiguous run of free slots is boxed here while a marker slot
    holds its place in line, so FIFO order survives across both. A
    full queue makes the push fail; the sender parks the message in
    its outbox and retries.

    Lock-free and wait-free: [try_push]/[try_pop] are one atomic
    read-modify cycle each, with no CAS loop (single-writer cursors).
    The head and tail cursors are padded onto different cache lines so
    the two sides do not false-share.

    Ownership discipline (unchecked): at most one domain calls
    [try_push], at most one calls [try_pop]. The statistics accessors
    ({!pushes}, {!pops}, {!occupancy_peak}) read plain mutable fields
    owned by one side; read them from a third domain only after both
    sides have been joined. *)

type 'a t
(** A bounded queue carrying values of type ['a]. *)

val create : slots:int -> 'a t
(** [create ~slots] is an empty queue with [slots] capacity.
    @raise Invalid_argument if [slots < 1]. *)

val slots : 'a t -> int
(** [slots q] is the fixed capacity. *)

val try_push : 'a t -> 'a -> bool
(** [try_push q x] enqueues [x] and returns [true], or returns [false]
    without side effect when the ring is full. Producer side only. *)

val try_pop : 'a t -> 'a option
(** [try_pop q] dequeues the oldest element, or [None] when the ring is
    empty. Consumer side only. *)

val length : 'a t -> int
(** [length q] is a snapshot of the current occupancy (exact only from
    the producer or consumer; a racing reader may see a stale value). *)

val pushes : 'a t -> int
(** [pushes q] is how many elements were ever enqueued. *)

val pops : 'a t -> int
(** [pops q] is how many elements were ever dequeued. *)

val occupancy_peak : 'a t -> int
(** [occupancy_peak q] is the worst occupancy observed at enqueue time
    (the back-pressure signal, as {!Ci_machine.Channel.occupancy_peak}). *)
