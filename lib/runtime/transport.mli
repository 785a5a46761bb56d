(** Pluggable point-to-point transports for the live runtime.

    One endpoint per node, four operations — the contract the event
    loop in {!Live} runs against, whatever the bytes travel over:

    - [send ~dst msg]: hand a message to the transport. Never blocks.
      If the fast path is full (ring slots exhausted, kernel socket
      buffer full behind a pending frame) the message parks in a
      per-destination outbox; beyond [outbox_cap] parked messages it is
      dropped and counted, never held in an unbounded heap — exactly
      the back-pressure semantics {!Live} has always had.
    - [flush]: retry parked messages in FIFO order. Per-destination
      order is always send order; cross-destination order is not
      specified (as on a real NIC).
    - [drain f]: deliver every receivable message to [f ~src msg],
      budgeted per source so one chatty peer cannot starve the rest.
    - [wait ~deadline]: block the idle node until a message may have
      arrived or the deadline passes, whichever comes first. On byte
      rings each node has a word in the {!doorbells}: the receiver sets
      it, re-checks its rings and waits on it as a futex with an
      absolute [CLOCK_MONOTONIC] deadline; a sender that finds it set
      after a push clears it and wakes the futex. This path opens no
      descriptor and allocates nothing. On sockets it [select]s on the
      peer sockets and the control descriptor.

    Two implementations:

    - {e byte rings} ({!rings_mesh}/{!rings_endpoint}): one
      {!Spsc_bytes} ring per ordered pair of nodes in shared memory —
      messages cross domains as flat bytes in fixed slots, the paper's
      intra-machine transport. [send]/[flush]/[drain] on this backend
      allocate nothing beyond the decoded inbound messages.
    - {e sockets} ({!socket_endpoint}): one stream socket per pair of
      processes, frames length-prefixed (4-byte LE) with
      {!Ci_consensus.Codec} as the wire format — the same protocol
      cores on separate processes, the paper's machine-to-machine
      comparison point. Failure semantics: a peer that disappears
      reads as EOF/[EPIPE]; pending traffic to it is shed and counted
      like any over-cap outbox. *)

type t

val rings_mesh :
  n:int -> slots:int -> slot_size:int -> Spsc_bytes.t option array array
(** Full mesh for [n] nodes: [mesh.(dst).(src)] carries [src -> dst];
    the diagonal is [None]. *)

type doorbells
(** The rings backend's wake-up words, one per node, in memory outside
    the OCaml heap: a node parks on its own word and rings its peers'.
    Off Linux a park sleeps until its deadline, at most 1 ms, and a ring
    wakes nobody. *)

val doorbells : int -> doorbells
(** [doorbells n] is one fresh doorbell per node of an [n]-node mesh. *)

val rings_endpoint :
  Spsc_bytes.t option array array ->
  id:int ->
  outbox_cap:int ->
  doorbells:doorbells ->
  t
(** Node [id]'s endpoint of a {!rings_mesh}: row [id] are its in-queues
    (it is their only consumer), column [id] its out-queues (only
    producer). The endpoint parks on doorbell [id] and rings its
    peers'.
    @raise Invalid_argument unless there is one doorbell per node. *)

val socket_endpoint :
  id:int -> fds:Unix.file_descr option array -> outbox_cap:int -> t
(** Node [id]'s endpoint over [fds.(peer)], one connected stream socket
    per peer ([None] on the diagonal). The descriptors are switched to
    non-blocking and owned by the endpoint from here on. *)

val watch : t -> Unix.file_descr -> (unit -> unit) -> unit
(** [watch t fd f] makes [fd] one more descriptor {!wait} blocks on:
    once it is readable, {!wait} calls [f], which should read from it
    (an out-of-band control channel). Replaces any earlier watch.
    @raise Invalid_argument on a rings endpoint. *)

val send : t -> dst:int -> Ci_consensus.Wire.t -> unit
(** @raise Invalid_argument on a destination with no link (including
    self — local delivery is the caller's business, not a transport's). *)

val flush : t -> int
(** Returns the number of parked messages that made it out. *)

val drain : t -> (src:int -> Ci_consensus.Wire.t -> unit) -> int
(** Returns the number of messages delivered to the handler. *)

val wait : t -> deadline:int -> unit
(** [wait t ~deadline] blocks until a peer may have sent to [t], or
    until {!Clock.now_ns} reaches [deadline] ([max_int]: no deadline).
    It may return early and spuriously; the caller re-polls. Call it
    only after a {!drain} found nothing. Nothing wakes a node when a
    peer frees ring slots or the kernel frees buffer space, so a node
    with parked sends must pass a near deadline and retry {!flush}. *)

val clear_outboxes : t -> unit
(** Drop every parked message — a crashing node's NIC loses its queue. *)

(** {2 Statistics}

    Owned by the endpoint's domain; read them after it has joined. *)

val blocked : t -> int
(** Sends that found the fast path full and fell back to the outbox. *)

val outbox_dropped : t -> int
val outbox_peak : t -> int

val full_by_kind : t -> (string * int) list
(** {!blocked}, attributed per {!Ci_consensus.Wire.kind} — the
    [live.ring.full.<kind>] metric source. *)

val sent : t -> int
(** Messages accepted onto the wire (socket endpoints; ring meshes
    count in the rings themselves). *)

val mesh_queue_count : Spsc_bytes.t option array array -> int
val mesh_msgs : Spsc_bytes.t option array array -> int
val mesh_occupancy_peak : Spsc_bytes.t option array array -> int
val mesh_jumbo : Spsc_bytes.t option array array -> int
