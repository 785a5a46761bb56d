(** Single-producer single-consumer ring of fixed-size byte slots — the
    paper's QC-libtask mailbox made real.

    Where {!Spsc} moves boxed OCaml values (pointers into a shared
    heap), this ring owns a flat [Bytes.t] of [slots * slot_size] and
    moves {e copies}: the producer encodes a {!Ci_consensus.Wire.t}
    in place with {!Ci_consensus.Codec} (allocating nothing), the
    consumer decodes a fresh message out of its slots. The cursors are
    the same monotonically increasing single-writer atomics as {!Spsc},
    padded apart by allocation order; slot bytes and the per-slot
    length descriptors are plain writes ordered by the cursor
    publications.

    A message of [b] bytes occupies [ceil(b / slot_size)] {e
    consecutive} slots (the continuation-slot spill scheme for batch
    messages). Two in-band markers keep FIFO order exact:

    - a {e padding} marker when a spilled message would straddle the
      physical end of the buffer — the remaining tail slots are skipped
      and the message starts at slot 0;
    - a {e jumbo} marker when no contiguous placement exists at the
      current tail alignment, neither in place nor after a pad (in
      particular any message bigger than the whole ring, e.g. a
      catch-up [Ls_reply] carrying thousands of decisions): the boxed
      value takes a bounded {!Spsc} side ring and the marker holds its
      place in line. The tail only advances on successful pushes, so
      parking such a message would deadlock the link.

    [try_push] fails (returns [false]) exactly when the required slots
    (or the side ring) are not free — the caller's outbox fallback
    handles retry, as with {!Spsc}. *)

type t

val create : slots:int -> slot_size:int -> t
(** [slots] per ring (>= 1); [slot_size] bytes per slot — must be a
    power of two and at least {!min_slot_size}.
    @raise Invalid_argument otherwise. *)

val min_slot_size : int
(** Smallest accepted [slot_size] (32 bytes: a slot must comfortably
    exceed the biggest fixed field group so spill stays the exception). *)

val slots : t -> int
val slot_size : t -> int

val try_push : t -> Ci_consensus.Wire.t -> bool
(** Producer only. Encodes [msg] into the next free slots; [false] if
    they (or, for jumbo messages, the side ring) are full. Allocates
    nothing on the success path except for jumbo spills. *)

val try_pop : t -> Ci_consensus.Wire.t option
(** Consumer only. Decodes and frees the slots of the oldest message. *)

val is_empty : t -> bool
(** Consumer only. [true] iff no message is waiting. Allocates nothing:
    the idle path re-checks every in-ring with it after announcing that
    it is about to park. *)

(** {2 Statistics}

    Single-writer counters, same read discipline as {!Spsc}: push-side
    numbers are exact from the producer's domain, pop-side from the
    consumer's; any domain may read them after the owners have joined. *)

val pushes : t -> int
val pops : t -> int
val occupancy_peak : t -> int
(** Worst slot occupancy observed at enqueue (in slots, not messages). *)

val jumbo_pushes : t -> int
(** Messages that overflowed to the boxed side ring. *)
