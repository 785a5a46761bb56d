module Wire = Ci_consensus.Wire
module Codec = Ci_consensus.Codec

(* Same cursor discipline as Spsc: [tail] counts enqueued slots
   (producer-owned), [head] dequeued slots (consumer-owned). Slot bytes
   and the [lens] descriptors are plain writes: the producer's
   [Atomic.set tail] (SC) after them makes every write visible to a
   consumer that read [tail] first, and the consumer's [Atomic.set head]
   after decoding releases the slots for reuse. *)

(* Per-slot descriptor values: >= 0 is the byte length of the message
   starting at this slot (spanning consecutive slots); [pad_marker]
   skips to the physical start of the buffer; [jumbo_marker] claims the
   next message from the boxed side ring. *)
let pad_marker = -1
let jumbo_marker = -2

let min_slot_size = 32

type t = {
  buf : Bytes.t;
  lens : int array;
  n_slots : int;
  slot_bytes : int;
  side : Wire.t Spsc.t; (* jumbo overflow, FIFO-linked via markers *)
  head : int Atomic.t; (* consumer cursor *)
  tail : int Atomic.t; (* producer cursor *)
  mutable n_push : int;
  mutable n_jumbo : int;
  mutable occ_peak : int;
  mutable n_pop : int;
}

let pad () = ignore (Sys.opaque_identity (Array.make 15 0))

let create ~slots ~slot_size =
  if slots < 1 then invalid_arg "Spsc_bytes.create: slots must be >= 1";
  if slot_size < min_slot_size || slot_size land (slot_size - 1) <> 0 then
    invalid_arg "Spsc_bytes.create: slot_size must be a power of two >= 32";
  let buf = Bytes.create (slots * slot_size) in
  let lens = Array.make slots 0 in
  let side = Spsc.create ~slots:(max 4 slots) in
  pad ();
  let head = Atomic.make 0 in
  pad ();
  let tail = Atomic.make 0 in
  pad ();
  {
    buf;
    lens;
    n_slots = slots;
    slot_bytes = slot_size;
    side;
    head;
    tail;
    n_push = 0;
    n_jumbo = 0;
    occ_peak = 0;
    n_pop = 0;
  }

let slots q = q.n_slots
let slot_size q = q.slot_bytes

let note_push q occ =
  q.n_push <- q.n_push + 1;
  if occ > q.occ_peak then q.occ_peak <- occ

let try_push q msg =
  let size = Codec.encoded_size msg in
  let k = (size + q.slot_bytes - 1) / q.slot_bytes in
  let tail = Atomic.get q.tail in
  let free = q.n_slots - (tail - Atomic.get q.head) in
  let ti = tail mod q.n_slots in
  if ti + k <= q.n_slots then
    if free < k then false
    else begin
      ignore (Codec.encode msg q.buf ~pos:(ti * q.slot_bytes));
      q.lens.(ti) <- size;
      Atomic.set q.tail (tail + k);
      note_push q (tail + k - Atomic.get q.head);
      true
    end
  else if k <= ti then begin
    (* The spill would straddle the physical end but fits from slot 0:
       pad out the tail slots and start there so the encoded bytes stay
       contiguous. *)
    let padding = q.n_slots - ti in
    if free < padding + k then false
    else begin
      ignore (Codec.encode msg q.buf ~pos:0);
      q.lens.(0) <- size;
      q.lens.(ti) <- pad_marker;
      Atomic.set q.tail (tail + padding + k);
      note_push q (tail + padding + k - Atomic.get q.head);
      true
    end
  end
  else if
    (* No contiguous placement exists at this tail alignment — neither
       in place nor after a pad — and the tail only moves on a
       successful push, so waiting would deadlock. Box the message
       through the side ring, leaving a marker slot in line. (Anything
       larger than the whole ring always lands here.) Side push must
       come first: a consumer that sees the published marker must find
       the value already there. *)
    free < 1 || not (Spsc.try_push q.side msg)
  then false
  else begin
    q.lens.(ti) <- jumbo_marker;
    Atomic.set q.tail (tail + 1);
    q.n_jumbo <- q.n_jumbo + 1;
    note_push q (tail + 1 - Atomic.get q.head);
    true
  end

let rec try_pop q =
  let head = Atomic.get q.head in
  if head >= Atomic.get q.tail then None
  else begin
    let hi = head mod q.n_slots in
    let len = q.lens.(hi) in
    if len = pad_marker then begin
      Atomic.set q.head (head + (q.n_slots - hi));
      try_pop q
    end
    else if len = jumbo_marker then begin
      match Spsc.try_pop q.side with
      | Some msg ->
        Atomic.set q.head (head + 1);
        q.n_pop <- q.n_pop + 1;
        Some msg
      | None ->
        (* The producer publishes the side value before the marker. *)
        assert false
    end
    else begin
      let msg = Codec.decode q.buf ~pos:(hi * q.slot_bytes) ~len in
      let k = (len + q.slot_bytes - 1) / q.slot_bytes in
      Atomic.set q.head (head + k);
      q.n_pop <- q.n_pop + 1;
      Some msg
    end
  end

let is_empty q = Atomic.get q.head >= Atomic.get q.tail

let pushes q = q.n_push
let pops q = q.n_pop
let occupancy_peak q = q.occ_peak
let jumbo_pushes q = q.n_jumbo
