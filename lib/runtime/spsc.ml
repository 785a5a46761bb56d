(* Monotonically increasing cursors: [tail] counts enqueues (producer-
   owned), [head] counts dequeues (consumer-owned); occupancy is their
   difference and slot index is [cursor mod slots]. Slot contents are
   plain (non-atomic) writes: the OCaml memory model makes the
   producer's slot write happen-before the consumer's slot read because
   the producer's [Atomic.set tail] (SC) follows the write and the
   consumer reads [tail] before the slot; symmetrically the consumer's
   slot clear happens-before the producer's reuse via [head]. *)

type 'a t = {
  ring : 'a option array;
  n_slots : int;
  head : int Atomic.t; (* consumer cursor *)
  tail : int Atomic.t; (* producer cursor *)
  (* Single-writer statistics; see .mli for the read discipline. *)
  mutable n_push : int;
  mutable n_pop : int;
  mutable occ_peak : int;
}

(* OCaml 5.1 has no [Atomic.make_contended]; pad by allocating filler
   between the two atomic boxes. Minor-heap allocation is sequential,
   so the boxes start at least a cache line apart (15 words ≥ 64 bytes
   on 64-bit). This does not survive promotion: the major heap packs
   blocks of one size together, so after the first minor collection
   the atomics of all rings sit 16 bytes apart. Blocks large enough
   to keep them apart measured no faster on the one-message-in-flight
   live workloads. *)
let pad () = ignore (Sys.opaque_identity (Array.make 15 0))

let create ~slots =
  if slots < 1 then invalid_arg "Spsc.create: slots must be >= 1";
  let ring = Array.make slots None in
  pad ();
  let head = Atomic.make 0 in
  pad ();
  let tail = Atomic.make 0 in
  pad ();
  { ring; n_slots = slots; head; tail; n_push = 0; n_pop = 0; occ_peak = 0 }

let slots q = q.n_slots

let try_push q x =
  let tail = Atomic.get q.tail in
  let occ = tail - Atomic.get q.head in
  if occ >= q.n_slots then false
  else begin
    q.ring.(tail mod q.n_slots) <- Some x;
    Atomic.set q.tail (tail + 1);
    q.n_push <- q.n_push + 1;
    if occ + 1 > q.occ_peak then q.occ_peak <- occ + 1;
    true
  end

let try_pop q =
  let head = Atomic.get q.head in
  if head >= Atomic.get q.tail then None
  else begin
    let i = head mod q.n_slots in
    let v = q.ring.(i) in
    q.ring.(i) <- None;
    Atomic.set q.head (head + 1);
    q.n_pop <- q.n_pop + 1;
    v
  end

let length q = max 0 (Atomic.get q.tail - Atomic.get q.head)
let pushes q = q.n_push
let pops q = q.n_pop
let occupancy_peak q = q.occ_peak
