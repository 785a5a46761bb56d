(** Maps keyed by request identity, [(client, req_id)].

    Every client numbers its requests from 0 upwards, so the bindings
    are stored densely per client (see {!Dense_map}): about one word
    per request instead of a hash-table binding and a tuple key. Pairs
    outside that shape still work, through a hash table. *)

type 'a t

val create : unit -> 'a t
val find : 'a t -> client:int -> req_id:int -> 'a option
val mem : 'a t -> client:int -> req_id:int -> bool

val add : 'a t -> client:int -> req_id:int -> 'a -> unit
(** Binds a pair that is not bound yet (unchecked: see {!replace}). *)

val replace : 'a t -> client:int -> req_id:int -> 'a -> unit

val size : 'a t -> int
(** Number of bound pairs. *)
