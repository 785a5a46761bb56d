(** Client-session deduplication.

    A retried client request may be ordered twice (the client timed out
    on a slow leader and resubmitted to a new one). The session table
    gives the state machine at-most-once semantics: the first execution
    of a [(client, request)] pair records its result; later occurrences
    are skipped and answered from the cache. *)

type t
(** A mutable session table, stored densely per client (see
    {!Req_map}). *)

val create : unit -> t
(** [create ()] is an empty table. *)

val find : t -> client:int -> req_id:int -> Command.result option
(** [find t ~client ~req_id] is the cached result if the request was
    already executed. *)

val record : t -> client:int -> req_id:int -> Command.result -> unit
(** [record t ~client ~req_id r] marks the request executed with result
    [r]. Recording an already-present pair is an error ([assert]). *)

val executed : t -> client:int -> req_id:int -> bool
(** [executed t ~client ~req_id] is whether the pair was recorded. *)

val size : t -> int
(** [size t] is the number of recorded requests. *)
