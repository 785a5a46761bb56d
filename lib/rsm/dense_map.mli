(** Maps from small non-negative ints to values, stored densely.

    For keys that count up from 0 — consensus instances, a client's
    request ids: about one word per key up to the largest bound one,
    where a hash table spends five or six words per binding. Keys live
    in fixed-size chunks allocated on first use, so growing never
    copies. Memory follows the largest key, not the number of
    bindings, so sparse or huge keys do not belong here. *)

type 'v t

val create : unit -> 'v t
val mem : 'v t -> int -> bool
val find_opt : 'v t -> int -> 'v option

val get : 'v t -> int -> 'v
(** @raise Not_found on an unbound key. *)

val replace : 'v t -> int -> 'v -> unit
(** @raise Invalid_argument on a negative key. *)

val length : 'v t -> int
(** Number of bound keys. *)

val max_key : 'v t -> int
(** Largest bound key, [-1] when empty. *)

val reset : 'v t -> unit
(** Unbinds everything and releases the storage. *)

val iter : (int -> 'v -> unit) -> 'v t -> unit
(** In ascending key order. *)

val fold : (int -> 'v -> 'a -> 'a) -> 'v t -> 'a -> 'a
(** In {e descending} key order, so consing builds an ascending list. *)

val fold_from : from_:int -> (int -> 'v -> 'a -> 'a) -> 'v t -> 'a -> 'a
(** {!fold} over the keys [>= from_]. *)

val to_list : 'v t -> (int * 'v) list
(** Bindings in ascending key order. *)
