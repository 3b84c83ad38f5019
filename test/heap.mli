(** Imperative binary min-heap, ordered by a comparison given at creation.

    The reference priority queue the [Engine.Event_queue] qcheck property
    compares the timing wheel against. *)

type 'a t

val create : ?capacity:int -> cmp:('a -> 'a -> int) -> unit -> 'a t
(** [create ~cmp ()] is an empty heap ordered by [cmp] (minimum first). *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit
(** Amortised O(log n). *)

val peek : 'a t -> 'a option
(** Minimum element, without removing it. *)

val pop : 'a t -> 'a option
(** Removes and returns the minimum element. O(log n). *)

val pop_exn : 'a t -> 'a
(** @raise Invalid_argument on an empty heap. *)

val filter_in_place : ('a -> bool) -> 'a t -> unit
(** Keeps only the elements satisfying the predicate and restores the
    heap invariant, in O(n) and without allocating a new backing array. *)

val clear : 'a t -> unit

val to_sorted_list : 'a t -> 'a list
(** Non-destructive; O(n log n). *)

val iter_unordered : ('a -> unit) -> 'a t -> unit
(** Iterates over elements in unspecified order. *)
