(** Time-ordered queue, first-in first-out among equal times.

    The event queue of both network backends (the simulator's scheduler
    and a live node's timers).  It keys an {!Intheap} on one immediate
    int per entry, [(time lsl 31) lor seq] with a push counter [seq], so
    pushes and pops compare with an unboxed [<] and allocate nothing.
    The first entry whose time or counter no longer fits 31 bits moves
    every queued entry onto a tuple-keyed {!Pqueue} with the identical
    order; from then on only the constant factor differs. *)

type 'a t

val create : unit -> 'a t

val is_empty : 'a t -> bool

val push : 'a t -> int -> 'a -> unit
(** [push q time v]: [v] comes out after every entry with a smaller
    time, and after every entry with the same time pushed before it.
    [time] must be non-negative. *)

val min_time : 'a t -> int
(** Time of the next entry to come out, without removing it.
    @raise Invalid_argument on an empty queue. *)

val pop_min : 'a t -> 'a
(** Remove the next entry and return its value; read {!min_time} first
    when the time is needed.
    @raise Invalid_argument on an empty queue. *)
