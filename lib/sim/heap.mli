(** Binary min-heap keyed by [(time, sequence)].

    The sequence number breaks ties between events scheduled for the
    same instant, guaranteeing FIFO order among simultaneous events and
    therefore a fully deterministic simulation.

    Precisely: entries are ordered by the strict total order
    [(key, seq) <lex (key', seq')], and the engine assigns [seq] from a
    monotonic counter, so equal-instant events pop in exactly the order
    they were pushed. This totality is load-bearing for the model
    checker ({!Bftmc}): replaying a prefix of scheduling decisions must
    reconstruct the very same simulator state, which it only does if
    the heap never has freedom in which of two simultaneous events to
    surface first. The order is property-tested (random same-key
    pushes pop in push order) and pinned by a replay-digest regression
    test in [test_sim.ml].

    The heap is a struct of arrays — keys, sequence numbers and values
    in three parallel arrays — so {!push}, {!min_key} and {!pop_min}
    allocate nothing once the backing arrays have grown to the working
    size. {!pop} and {!peek_key} are option-returning wrappers over
    them for callers off the hot path. *)

type 'a t

val create : unit -> 'a t

val size : 'a t -> int

val capacity : 'a t -> int
(** Allocated slots in the backing array ([>= size]); what the event
    queue actually costs in memory, for capacity probes. *)

val is_empty : 'a t -> bool

val push : 'a t -> key:int -> seq:int -> 'a -> unit
(** [push h ~key ~seq v] inserts [v] with priority [(key, seq)]. *)

val min_key : 'a t -> int
(** [min_key h] is the smallest key. Raises [Invalid_argument] when
    the heap is empty. Allocates nothing. *)

val pop_min : 'a t -> 'a
(** [pop_min h] removes the minimum element and returns its value;
    read its key with {!min_key} first. Raises [Invalid_argument] when
    the heap is empty. Allocates nothing, and the vacated slot is
    overwritten so the heap keeps no reference to the popped value. *)

val pop : 'a t -> (int * int * 'a) option
(** [pop h] removes and returns the minimum element, or [None] when the
    heap is empty. The vacated slot in the backing array is overwritten
    so the heap keeps no reference to the popped value. *)

val peek_key : 'a t -> int option
(** [peek_key h] is the smallest key without removing it. *)

val clear : 'a t -> unit
(** [clear h] empties the heap and drops every value reference held by
    the backing array. *)
