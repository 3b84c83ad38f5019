(** Monomorphic event queue — the simulator's hot path.

    A hierarchical bucketed timing wheel (Varghese–Lauck style) over
    pooled event records, keyed on the (time, seq) pair: earlier
    instants first, schedule order (FIFO) within an instant.

    {b Geometry.} Four levels of 512, 256, 128 and 64 buckets keyed
    off the wheel's virtual position cover a 2^30 ns (≈1.07 s) horizon.
    Level 0 buckets are 1 ns wide, so level 0 spans 512 ns — a few of
    the simulator's mean gaps between events (≈150 ns on the paper's
    dumbbell), and most pops find the next event there without touching
    a higher level. Level 1 buckets are 512 ns wide and the level spans
    ≈131 µs, past every serialization, propagation and pacing delay the
    simulator schedules (32 ns to ≈100 µs ahead); such an event is filed
    once at level 1 and cascades once into level 0. Level 2 (≈131 µs
    buckets, ≈16.8 ms span) holds the RTO timers, which are nearly
    always cancelled in O(1) before they cascade; level 3 reaches the
    horizon. Each bucket is an intrusive circular doubly-linked list
    over the pooled slots (the head's predecessor is the tail, so a
    bucket costs one word); a two-stage occupancy bitmap (one 32-bit
    word per 32 buckets plus one summary word) makes finding the next
    occupied bucket two find-first-sets, not a scan.

    Two small (key, seq) binary heaps back the wheel up at its edges:
    {e overdue} (events dated at or before an instant the wheel already
    passed — {!Sim} never produces these, but arbitrary call sequences
    may) and {e overflow} (events beyond the horizon, drained into the
    wheel a block at a time as the clock advances). Schedule and cancel
    are O(1) for wheel-resident events; pop is near-O(1) — each event
    cascades down at most three times over its whole life. Pop order is
    bit-identical to the 4-ary heap this replaced (a generic binary
    heap in the test suite is retained as the qcheck oracle).

    {b Pooling invariants.} An event record is owned by the queue from
    {!add} until it leaves the structure — by firing ({!pop}), by
    {!cancel} when wheel-resident (unlinked and recycled immediately),
    or, for heap-resident events, when the lazy sweep or a later pop
    reaches the dead record. At that point it is recycled: its
    generation is bumped, invalidating outstanding {!id}s. Its key,
    class and action stay in place until the record is reused, which
    is what lets {!popped_action} read the fired record instead of a
    copy; the free list is LIFO, so the next {!add} reuses it, and a
    free record pins at most the one closure it last carried. Callers
    interact only through {!id} values, which are immediate ints; a
    stale id — one whose event already fired or was cancelled — is
    detected by the generation check and {!cancel} returns [false]
    instead of touching a recycled record.

    Times must stay below 2^62 ns (≈146 years of simulated time): keys
    are stored as unboxed [int] nanoseconds. *)

type t

type id = private int
(** Handle to a scheduled event. Immediate (never allocated). *)

val none : id
(** A handle that matches no event; [cancel t none] is a no-op. Useful
    as an initial value for fields that later hold real ids. *)

val create : unit -> t
(** Empty queue. The pool and both backstop heaps grow on demand. *)

val length : t -> int
(** Occupancy the queue actually holds in memory: live events plus
    cancelled heap-resident events not yet swept. Wheel-resident
    cancels recycle immediately and never linger, so on the {!Sim}
    fast path (no past or beyond-horizon events) this equals {!live}. *)

val live : t -> int
(** Scheduled, not-yet-fired, not-cancelled events. *)

val pool_size : t -> int
(** Number of event records ever allocated (live + dead + free). A
    steady schedule→pop cycle keeps this constant — the observable
    effect of pooling, asserted by the allocation regression tests. *)

val overdue_len : t -> int
(** Entries (live + unswept dead) in the overdue backstop heap — events
    scheduled at or before an instant the wheel has already passed.
    Always 0 under {!Sim}, which forbids scheduling in the past.
    Exposed so tests can assert which structure a trace exercised. *)

val overflow_len : t -> int
(** Entries (live + unswept dead) in the far-future overflow heap —
    events beyond the wheel's 2^30 ns horizon, waiting to drain. *)

val add : t -> time:Time.t -> (unit -> unit) -> id
(** Schedules an action. Events added at equal [time] fire in [add]
    order. O(1) for events within the wheel horizon (the common case);
    O(log n) into a backstop heap otherwise. Allocates only when the
    pool has no free record. The event carries class tag 0
    ({!Event_class.Other}). *)

val add_cls : t -> time:Time.t -> cls:int -> (unit -> unit) -> id
(** {!add} with an explicit {!Event_class} index tag for the
    self-profiler. [cls] is a required label (an optional int would box
    on every call); tagging is one immediate store and never changes
    pop order. *)

val cancel : t -> id -> bool
(** Cancels the event; returns [false] (and does nothing) if the id is
    stale — already fired, already cancelled, or recycled. A
    wheel-resident event (the hot case: every pending timer within
    ~1 s) is unlinked from its bucket and recycled immediately, O(1).
    Heap-resident events (overdue / far-future) are marked dead and
    swept lazily: once corpses exceed half that heap (and it holds at
    least 64 entries) it is compacted in O(n). *)

val pop : t -> bool
(** Removes the minimum live event, advancing the wheel's virtual
    position (cascading higher-level buckets as it crosses into them)
    and recycling any cancelled heap roots met on the way. Returns
    [false] when no live event remains. On [true] the fired event's
    fields are readable via {!popped_time} / {!popped_action} /
    {!popped_cls} until the next {!add} or [pop]. *)

val pop_until : t -> limit_ns:int -> bool
(** {!pop} if the minimum live event is due at or before [limit_ns]
    (nanoseconds); otherwise [false], leaving every live event in
    place. One scan both finds the event and tests the deadline, so the
    run-until loop needs no separate peek. [pop t] is
    [pop_until t ~limit_ns:max_int]. *)

val popped_time : t -> Time.t
val popped_action : t -> unit -> unit

val popped_cls : t -> int
(** {!Event_class} index of the last popped event (0 = untagged). *)

val live_min_key_ns : t -> int
(** Nanosecond key of the next event {!pop} would fire, or [max_int]
    when no live event remains, without removing it. Advances the wheel
    to that event's tick (the work {!pop} would do anyway) and recycles
    cancelled heap roots met on the way, so the result is the true live
    minimum, never the key of a stale cancelled root. The reference
    against which {!pop_until} is tested. *)
