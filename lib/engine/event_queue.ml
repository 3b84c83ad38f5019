(* Monomorphic event queue: a hierarchical bucketed timing wheel
   (Varghese–Lauck style) over pooled event records, keyed on (time, seq).
   This is the simulator's hot path; the wheel replaces the PR 4 implicit
   4-ary min-heap because the event mix is timer-dominated — RTO rearms,
   pacing ticks, link serialization completions — which is exactly the
   workload wheels make near-O(1):

   - schedule is a level computation (one xor, at most three compares)
     and a list append: no O(log n) sift;
   - cancel unlinks the slot from its bucket's intrusive circular list
     and recycles it immediately: no dead weight carried to the next
     compaction sweep, no sweep at all for wheel-resident events;
   - pop finds the next occupied 1 ns tick through a two-stage occupancy
     bitmap (two find-first-sets, not a scan) and cascades a
     higher-level bucket down only when the virtual clock actually
     crosses into it — each event is touched at most [levels] times over
     its life, and on the simulator's traffic about once;
   - event records come from a free-list pool, so steady schedule/fire
     and schedule/cancel churn allocates nothing;
   - ids handed to callers are immediate ints carrying a generation
     stamp, so a stale [cancel] (after the record was recycled) is
     detected and ignored instead of corrupting an unrelated event.

   {b Pop order is bit-identical to the heap it replaced}: strict
   (key_ns, seq) — earlier instants first, schedule order within an
   instant. Within a 1 ns level-0 bucket every resident shares the same
   key, and every bucket list keeps equal-key events in ascending [seq]
   order with plain appends (see [bucket_insert]); popping the head is
   therefore the global minimum. The qcheck
   suite proves the equivalence against both a naive model and the
   test-only reference heap.

   Two small (key, seq) binary min-heaps back the wheel up at its edges:

   - {e overdue}: events scheduled at or before an instant the wheel has
     already passed (never produced by {!Sim}, which forbids scheduling
     in the past, but the queue keeps the total order honest under
     arbitrary call sequences);
   - {e overflow}: events beyond the wheel horizon (2^30 ns ≈ 1.07 s
     past the current position). When the wheel drains below them the
     clock jumps to the earliest overflow block and that block's events
     cascade into the wheel — in heap order, so same-instant residents
     arrive seq-sorted.

   Heap-resident events cancel lazily (marked dead, skipped at the root,
   swept when the dead outnumber half the heap); wheel-resident events —
   the hot case — cancel in O(1). *)

(* Wheel geometry: four levels whose bucket widths were fitted to the
   simulator's measured traffic. On the paper's dumbbell at N = 60 the
   mean gap between events is ~150 ns and nearly every event is
   scheduled 32-64 ns (host turnarounds), ~1.2 us (serialization) or
   16-33 us (propagation) ahead, plus RTO rearms 8-16 ms ahead that are
   almost always cancelled:

   level | buckets | bucket width | level span
   ------+---------+--------------+-----------
     0   |   512   |    1 ns      |   512 ns   (a few mean gaps)
     1   |   256   |   512 ns     |   131 us   (serialization, propagation)
     2   |   128   |   131 us     |  16.8 ms   (RTO timers)
     3   |    64   |  16.8 ms     |  2^30 ns ≈ 1.07 s

   So most pops find the next event in level 0 without looking higher,
   and a link event cascades once (level 1 -> 0). Level [l] holds the
   keys that first differ from the position in bits
   [level_shift.(l), level_shift.(l + 1)); keys not sharing the
   position's bits at or above [horizon_bits] are overflow. 960 buckets
   in all keep a simulator's fixed footprint at the old 6 x 32 wheel's:
   a 1024-bucket level 0 ran the dumbbell no faster, within run-to-run
   noise, and raised its peak heap by 3 %. *)
let levels = 4
let level0_bits = 9
let level0_mask = (1 lsl level0_bits) - 1
let level_shift = [| 0; level0_bits; 17; 24; 30 |]
let horizon_bits = 30

(* Bucket [b] of level [l] is [level_base.(l) + slot]; the bases are
   multiples of 32 so every bitmap word below belongs to one level. *)
let level_base = [| 0; 512; 768; 896; 960 |]
let n_buckets = 960

(* Occupancy is a two-stage bitmap over all buckets: [bits] holds one
   32-bit word per 32 buckets (30 words), and a single [summary] int one
   bit per non-empty word. Both fit in 32 bits, so the De Bruijn
   find-first-set below applies to either. *)
let word_bits = 5
let word_mask = (1 lsl word_bits) - 1

(* Location codes for [where]: a bucket index, or one of these. *)
let loc_overdue = -2
let loc_overflow = -3

type event = {
  mutable key_ns : int;
      (* Scheduled instant in integer nanoseconds; the primary sort key,
         and the popped [Time.t] itself (instants are immediate ints). *)
  mutable seq : int;  (* FIFO tie-break: schedule order within an instant. *)
  mutable action : unit -> unit;
  mutable cls : int;
      (* {!Event_class} index tag, carried for the self-profiler. An
         immediate int: tagging costs one mutable-field store. *)
  mutable live : bool;  (* Scheduled and not cancelled, not yet fired. *)
  mutable gen : int;  (* Bumped on every release; validates ids. *)
  mutable next_free : int;  (* Free-list link (pool index), -1 = end. *)
  mutable where : int;  (* Bucket index, or a [loc_*] code. *)
  mutable next_ev : int;
      (* Intrusive circular bucket-list links (pool indices): the head's
         [prev_ev] is the bucket's tail, so no tail array is needed. *)
  mutable prev_ev : int;
  idx : int;  (* This record's pool slot; never changes. *)
}

type id = int

let noop () = ()

(* id layout: [idx lsl gen_bits | gen mod 2^gen_bits]. A stale id only
   aliases a reused slot after the same record has been recycled 2^32
   times while the caller still holds the old id. *)
let gen_bits = 32
let gen_mask = (1 lsl gen_bits) - 1

(* The packing needs idx and gen to occupy disjoint bit ranges of a
   native int. On a 32-bit target (or js_of_ocaml) [idx lsl 32] is 0
   for every slot, so all ids would alias pool slot 0 and stale-cancel
   detection would silently break — fail loudly instead. *)
let () =
  if Sys.int_size < 63 then
    failwith "Event_queue: requires 63-bit native ints (32-bit unsupported)"

let id_of ev = (ev.idx lsl gen_bits) lor (ev.gen land gen_mask)
let none = -1

(* A (key, seq) binary min-heap of pool indices: the overdue / overflow
   backstops. Cancelled entries stay until the root sweep or a compaction
   reaches them (the wheel's own buckets never hold dead events). *)
type mini = {
  mutable arr : int array;
  mutable n : int;
  mutable dead : int;
}

type t = {
  mutable pool : event array;  (* pool slot -> record, in [0, pool_len) *)
  mutable pool_len : int;
  mutable free_head : int;  (* head of the free list, -1 = empty *)
  mutable next_seq : int;
  mutable live_count : int;
  mutable pos : int;
      (* The wheel's virtual position (ns): the key of the last event
         popped out of the wheel, monotone. Bucket membership is always
         relative to [pos]. *)
  head : int array;  (* bucket -> first pool index, -1 = empty *)
  bits : int array;  (* word -> occupancy of its 32 buckets *)
  mutable summary : int;  (* one bit per non-empty [bits] word *)
  overdue : mini;
  overflow : mini;
  mutable popped : int;
      (* Pool slot of the last popped record. Release leaves its key,
         class and action in place, so the popped_* readers need no
         copy; the slot is reused by the next [add] at the earliest. *)
}

(* Both backstop heaps start at 8 entries and double on demand: the
   simulator leaves them nearly always empty. *)
let create () =
  {
    pool = [||];
    pool_len = 0;
    free_head = -1;
    next_seq = 0;
    live_count = 0;
    pos = 0;
    head = Array.make n_buckets (-1);
    bits = Array.make (n_buckets lsr word_bits) 0;
    summary = 0;
    overdue = { arr = Array.make 8 (-1); n = 0; dead = 0 };
    overflow = { arr = Array.make 8 (-1); n = 0; dead = 0 };
    popped = -1;
  }

let live t = t.live_count
let pool_size t = t.pool_len

(* Occupancy actually held: live events plus cancelled heap residents not
   yet swept (wheel cancels recycle immediately and never linger). *)
let length t = t.live_count + t.overdue.dead + t.overflow.dead

let overdue_len t = t.overdue.n
let overflow_len t = t.overflow.n

(* --- pool ---------------------------------------------------------- *)

let new_event idx =
  {
    key_ns = 0;
    seq = 0;
    action = noop;
    cls = 0;
    live = false;
    gen = 0;
    next_free = -1;
    where = -1;
    next_ev = -1;
    prev_ev = -1;
    idx;
  }

let grow_pool t =
  let cap = Stdlib.max 8 (2 * Array.length t.pool) in
  let data = Array.make cap (new_event (-1)) in
  Array.blit t.pool 0 data 0 t.pool_len;
  t.pool <- data

let alloc t =
  if t.free_head >= 0 then begin
    let ev = t.pool.(t.free_head) in
    t.free_head <- ev.next_free;
    ev
  end
  else begin
    if t.pool_len = Array.length t.pool then grow_pool t;
    let ev = new_event t.pool_len in
    t.pool.(t.pool_len) <- ev;
    t.pool_len <- t.pool_len + 1;
    ev
  end

(* A record is released exactly once, when it leaves the structure
   (fired, cancelled out of the wheel, or swept out of a backstop heap).
   The generation bump invalidates outstanding ids. The action is left
   in place: the popped_* readers read it from the record, and the free
   list is LIFO, so the next [add] overwrites it, and a free record pins
   at most the one closure it last carried. *)
let release t ev =
  ev.gen <- ev.gen + 1;
  ev.live <- false;
  ev.next_free <- t.free_head;
  t.free_head <- ev.idx

(* --- find-first-set ------------------------------------------------- *)

(* De Bruijn multiply: index of the lowest set bit of a 32-bit mask in a
   handful of arithmetic ops, no loop. The [land 0xFFFFFFFF] is load-
   bearing — the classic constant relies on 32-bit truncation. *)
let debruijn = 0x077CB531

let ctz_table =
  let tbl = Array.make 32 0 in
  for i = 0 to 31 do
    tbl.((((1 lsl i) * debruijn) land 0xFFFFFFFF) lsr 27) <- i
  done;
  tbl

let[@inline] ctz m =
  ctz_table.((((m land (-m)) * debruijn) land 0xFFFFFFFF) lsr 27)

(* Level of a key whose xor with the position is [x < 2^horizon_bits]:
   the level covering x's highest set bit (bounds from [level_shift]). *)
let[@inline] level_of_xor x =
  if x < 1 lsl level0_bits then 0
  else if x < 1 lsl 17 then 1
  else if x < 1 lsl 24 then 2
  else 3

(* --- occupancy bitmap ----------------------------------------------- *)

let[@inline] mark_occupied t b =
  let w = b lsr word_bits in
  let old = t.bits.(w) in
  t.bits.(w) <- old lor (1 lsl (b land word_mask));
  if old = 0 then t.summary <- t.summary lor (1 lsl w)

let[@inline] mark_empty t b =
  let w = b lsr word_bits in
  let m = t.bits.(w) land lnot (1 lsl (b land word_mask)) in
  t.bits.(w) <- m;
  if m = 0 then t.summary <- t.summary land lnot (1 lsl w)

(* First occupied slot at or after [from] on level [l], or -1; [from]
   may be one past the level's last slot. The word holding [from] is
   masked below it; past that word the summary names the next non-empty
   word directly, and a word past the level's end means none. *)
let next_occupied t l from =
  let base = level_base.(l) in
  let g = base + from in
  let stop = level_base.(l + 1) in
  if g >= stop then -1
  else begin
    let w = g lsr word_bits in
    let m = t.bits.(w) land (-1 lsl (g land word_mask)) in
    if m <> 0 then (w lsl word_bits) + ctz m - base
    else begin
      let s = t.summary land (-1 lsl (w + 1)) in
      if s = 0 then -1
      else begin
        let w = ctz s in
        let g = w lsl word_bits in
        if g >= stop then -1 else g + ctz t.bits.(w) - base
      end
    end
  end

(* --- wheel buckets -------------------------------------------------- *)

(* Append [ev] at the bucket's tail. Pop order needs only this
   invariant: within a bucket, events of equal key sit in ascending seq
   order (a level-0 bucket holds one key, so its head is its minimum).
   Appending keeps it. A direct add carries the highest seq yet issued.
   A cascade re-files a bucket's list in order into buckets inside that
   bucket's span, and those are empty: the position only enters a
   span by cascading it. An overflow drain files heap-ordered events
   into an empty wheel. *)
let bucket_insert t ev b =
  ev.where <- b;
  let h = t.head.(b) in
  if h < 0 then begin
    ev.prev_ev <- ev.idx;
    ev.next_ev <- ev.idx;
    t.head.(b) <- ev.idx;
    mark_occupied t b
  end
  else begin
    let pool = t.pool in
    let tl = pool.(h).prev_ev in
    ev.prev_ev <- tl;
    ev.next_ev <- h;
    pool.(tl).next_ev <- ev.idx;
    pool.(h).prev_ev <- ev.idx
  end

let bucket_unlink t ev =
  let b = ev.where in
  let n = ev.next_ev in
  if n = ev.idx then begin
    t.head.(b) <- -1;
    mark_empty t b
  end
  else begin
    let pool = t.pool in
    let p = ev.prev_ev in
    pool.(p).next_ev <- n;
    pool.(n).prev_ev <- p;
    if t.head.(b) = ev.idx then t.head.(b) <- n
  end

(* File a live event whose key shares the current position's top block.
   The level is the one holding the highest bit where key and pos
   differ; the slot is the key's bits at that level. Keys at [pos]
   itself land in level 0, slot [pos land level0_mask]. *)
let wheel_insert t ev =
  let l = level_of_xor (ev.key_ns lxor t.pos) in
  let lo = level_shift.(l) in
  let s = (ev.key_ns lsr lo) land ((1 lsl (level_shift.(l + 1) - lo)) - 1) in
  bucket_insert t ev (level_base.(l) + s)

(* --- backstop heaps ------------------------------------------------- *)

let mini_less pool a b =
  let ea = pool.(a) and eb = pool.(b) in
  ea.key_ns < eb.key_ns || (ea.key_ns = eb.key_ns && ea.seq < eb.seq)

let mini_push t (m : mini) ev =
  if m.n = Array.length m.arr then begin
    let arr = Array.make (2 * m.n) (-1) in
    Array.blit m.arr 0 arr 0 m.n;
    m.arr <- arr
  end;
  let pool = t.pool in
  let arr = m.arr in
  let i = ref m.n in
  m.n <- m.n + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) lsr 1 in
    if mini_less pool ev.idx arr.(p) then begin
      arr.(!i) <- arr.(p);
      i := p
    end
    else continue := false
  done;
  arr.(!i) <- ev.idx

let mini_drop_root pool (m : mini) =
  m.n <- m.n - 1;
  let last = m.arr.(m.n) in
  m.arr.(m.n) <- -1;
  if m.n > 0 then begin
    let arr = m.arr in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let c1 = (2 * !i) + 1 in
      if c1 >= m.n then continue := false
      else begin
        let c =
          if c1 + 1 < m.n && mini_less pool arr.(c1 + 1) arr.(c1) then c1 + 1
          else c1
        in
        if mini_less pool arr.(c) last then begin
          arr.(!i) <- arr.(c);
          i := c
        end
        else continue := false
      end
    done;
    arr.(!i) <- last
  end

(* Root pool index after recycling any dead entries sitting on top, or
   -1 when the heap has no live entry reachable without a full sweep
   (dead entries below live ones are left for the compaction policy). *)
let rec mini_min t (m : mini) =
  if m.n = 0 then -1
  else begin
    let r = m.arr.(0) in
    if t.pool.(r).live then r
    else begin
      mini_drop_root t.pool m;
      m.dead <- m.dead - 1;
      release t t.pool.(r);
      mini_min t m
    end
  end

(* Drop every dead entry, then bottom-up heapify in O(n). *)
let mini_compact t (m : mini) =
  let pool = t.pool in
  let j = ref 0 in
  for i = 0 to m.n - 1 do
    let e = m.arr.(i) in
    if pool.(e).live then begin
      m.arr.(!j) <- e;
      incr j
    end
    else release t pool.(e)
  done;
  for i = !j to m.n - 1 do
    m.arr.(i) <- -1
  done;
  m.n <- !j;
  m.dead <- 0;
  for i = ((m.n - 2) asr 1) downto 0 do
    let v = m.arr.(i) in
    let k = ref i in
    let continue = ref true in
    while !continue do
      let c1 = (2 * !k) + 1 in
      if c1 >= m.n then continue := false
      else begin
        let c =
          if c1 + 1 < m.n && mini_less pool m.arr.(c1 + 1) m.arr.(c1) then
            c1 + 1
          else c1
        in
        if mini_less pool m.arr.(c) v then begin
          m.arr.(!k) <- m.arr.(c);
          k := c
        end
        else continue := false
      end
    done;
    m.arr.(!k) <- v
  done

(* --- scheduling ----------------------------------------------------- *)

let file t ev =
  let key = ev.key_ns in
  if key < t.pos then begin
    ev.where <- loc_overdue;
    mini_push t t.overdue ev
  end
  else if key lsr horizon_bits = t.pos lsr horizon_bits then wheel_insert t ev
  else begin
    ev.where <- loc_overflow;
    mini_push t t.overflow ev
  end

let add_cls t ~time ~cls action =
  let ev = alloc t in
  ev.key_ns <- Time.to_int_ns time;
  ev.seq <- t.next_seq;
  t.next_seq <- t.next_seq + 1;
  ev.action <- action;
  ev.cls <- cls;
  ev.live <- true;
  t.live_count <- t.live_count + 1;
  file t ev;
  id_of ev

(* [~cls] is a required label (not optional): an optional int argument
   would box [Some cls] on every call, and this is the hot path. *)
let add t ~time action = add_cls t ~time ~cls:0 action

let cancel t id =
  let idx = id lsr gen_bits in
  if idx < 0 || idx >= t.pool_len then false
  else begin
    let ev = t.pool.(idx) in
    if ev.live && ev.gen land gen_mask = id land gen_mask then begin
      t.live_count <- t.live_count - 1;
      if ev.where >= 0 then begin
        (* Wheel resident: unlink and recycle immediately — the O(1)
           cancel is the point of the wheel for rearm-heavy timers. *)
        bucket_unlink t ev;
        release t ev
      end
      else begin
        (* Heap resident: mark dead, sweep lazily once corpses dominate. *)
        ev.live <- false;
        let m = if ev.where = loc_overdue then t.overdue else t.overflow in
        m.dead <- m.dead + 1;
        if m.n >= 64 && 2 * m.dead > m.n then mini_compact t m
      end;
      true
    end
    else false
  end

(* --- the wheel's virtual clock -------------------------------------- *)

(* Pull the contents of bucket [b] (level >= 1) back through
   [wheel_insert]: with [pos] just advanced into the bucket's span, every
   resident re-files at a strictly lower level, in list order. Each
   record's successor is read before it is re-linked. *)
let cascade t b =
  let pool = t.pool in
  let h = t.head.(b) in
  t.head.(b) <- -1;
  mark_empty t b;
  let cur = ref h in
  let continue = ref true in
  while !continue do
    let ev = pool.(!cur) in
    cur := ev.next_ev;
    wheel_insert t ev;
    if !cur = h then continue := false
  done

(* Pool index of the wheel's earliest event — the head of the first
   occupied level-0 bucket at or after [pos] — or -1 when the wheel is
   empty. Advances [pos] to the event's tick, cascading any higher-level
   bucket the position crosses into; skipped slots are provably empty, so
   the advance never loses an event. Each cascade strictly descends a
   level, bounding the recursion at [levels] steps. *)
let rec wheel_min t =
  let s = next_occupied t 0 (t.pos land level0_mask) in
  if s >= 0 then begin
    t.pos <- (t.pos land lnot level0_mask) lor s;
    t.head.(s)
  end
  else begin
    (* Level 0 exhausted: find the lowest level with a bucket strictly
       ahead of the position's slot there. Within one parent block,
       higher slot = later span, so searching from (slot + 1) is exact
       — no wraparound case exists. *)
    let l = ref 1 in
    let found = ref (-1) in
    while !found < 0 && !l < levels do
      let lo = level_shift.(!l) and hi = level_shift.(!l + 1) in
      let sl = (t.pos lsr lo) land ((1 lsl (hi - lo)) - 1) in
      let s = next_occupied t !l (sl + 1) in
      if s >= 0 then found := s else incr l
    done;
    if !found < 0 then -1
    else begin
      let l = !l and s = !found in
      (* Enter the bucket's span: keep the bits above its level, set
         its slot, zero everything below. *)
      let lo = level_shift.(l) and hi = level_shift.(l + 1) in
      t.pos <- ((t.pos lsr hi) lsl hi) lor (s lsl lo);
      cascade t (level_base.(l) + s);
      wheel_min t
    end
  end

(* Jump the wheel to the earliest overflow block and file that whole
   block's events. Heap pops deliver them in (key, seq) order, so
   same-instant residents arrive seq-sorted. Only called when the wheel
   is empty, so the position jump cannot skip a wheel event. *)
let drain_overflow t root =
  let pool = t.pool in
  t.pos <- pool.(root).key_ns;
  let block = t.pos lsr horizon_bits in
  let continue = ref true in
  while !continue do
    let r = mini_min t t.overflow in
    if r >= 0 && pool.(r).key_ns lsr horizon_bits = block then begin
      mini_drop_root pool t.overflow;
      wheel_insert t pool.(r)
    end
    else continue := false
  done

(* --- pop ------------------------------------------------------------ *)

(* Pool index of the minimum live event, or -1 when none remains; dead
   heap roots met on the way are recycled. The three sources, cheapest
   first: the wheel beats the overflow heap by construction (overflow
   keys live beyond the wheel's whole span); only the overdue heap can
   undercut a wheel event. The overflow heap is drained into the wheel
   only when its root is due by [limit]; otherwise the root itself is
   returned, still parked. *)
let select t limit =
  let w = wheel_min t in
  let od = mini_min t t.overdue in
  if w >= 0 then if od >= 0 && mini_less t.pool od w then od else w
  else begin
    let o = mini_min t t.overflow in
    if o < 0 || (od >= 0 && mini_less t.pool od o) then od
    else if t.pool.(o).key_ns > limit then o
    else begin
      drain_overflow t o;
      wheel_min t
    end
  end

(* One scan serves both the run-until deadline test and the pop: the
   selected event is removed only when it is due by [limit_ns]. A due
   event is never overflow-resident ([select] drained it), so it sits in
   a wheel bucket or at the overdue root. *)
let pop_until t ~limit_ns =
  let best = select t limit_ns in
  if best < 0 then false
  else begin
    let ev = t.pool.(best) in
    if ev.key_ns > limit_ns then false
    else begin
      if ev.where >= 0 then bucket_unlink t ev
      else mini_drop_root t.pool t.overdue;
      t.live_count <- t.live_count - 1;
      t.popped <- best;
      release t ev;
      true
    end
  end

let pop t = pop_until t ~limit_ns:max_int

(* A [limit] below every key never drains the overflow heap, so peeking
   leaves it exactly as it was. *)
let live_min_key_ns t =
  let best = select t (-1) in
  if best < 0 then max_int else t.pool.(best).key_ns

let popped_time t = Time.of_int_ns t.pool.(t.popped).key_ns
let popped_action t = t.pool.(t.popped).action
let popped_cls t = t.pool.(t.popped).cls
