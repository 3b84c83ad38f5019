(* Tests for the discrete-event engine: time, rng, simulator, the
   monomorphic event queue, the int ring buffer and timers, plus the
   reference [Heap] (a test-only module) the event queue is checked
   against. *)

module Time = Engine.Time
module Rng = Engine.Rng
module Sim = Engine.Sim
module Timer = Engine.Timer

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf msg = Alcotest.check (Alcotest.float 1e-9) msg

(* --- Time --- *)

let test_time_conversions () =
  checkf "1s round trip" 1. (Time.to_sec (Time.of_sec 1.));
  checkf "1us" 1e-6 (Time.to_sec (Time.of_us 1.));
  checkf "1ms" 1e-3 (Time.to_sec (Time.of_ms 1.));
  check Alcotest.int64 "of_ns" 123L (Time.to_ns (Time.of_ns 123L));
  checkf "span 2.5ms" 2.5e-3 (Time.span_to_sec (Time.span_of_ms 2.5))

let test_time_rounding () =
  (* of_sec rounds to the nearest nanosecond. *)
  check Alcotest.int64 "round down" 1L (Time.to_ns (Time.of_sec 1.4e-9));
  check Alcotest.int64 "round up" 2L (Time.to_ns (Time.of_sec 1.6e-9))

let test_time_ordering () =
  let a = Time.of_us 1. and b = Time.of_us 2. in
  checkb "lt" true Time.(a < b);
  checkb "le" true Time.(a <= a);
  checkb "gt" true Time.(b > a);
  checkb "ge" true Time.(b >= b);
  checkb "eq" true (Time.equal a a);
  checkb "min" true (Time.equal (Time.min a b) a);
  checkb "max" true (Time.equal (Time.max a b) b)

let test_time_arith () =
  let t = Time.add (Time.of_us 5.) (Time.span_of_us 3.) in
  checkf "add" 8e-6 (Time.to_sec t);
  check Alcotest.int64 "diff" 3000L (Time.diff t (Time.of_us 5.))

let test_time_invalid () =
  Alcotest.check_raises "negative ns" (Invalid_argument "Time.of_ns: negative")
    (fun () -> ignore (Time.of_ns (-1L)));
  checkb "negative sec raises" true
    (match Time.of_sec (-1.) with
    | exception Invalid_argument _ -> true
    | _ -> false);
  checkb "nan raises" true
    (match Time.of_sec Float.nan with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_time_pp () =
  check Alcotest.string "ns" "500ns" (Time.to_string (Time.of_ns 500L));
  check Alcotest.string "us" "1.500us" (Time.to_string (Time.of_ns 1500L));
  check Alcotest.string "ms" "2.000ms" (Time.to_string (Time.of_ms 2.));
  check Alcotest.string "s" "3.000000s" (Time.to_string (Time.of_sec 3.))

(* --- Heap --- *)

let int_heap () = Heap.create ~cmp:Int.compare ()

let test_heap_basic () =
  let h = int_heap () in
  checkb "empty" true (Heap.is_empty h);
  checki "len 0" 0 (Heap.length h);
  List.iter (Heap.push h) [ 5; 1; 4; 1; 3 ];
  checki "len 5" 5 (Heap.length h);
  checkb "peek" true (Heap.peek h = Some 1);
  checki "pop1" 1 (Heap.pop_exn h);
  checki "pop2" 1 (Heap.pop_exn h);
  checki "pop3" 3 (Heap.pop_exn h);
  checki "len 2" 2 (Heap.length h)

let test_heap_pop_empty () =
  let h = int_heap () in
  checkb "pop none" true (Heap.pop h = None);
  Alcotest.check_raises "pop_exn raises"
    (Invalid_argument "Heap.pop_exn: empty heap") (fun () ->
      ignore (Heap.pop_exn h))

let test_heap_sorted_drain () =
  let h = int_heap () in
  let data = [ 9; 2; 7; 2; 0; -3; 14; 8 ] in
  List.iter (Heap.push h) data;
  check
    Alcotest.(list int)
    "to_sorted_list" (List.sort Int.compare data) (Heap.to_sorted_list h);
  (* Non destructive *)
  checki "still full" (List.length data) (Heap.length h)

let test_heap_clear () =
  let h = int_heap () in
  List.iter (Heap.push h) [ 1; 2; 3 ];
  Heap.clear h;
  checkb "cleared" true (Heap.is_empty h)

let test_heap_iter () =
  let h = int_heap () in
  List.iter (Heap.push h) [ 4; 2; 6 ];
  let sum = ref 0 in
  Heap.iter_unordered (fun x -> sum := !sum + x) h;
  checki "iter sum" 12 !sum

let prop_heap_sorts =
  QCheck.Test.make ~count:200 ~name:"heap drains any list in sorted order"
    QCheck.(list int)
    (fun l ->
      let h = int_heap () in
      List.iter (Heap.push h) l;
      let rec drain acc =
        match Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc)
      in
      drain [] = List.sort Int.compare l)

let prop_heap_interleaved =
  QCheck.Test.make ~count:200
    ~name:"heap min is correct under interleaved push/pop"
    QCheck.(list (pair bool small_int))
    (fun ops ->
      let h = int_heap () in
      let model = ref [] in
      List.for_all
        (fun (is_push, v) ->
          if is_push then begin
            Heap.push h v;
            model := v :: !model;
            true
          end
          else begin
            match (Heap.pop h, List.sort Int.compare !model) with
            | None, [] -> true
            | Some x, m :: rest ->
                model := rest;
                x = m
            | None, _ :: _ | Some _, [] -> false
          end)
        ops)

(* --- Rng ---

   These tests create Rng streams directly: the stream type is the unit
   under test, so R10 (streams belong to owner layers) is suppressed on
   each creation line. *)

let test_rng_determinism () =
  let a = Rng.create ~seed:7L and b = Rng.create ~seed:7L in  (* dtlint: allow R10 *)
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create ~seed:7L and b = Rng.create ~seed:8L in  (* dtlint: allow R10 *)
  checkb "different seeds differ" true (Rng.int64 a <> Rng.int64 b)

let test_rng_float_range () =
  let r = Rng.create ~seed:42L in  (* dtlint: allow R10 *)
  for _ = 1 to 1000 do
    let f = Rng.float r in
    checkb "in [0,1)" true (f >= 0. && f < 1.)
  done

let test_rng_int_range () =
  let r = Rng.create ~seed:42L in  (* dtlint: allow R10 *)
  for _ = 1 to 1000 do
    let i = Rng.int r ~bound:17 in
    checkb "in [0,17)" true (i >= 0 && i < 17)
  done;
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r ~bound:0))

let test_rng_uniform () =
  let r = Rng.create ~seed:1L in  (* dtlint: allow R10 *)
  for _ = 1 to 200 do
    let x = Rng.uniform r ~lo:3. ~hi:5. in
    checkb "uniform range" true (x >= 3. && x < 5.)
  done

let test_rng_exponential_mean () =
  let r = Rng.create ~seed:11L in  (* dtlint: allow R10 *)
  let n = 20000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential r ~mean:2.
  done;
  let mean = !sum /. float_of_int n in
  checkb "exponential mean within 5%" true (Float.abs (mean -. 2.) < 0.1)

let test_rng_split_independent () =
  let parent = Rng.create ~seed:3L in  (* dtlint: allow R10 *)
  let c1 = Rng.split parent in  (* dtlint: allow R10 *)
  let c2 = Rng.split parent in  (* dtlint: allow R10 *)
  checkb "children differ" true (Rng.int64 c1 <> Rng.int64 c2)

let test_rng_shuffle_permutation () =
  let r = Rng.create ~seed:5L in  (* dtlint: allow R10 *)
  let arr = Array.init 50 Fun.id in
  let orig = Array.copy arr in
  Rng.shuffle r arr;
  let sorted = Array.copy arr in
  Array.sort Int.compare sorted;
  checkb "is permutation" true (sorted = orig)

let test_rng_jitter_bounds () =
  let r = Rng.create ~seed:9L in  (* dtlint: allow R10 *)
  for _ = 1 to 500 do
    let j = Rng.jitter_span r ~max:1000L in
    checkb "jitter in range" true (Int64.compare j 0L >= 0 && Int64.compare j 1000L <= 0)
  done;
  check Alcotest.int64 "zero max" 0L (Rng.jitter_span r ~max:0L)

(* --- Sim --- *)

let test_sim_runs_in_order () =
  let sim = Sim.create () in
  let order = ref [] in
  ignore (Sim.schedule_at sim (Time.of_us 3.) (fun () -> order := 3 :: !order));
  ignore (Sim.schedule_at sim (Time.of_us 1.) (fun () -> order := 1 :: !order));
  ignore (Sim.schedule_at sim (Time.of_us 2.) (fun () -> order := 2 :: !order));
  Sim.run sim;
  check Alcotest.(list int) "time order" [ 1; 2; 3 ] (List.rev !order)

let test_sim_fifo_same_instant () =
  let sim = Sim.create () in
  let order = ref [] in
  let t = Time.of_us 1. in
  for i = 1 to 5 do
    ignore (Sim.schedule_at sim t (fun () -> order := i :: !order))
  done;
  Sim.run sim;
  check Alcotest.(list int) "FIFO at same time" [ 1; 2; 3; 4; 5 ]
    (List.rev !order)

let test_sim_clock_advances () =
  let sim = Sim.create () in
  let seen = ref Time.zero in
  ignore (Sim.schedule_at sim (Time.of_us 7.) (fun () -> seen := Sim.now sim));
  Sim.run sim;
  checkf "now is event time" 7e-6 (Time.to_sec !seen)

let test_sim_schedule_after () =
  let sim = Sim.create () in
  let fired = ref Time.zero in
  ignore
    (Sim.schedule_at sim (Time.of_us 5.) (fun () ->
         ignore
           (Sim.schedule_after sim (Time.span_of_us 10.) (fun () ->
                fired := Sim.now sim))));
  Sim.run sim;
  checkf "after accumulates" 15e-6 (Time.to_sec !fired)

let test_sim_cancel () =
  let sim = Sim.create () in
  let fired = ref false in
  let ev = Sim.schedule_at sim (Time.of_us 1.) (fun () -> fired := true) in
  checki "pending 1" 1 (Sim.pending sim);
  Sim.cancel sim ev;
  checki "pending 0" 0 (Sim.pending sim);
  (* double cancel is a no-op *)
  Sim.cancel sim ev;
  checki "pending still 0" 0 (Sim.pending sim);
  Sim.run sim;
  checkb "not fired" false !fired;
  checki "nothing processed" 0 (Sim.events_processed sim)

let test_sim_lazy_compaction () =
  (* Cancel-heavy schedule: cancelled events must be reclaimed (the
     wheel unlinks them immediately) instead of carried until popped. *)
  let sim = Sim.create () in
  let n = 1000 in
  let fired = ref [] in
  let evs =
    Array.init n (fun i ->
        Sim.schedule_at sim
          (Time.of_us (float_of_int (i + 1)))
          (fun () -> fired := i :: !fired))
  in
  checki "full occupancy" n (Sim.heap_size sim);
  (* Cancel all but every 10th event, as a rearmed timer storm would. *)
  for i = 0 to n - 1 do
    if i mod 10 <> 0 then Sim.cancel sim evs.(i)
  done;
  checki "live survivors" (n / 10) (Sim.pending sim);
  checkb "swept below live + dead ceiling" true
    (Sim.heap_size sim <= 2 * Sim.pending sim);
  (* High water saw the initial burst, measured as peak live events. *)
  checki "high water is peak occupancy" n (Sim.heap_high_water sim);
  Sim.run sim;
  checki "survivors all fired" (n / 10) (List.length !fired);
  let expected = List.init (n / 10) (fun k -> n - 10 - (10 * k)) in
  checkb "survivors fired in time order" true (!fired = expected);
  checki "only survivors processed" (n / 10) (Sim.events_processed sim);
  checki "heap drained" 0 (Sim.heap_size sim)

(* PR 9 regression pin: on a run with no cancels the live-only high
   water must equal the occupancy-based value it replaced — the
   manifest's [engine.heap_high_water] field stays comparable across
   the change for every existing registry scenario (none of which
   leaves cancelled events unswept at their peak). *)
let test_sim_hwm_no_cancel_regression () =
  let sim = Sim.create () in
  for i = 1 to 37 do
    ignore (Sim.schedule_at sim (Time.of_us (float_of_int i)) (fun () -> ()))
  done;
  checki "high water equals the pre-change peak" 37 (Sim.heap_high_water sim);
  Sim.run sim;
  checki "draining does not move it" 37 (Sim.heap_high_water sim)

(* The satellite fix itself: unswept corpses (held only by the backstop
   heaps, which sweep lazily) must no longer inflate the high water.
   Before the fix this run would report 15 — 9 far-future corpses plus
   6 live — instead of the true live peak of 10. *)
let test_sim_hwm_counts_live_only () =
  let sim = Sim.create () in
  let far i = Time.of_sec (2.0 +. (0.001 *. float_of_int i)) in
  let ids =
    Array.init 10 (fun i -> Sim.schedule_at sim (far i) (fun () -> ()))
  in
  Array.iteri (fun i id -> if i > 0 then Sim.cancel sim id) ids;
  checkb "corpses really are held" true
    (Sim.heap_size sim > Sim.pending sim);
  for i = 0 to 4 do
    ignore
      (Sim.schedule_at sim (Time.of_us (float_of_int (20 + i))) (fun () -> ()))
  done;
  checki "high water counts live events only" 10 (Sim.heap_high_water sim)

let test_sim_run_until_no_overshoot () =
  (* A not-yet-swept cancelled root must not let [run ~until] overshoot:
     its key is inside the deadline, but the event [step] would actually
     fire lies past it and must stay queued. *)
  let sim = Sim.create () in
  let fired = ref false in
  let dead = Sim.schedule_at sim (Time.of_us 5.) ignore in
  ignore (Sim.schedule_at sim (Time.of_us 10.) (fun () -> fired := true));
  Sim.cancel sim dead;
  Sim.run ~until:(Time.of_us 7.) sim;
  checkb "live event past the deadline did not fire" false !fired;
  checkf "clock rests at the deadline" 7e-6 (Time.to_sec (Sim.now sim));
  Sim.run ~until:(Time.of_us 20.) sim;
  checkb "fires once the deadline covers it" true !fired

let test_sim_past_raises () =
  let sim = Sim.create () in
  ignore (Sim.schedule_at sim (Time.of_us 5.) (fun () -> ()));
  Sim.run sim;
  checkb "past raises" true
    (match Sim.schedule_at sim (Time.of_us 1.) (fun () -> ()) with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_sim_run_until () =
  let sim = Sim.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    ignore
      (Sim.schedule_at sim (Time.of_us (float_of_int i)) (fun () -> incr count))
  done;
  Sim.run ~until:(Time.of_us 5.) sim;
  checki "half processed" 5 !count;
  checkf "clock at until" 5e-6 (Time.to_sec (Sim.now sim));
  checki "half pending" 5 (Sim.pending sim);
  Sim.run sim;
  checki "rest processed" 10 !count

let test_sim_until_inclusive () =
  let sim = Sim.create () in
  let fired = ref false in
  ignore (Sim.schedule_at sim (Time.of_us 5.) (fun () -> fired := true));
  Sim.run ~until:(Time.of_us 5.) sim;
  checkb "event at boundary fires" true !fired

let test_sim_until_advances_clock_when_idle () =
  let sim = Sim.create () in
  Sim.run ~until:(Time.of_ms 1.) sim;
  checkf "clock moved" 1e-3 (Time.to_sec (Sim.now sim))

let test_sim_step () =
  let sim = Sim.create () in
  checkb "step on empty" false (Sim.step sim);
  ignore (Sim.schedule_at sim (Time.of_us 1.) (fun () -> ()));
  checkb "step runs" true (Sim.step sim);
  checkb "empty again" false (Sim.step sim)

let test_sim_events_processed () =
  let sim = Sim.create () in
  for i = 1 to 7 do
    ignore (Sim.schedule_at sim (Time.of_us (float_of_int i)) (fun () -> ()))
  done;
  Sim.run sim;
  checki "events" 7 (Sim.events_processed sim)

(* --- Timer --- *)

let test_timer_fires () =
  let sim = Sim.create () in
  let fired = ref Time.zero in
  let t = Timer.create sim ~action:(fun () -> fired := Sim.now sim) in
  Timer.set t ~after:(Time.span_of_us 50.);
  checkb "pending" true (Timer.is_pending t);
  Sim.run sim;
  checkf "fired at deadline" 50e-6 (Time.to_sec !fired);
  checkb "idle after" false (Timer.is_pending t)

let test_timer_rearm_replaces () =
  let sim = Sim.create () in
  let count = ref 0 in
  let t = Timer.create sim ~action:(fun () -> incr count) in
  Timer.set t ~after:(Time.span_of_us 10.);
  Timer.set t ~after:(Time.span_of_us 20.);
  Sim.run sim;
  checki "fires once" 1 !count;
  checkf "clock at second deadline" 20e-6 (Time.to_sec (Sim.now sim))

let test_timer_cancel () =
  let sim = Sim.create () in
  let count = ref 0 in
  let t = Timer.create sim ~action:(fun () -> incr count) in
  Timer.set t ~after:(Time.span_of_us 10.);
  Timer.cancel t;
  checkb "idle" false (Timer.is_pending t);
  Sim.run sim;
  checki "never fires" 0 !count

let test_timer_deadline () =
  let sim = Sim.create () in
  let t = Timer.create sim ~action:(fun () -> ()) in
  checkb "no deadline" true (Timer.deadline t = None);
  Timer.set_at t ~at:(Time.of_us 42.);
  (match Timer.deadline t with
  | Some d -> checkf "deadline" 42e-6 (Time.to_sec d)
  | None -> Alcotest.fail "expected deadline");
  Timer.cancel t

let test_timer_periodic_reuse () =
  let sim = Sim.create () in
  let count = ref 0 in
  let tmr = ref None in
  let action () =
    incr count;
    if !count < 5 then
      match !tmr with
      | Some t -> Timer.set t ~after:(Time.span_of_us 10.)
      | None -> ()
  in
  let t = Timer.create sim ~action in
  tmr := Some t;
  Timer.set t ~after:(Time.span_of_us 10.);
  Sim.run sim;
  checki "five firings" 5 !count;
  checkf "50us elapsed" 50e-6 (Time.to_sec (Sim.now sim))

let prop_sim_fires_in_time_order =
  QCheck.Test.make ~count:200 ~name:"events fire in non-decreasing time order"
    QCheck.(list_of_size Gen.(int_range 0 60) (int_bound 100_000))
    (fun delays_us ->
      let sim = Sim.create () in
      let fired = ref [] in
      List.iter
        (fun us ->
          ignore
            (Sim.schedule_at sim
               (Time.of_us (float_of_int us))
               (fun () -> fired := Time.to_ns (Sim.now sim) :: !fired)))
        delays_us;
      Sim.run sim;
      let order = List.rev !fired in
      let rec non_decreasing = function
        | a :: (b :: _ as rest) ->
            Int64.compare a b <= 0 && non_decreasing rest
        | [] | [ _ ] -> true
      in
      List.length order = List.length delays_us && non_decreasing order)

(* --- Event_queue --- *)

module Eq = Engine.Event_queue

(* Drive the monomorphic queue and a naive model (hashtable of live
   events, min found by scan) through the same trace and demand the
   same observable behaviour: pop order, popped times, cancel results.
   The model keys events by schedule order, which is exactly the
   queue's [seq] tie-break, so the expected order is total. *)
let run_event_queue_trace ops =
  let q = Eq.create () in
  let ids = ref [] (* (tag, id), newest first *) in
  let n_issued = ref 0 in
  let model = Hashtbl.create 64 (* tag -> key_ns, live events only *) in
  let fired = ref (-1) in
  let ok = ref true in
  let model_min () =
    Hashtbl.fold
      (fun tag key acc ->
        match acc with
        | Some (k, tg) when k < key || (k = key && tg < tag) -> acc
        | _ -> Some (key, tag))
      model None
  in
  let do_pop () =
    match (Eq.pop q, model_min ()) with
    | false, None -> ()
    | true, Some (key, tag) ->
        fired := -1;
        (Eq.popped_action q) ();
        if !fired <> tag then ok := false;
        if Int64.to_int (Time.to_ns (Eq.popped_time q)) <> key then
          ok := false;
        Hashtbl.remove model tag
    | true, None | false, Some _ -> ok := false
  in
  List.iter
    (fun (kind, v) ->
      match kind with
      | 0 ->
          let tag = !n_issued in
          incr n_issued;
          let id =
            Eq.add q ~time:(Time.of_ns (Int64.of_int v)) (fun () ->
                fired := tag)
          in
          ids := (tag, id) :: !ids;
          Hashtbl.replace model tag v
      | 1 -> (
          match !ids with
          | [] -> ()
          | l ->
              let tag, id = List.nth l (v mod List.length l) in
              let was_live = Hashtbl.mem model tag in
              let cancelled = Eq.cancel q id in
              if cancelled <> was_live then ok := false;
              if cancelled then Hashtbl.remove model tag)
      | _ -> do_pop ())
    ops;
  (* Drain whatever is left; the guard keeps a broken queue from
     spinning instead of failing. *)
  let guard = ref (List.length ops + 1) in
  while !ok && (Eq.live q > 0 || Hashtbl.length model > 0) && !guard > 0 do
    decr guard;
    do_pop ()
  done;
  !ok && Eq.live q = 0 && Hashtbl.length model = 0

let prop_event_queue_matches_model =
  QCheck.Test.make ~count:300
    ~name:"Event_queue matches a naive model on schedule/cancel/pop traces"
    QCheck.(
      list_of_size
        Gen.(int_range 0 200)
        (pair (int_bound 2) (int_bound 1_000)))
    run_event_queue_trace

(* Cancel-heavy traces: bias the op mix so live events accumulate past
   the compaction threshold (64) and cancels then outnumber the
   survivors, exercising the cancel-then-compact interleavings. *)
let prop_event_queue_cancel_heavy =
  QCheck.Test.make ~count:100
    ~name:"Event_queue survives cancel-then-compact interleavings"
    QCheck.(
      list_of_size
        Gen.(int_range 100 400)
        (pair (int_bound 8) (int_bound 1_000)))
    (fun raw ->
      (* kinds 0-4 schedule, 5-7 cancel, 8 pops: schedules outnumber
         cancels early (occupancy crosses 64), cancels hit a deep heap. *)
      let ops =
        List.map
          (fun (k, v) -> ((if k <= 4 then 0 else if k <= 7 then 1 else 2), v))
          raw
      in
      run_event_queue_trace ops)

(* Keys just below, at and just above [m * 2^b] for every bit [b] up to
   2^33: whatever widths the wheel's levels have, every level boundary
   is a power of two below the 2^30 ns horizon, so these keys straddle
   each of them, run past the horizon into the overflow heap, and — once
   a large key has been popped — arrive past-dated into the overdue
   heap. The trace is checked against the naive model as above. *)
let boundary_key (m, b, d) = Stdlib.max 0 ((m lsl b) + d - 2)

let prop_event_queue_large_keys =
  QCheck.Test.make ~count:300
    ~name:"Event_queue matches the model across wheel levels and overflow"
    QCheck.(
      map
        (List.map (fun (k, key) -> (k, boundary_key key)))
        (list_of_size
           Gen.(int_range 0 120)
           (pair (int_bound 2)
              (triple (int_range 1 3) (int_bound 33) (int_bound 4)))))
    run_event_queue_trace

(* The run-until loop pops with one scan that also tests the deadline.
   Against the loop it replaced — peek at the live minimum, then pop
   while it is due — on a second queue fed the same schedules and
   cancels: the same events must fire, in the same order, at the same
   instants, deadline after deadline. Delays reach past the horizon
   (cancelled overflow roots), and deadlines land before, on and after
   pending events (past-deadline events wait for a later run). *)
let prop_run_until_matches_peek_then_pop =
  QCheck.Test.make ~count:300
    ~name:"Sim.run ~until fires what a peek-then-pop loop fires"
    QCheck.(
      list_of_size
        Gen.(int_range 0 150)
        (triple (int_bound 3) (int_bound 33) (int_bound 1_000)))
    (fun ops ->
      let sim = Sim.create () in
      let q = Eq.create () in
      let fired_sim = ref [] and fired_ref = ref [] in
      let ids = ref [] in
      let n = ref 0 in
      let peek_then_pop limit =
        while Eq.live_min_key_ns q <= limit do
          ignore (Eq.pop q);
          (Eq.popped_action q) ()
        done
      in
      List.iter
        (fun (kind, b, v) ->
          let now = Time.to_int_ns (Sim.now sim) in
          match kind with
          | 0 | 1 ->
              let at = Time.of_int_ns (now + boundary_key (1, b, v mod 5)) in
              let tag = !n in
              incr n;
              let sid =
                Sim.schedule_at sim at (fun () ->
                    fired_sim := (tag, Sim.now sim) :: !fired_sim)
              in
              let qid =
                Eq.add q ~time:at (fun () -> fired_ref := (tag, at) :: !fired_ref)
              in
              ids := (sid, qid) :: !ids
          | 2 -> (
              match !ids with
              | [] -> ()
              | l ->
                  let sid, qid = List.nth l (v mod List.length l) in
                  Sim.cancel sim sid;
                  ignore (Eq.cancel q qid))
          | _ ->
              (* Deadlines drawn like the delays, so some fall exactly
                 on a pending event's instant. *)
              let until = now + boundary_key (1, b, v mod 5) in
              Sim.run ~until:(Time.of_int_ns until) sim;
              peek_then_pop until)
        ops;
      Sim.run sim;
      while Eq.pop q do
        (Eq.popped_action q) ()
      done;
      List.length !fired_sim = List.length !fired_ref
      && List.for_all2
           (fun (a, ta) (b, tb) -> a = b && Time.to_int_ns ta = Time.to_int_ns tb)
           !fired_sim !fired_ref)

(* Same game against the generic [Heap] the simulator used before: the
   reference orders (key, seq) pairs with a comparison closure and
   models cancellation as a skip-set consulted at pop, which is exactly
   the old engine's scheme. *)
let prop_event_queue_matches_heap =
  QCheck.Test.make ~count:200
    ~name:"Event_queue pop order equals the generic reference Heap's"
    QCheck.(
      list_of_size
        Gen.(int_range 0 150)
        (pair (int_bound 2) (int_bound 500)))
    (fun ops ->
      let q = Eq.create () in
      let cmp (k1, s1) (k2, s2) =
        if k1 <> k2 then Int.compare k1 k2 else Int.compare s1 s2
      in
      let h = Heap.create ~capacity:4 ~cmp () in
      let cancelled = Hashtbl.create 16 in
      let ids = ref [] in
      let n = ref 0 in
      let fired = ref (-1) in
      let ok = ref true in
      let rec heap_pop () =
        match Heap.pop h with
        | Some (_, s) when Hashtbl.mem cancelled s -> heap_pop ()
        | other -> other
      in
      let do_pop () =
        match (Eq.pop q, heap_pop ()) with
        | false, None -> ()
        | true, Some (k, s) ->
            fired := -1;
            (Eq.popped_action q) ();
            if !fired <> s then ok := false;
            if Int64.to_int (Time.to_ns (Eq.popped_time q)) <> k then
              ok := false
        | true, None | false, Some _ -> ok := false
      in
      List.iter
        (fun (kind, v) ->
          match kind with
          | 0 ->
              let s = !n in
              incr n;
              let id =
                Eq.add q ~time:(Time.of_ns (Int64.of_int v)) (fun () ->
                    fired := s)
              in
              Heap.push h (v, s);
              ids := (s, id) :: !ids
          | 1 -> (
              match !ids with
              | [] -> ()
              | l ->
                  let s, id = List.nth l (v mod List.length l) in
                  if Eq.cancel q id then Hashtbl.replace cancelled s ())
          | _ -> do_pop ())
        ops;
      let guard = ref (List.length ops + 1) in
      while !ok && Eq.live q > 0 && !guard > 0 do
        decr guard;
        do_pop ()
      done;
      !ok && Eq.live q = 0 && heap_pop () = None)

let test_event_queue_compaction_sweep () =
  let q = Eq.create () in
  let fired = ref [] in
  let ids =
    List.init 200 (fun i ->
        Eq.add q ~time:(Time.of_ns (Int64.of_int i)) (fun () ->
            fired := i :: !fired))
  in
  (* Cancel 150 of 200: every one is wheel-resident, so each cancel
     unlinks and recycles its slot on the spot — no corpses at all. *)
  List.iteri (fun i id -> if i mod 4 <> 0 then ignore (Eq.cancel q id)) ids;
  checki "live survivors" 50 (Eq.live q);
  checki "wheel cancels reclaimed immediately" 50 (Eq.length q);
  while Eq.pop q do
    (Eq.popped_action q) ()
  done;
  let order = List.rev !fired in
  checki "all survivors fired" 50 (List.length order);
  checkb "in schedule order" true (order = List.sort Int.compare order)

let test_event_queue_stale_cancel () =
  let q = Eq.create () in
  let id = Eq.add q ~time:(Time.of_ns 5L) ignore in
  checkb "pop fires it" true (Eq.pop q);
  (* The record is back in the pool; the old id must now be inert. *)
  checkb "stale id rejected" false (Eq.cancel q id);
  let id2 = Eq.add q ~time:(Time.of_ns 7L) ignore in
  checkb "slot reuse keeps new id valid" true (Eq.cancel q id2)

(* Wheel-resident cancels must free their pool slots on the spot:
   scheduling into the freed slots may not grow the pool, and the queue
   must stay fully usable after draining to empty. *)
let test_event_queue_wheel_cancel_reclaims () =
  let q = Eq.create () in
  let ids =
    Array.init 200 (fun i ->
        Eq.add q ~time:(Time.of_ns (Int64.of_int (i * 3))) ignore)
  in
  let pool0 = Eq.pool_size q in
  Array.iteri (fun i id -> if i mod 4 <> 0 then ignore (Eq.cancel q id)) ids;
  checki "live survivors" 50 (Eq.live q);
  checki "no corpses held" 50 (Eq.length q);
  for i = 0 to 149 do
    ignore (Eq.add q ~time:(Time.of_ns (Int64.of_int (1000 + i))) ignore)
  done;
  checki "freed slots reused, pool not grown" pool0 (Eq.pool_size q);
  while Eq.pop q do
    ()
  done;
  checki "drained" 0 (Eq.live q);
  ignore (Eq.add q ~time:(Time.of_ns 5000L) ignore);
  checkb "still pops after draining to empty" true (Eq.pop q)

(* Far-future events (beyond the 2^30 ns wheel horizon) park in the
   overflow backstop heap, where cancels are lazy: corpses linger until
   they exceed half the heap (at >= 64 entries), then one O(n) sweep
   reclaims them all. *)
let test_event_queue_overflow_lazy_sweep () =
  let q = Eq.create () in
  let far i = Time.of_ns (Int64.of_int ((2 lsl 30) + (i * 7))) in
  let fired = ref [] in
  let ids =
    Array.init 100 (fun i ->
        Eq.add q ~time:(far i) (fun () -> fired := i :: !fired))
  in
  checki "all parked in overflow" 100 (Eq.overflow_len q);
  for i = 0 to 39 do
    ignore (Eq.cancel q ids.(i))
  done;
  checki "live" 60 (Eq.live q);
  checki "corpses linger below the sweep threshold" 100 (Eq.overflow_len q);
  checki "length counts unswept dead" 100 (Eq.length q);
  (* The 51st corpse tips dead past half the heap: swept to survivors. *)
  for i = 40 to 50 do
    ignore (Eq.cancel q ids.(i))
  done;
  checki "sweep reclaimed the corpses" 49 (Eq.overflow_len q);
  checki "length after sweep" 49 (Eq.length q);
  while Eq.pop q do
    (Eq.popped_action q) ()
  done;
  checki "overflow drained through the wheel" 0 (Eq.overflow_len q);
  let expected = List.init 49 (fun k -> 51 + k) in
  Alcotest.(check (list int))
    "survivors fired in schedule order" expected (List.rev !fired)

(* Events dated at or before an instant the wheel already passed land in
   the overdue backstop ({!Sim} never produces them, but the queue must
   keep the (key, seq) total order under arbitrary call sequences). *)
let test_event_queue_overdue_backstop () =
  let q = Eq.create () in
  ignore (Eq.add q ~time:(Time.of_ns 1000L) ignore);
  checkb "advance the wheel to t=1000" true (Eq.pop q);
  let fired = ref [] in
  let add ns tag =
    ignore
      (Eq.add q ~time:(Time.of_ns ns) (fun () -> fired := tag :: !fired))
  in
  add 5L 0;
  add 1500L 1;
  add 5L 2;
  add 999L 3;
  checki "past-dated events sit in the overdue heap" 3 (Eq.overdue_len q);
  while Eq.pop q do
    (Eq.popped_action q) ()
  done;
  Alcotest.(check (list int))
    "fired in (key, seq) order across both structures" [ 0; 2; 3; 1 ]
    (List.rev !fired);
  checki "overdue drained" 0 (Eq.overdue_len q)

(* Keys straddling every power of two up to 2^31 — so every wheel-level
   boundary, whatever the level widths, and the 2^30 ns overflow horizon
   — plus same-instant groups scheduled out of key order near the top
   and the middle of the wheel: everything must fire in (key, seq)
   order, which means the cascade path re-files events correctly at
   each level crossing and restores schedule order within an instant. *)
let test_event_queue_cascade_boundaries () =
  let q = Eq.create () in
  let fired = ref [] in
  let expected = ref [] in
  let n = ref 0 in
  let add k =
    let tag = !n in
    incr n;
    expected := (k, tag) :: !expected;
    ignore
      (Eq.add q ~time:(Time.of_int_ns k) (fun () -> fired := tag :: !fired))
  in
  for b = 31 downto 1 do
    List.iter add [ (1 lsl b) + 1; 1 lsl b; (1 lsl b) - 1 ]
  done;
  for _ = 1 to 3 do
    add ((1 lsl 29) + 7);
    add ((1 lsl 16) + 7)
  done;
  checki "beyond-horizon keys overflowed" 5 (Eq.overflow_len q);
  while Eq.pop q do
    (Eq.popped_action q) ()
  done;
  Alcotest.(check (list int))
    "(key, seq) order across every level boundary"
    (List.map snd
       (List.sort
          (fun (k1, t1) (k2, t2) ->
            if k1 <> k2 then Int.compare k1 k2 else Int.compare t1 t2)
          !expected))
    (List.rev !fired)

(* The schedule/pop fast path — pre-boxed times, wheel-resident keys —
   must allocate nothing at all: adds are a level computation plus a
   list append, pops a bitmask scan plus an unlink, and the pool
   recycles every record. 64k events through a warm queue must cost
   zero minor words (the budget below tolerates only the measurement's
   own boxed-float readings). *)
let test_event_queue_zero_alloc_fast_path () =
  let q = Eq.create () in
  let n = 1 lsl 16 in
  let times =
    Array.init n (fun i -> Time.of_ns (Int64.of_int ((i + 1) * 150)))
  in
  (* Warm the pool past the working set. *)
  for i = 0 to 63 do
    ignore (Eq.add q ~time:times.(i) ignore)
  done;
  while Eq.pop q do
    ()
  done;
  let before = Gc.minor_words () in
  let i = ref 64 in
  while !i + 64 <= n do
    for k = !i to !i + 63 do
      ignore (Eq.add q ~time:times.(k) ignore)
    done;
    for _ = 1 to 64 do
      ignore (Eq.pop q)
    done;
    i := !i + 64
  done;
  let delta = Gc.minor_words () -. before in
  checkb
    (Printf.sprintf "fast path allocated %.0f words for %d events" delta n)
    true (delta < 64.)

(* Steady-state schedule->pop churn through the pool must not allocate
   per event beyond the boxed Time.t that [schedule_after] builds. The
   budget (8 words/event) is far below what an event record or closure
   per event would cost, so a pooling regression trips it. *)
let test_event_queue_alloc_regression () =
  let sim = Sim.create () in
  let left = ref 0 in
  let rec act () =
    decr left;
    if !left > 0 then ignore (Sim.schedule_after sim (Time.span_of_us 1.) act)
  in
  let churn n =
    left := n;
    ignore (Sim.schedule_after sim (Time.span_of_us 1.) act);
    Sim.run sim
  in
  churn 1_000 (* warm the pool and heap *);
  let pool0 = Sim.event_pool_size sim in
  let before = Gc.minor_words () in
  let n = 20_000 in
  churn n;
  let per_event = (Gc.minor_words () -. before) /. float_of_int n in
  checkb
    (Printf.sprintf "%.1f words/event within budget" per_event)
    true
    (per_event <= 8.);
  checki "pool is steady under churn" pool0 (Sim.event_pool_size sim)

(* --- event classes and the profiler hooks --- *)

let test_event_queue_cls () =
  let q = Eq.create () in
  ignore (Eq.add_cls q ~time:(Time.of_ns 10L) ~cls:3 ignore);
  ignore (Eq.add q ~time:(Time.of_ns 20L) ignore);
  ignore (Eq.add_cls q ~time:(Time.of_ns 30L) ~cls:5 ignore);
  checkb "pop 1" true (Eq.pop q);
  checki "tagged class comes back" 3 (Eq.popped_cls q);
  checkb "pop 2" true (Eq.pop q);
  checki "plain add defaults to class 0" 0 (Eq.popped_cls q);
  checkb "pop 3" true (Eq.pop q);
  checki "pooled slot re-tagged, not recycled" 5 (Eq.popped_cls q)

let test_event_class_table () =
  let module C = Engine.Event_class in
  checki "count matches all" C.count (Array.length C.all);
  Array.iter
    (fun c ->
      checkb
        ("index/of_index roundtrip: " ^ C.name c)
        true
        (C.of_index (C.index c) = c))
    C.all;
  checki "Other is the default slot" 0 (C.index C.Other);
  checkb "out-of-range index rejected" true
    (match C.of_index C.count with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_sim_profiler_hooks () =
  let sim = Sim.create () in
  let seen_before = ref [] and seen_after = ref [] in
  checkb "profiling off by default" false (Sim.profiling sim);
  Sim.set_profiler sim
    ~before:(fun c -> seen_before := c :: !seen_before)
    ~after:(fun c -> seen_after := c :: !seen_after);
  checkb "profiling on after set" true (Sim.profiling sim);
  ignore (Sim.schedule_at_cls sim (Time.of_ns 1L) ~cls:2 (fun () -> ()));
  ignore (Sim.schedule_after_cls sim 2L ~cls:4 (fun () -> ()));
  ignore (Sim.schedule_at sim (Time.of_ns 3L) (fun () -> ()));
  Sim.run sim;
  Alcotest.(check (list int)) "before saw each class in order" [ 2; 4; 0 ]
    (List.rev !seen_before);
  Alcotest.(check (list int)) "after mirrors before" [ 2; 4; 0 ]
    (List.rev !seen_after);
  Sim.clear_profiler sim;
  checkb "profiling off after clear" false (Sim.profiling sim);
  ignore (Sim.schedule_at sim (Time.of_ns 10L) (fun () -> ()));
  Sim.run sim;
  checki "cleared hooks are silent" 3 (List.length !seen_before)

(* With no profiler attached the dispatch loop's extra cost is one
   predicted-false branch: the same churn that pins the pooled queue's
   allocation budget must stay within it after a set/clear cycle. *)
let test_profiler_disabled_alloc () =
  let sim = Sim.create () in
  Sim.set_profiler sim ~before:(fun _ -> ()) ~after:(fun _ -> ());
  Sim.clear_profiler sim;
  let left = ref 0 in
  let rec act () =
    decr left;
    if !left > 0 then ignore (Sim.schedule_after sim (Time.span_of_us 1.) act)
  in
  let churn n =
    left := n;
    ignore (Sim.schedule_after sim (Time.span_of_us 1.) act);
    Sim.run sim
  in
  churn 1_000;
  let before = Gc.minor_words () in
  let n = 20_000 in
  churn n;
  let per_event = (Gc.minor_words () -. before) /. float_of_int n in
  checkb
    (Printf.sprintf "%.1f words/event with profiler cleared" per_event)
    true
    (per_event <= 8.)

let test_heap_drain_releases_elements () =
  (* After growth and a full drain the heap must not pin the popped
     elements: ~2 MB of strings passed through, so a reachable size in
     the hundreds of words proves every slot was cleared. *)
  let h = Heap.create ~capacity:4 ~cmp:String.compare () in
  for i = 0 to 511 do
    Heap.push h (String.make 4096 (Char.chr (i land 0xff)))
  done;
  while Heap.pop h <> None do
    ()
  done;
  let words = Obj.reachable_words (Obj.repr h) in
  checkb
    (Printf.sprintf "drained heap retains %d words" words)
    true (words < 4_096)

(* --- Int_ring --- *)

module Int_ring = Engine.Int_ring

let test_int_ring_fifo_basics () =
  let r = Int_ring.create ~capacity:2 () in
  checkb "fresh ring empty" true (Int_ring.is_empty r);
  for i = 1 to 5 do
    Int_ring.push r i
  done;
  checki "length" 5 (Int_ring.length r);
  checki "peek" 1 (Int_ring.peek r);
  checki "pop front" 1 (Int_ring.pop r);
  checki "then next" 2 (Int_ring.pop r);
  checki "length after pops" 3 (Int_ring.length r)

let test_int_ring_pop_empty_raises () =
  let r = Int_ring.create () in
  Alcotest.check_raises "peek on empty" Not_found (fun () ->
      ignore (Int_ring.peek r));
  Alcotest.check_raises "pop on empty" Not_found (fun () ->
      ignore (Int_ring.pop r))

let test_int_ring_wraparound_growth () =
  (* Pop a few from the front, refill past the old back: the write
     index wraps before the buffer grows, so growth must linearise the
     wrapped contents. *)
  let r = Int_ring.create ~capacity:4 () in
  for i = 0 to 3 do
    Int_ring.push r i
  done;
  checki "pop 0" 0 (Int_ring.pop r);
  checki "pop 1" 1 (Int_ring.pop r);
  for i = 4 to 9 do
    Int_ring.push r i
  done;
  let seen = ref [] in
  Int_ring.iter (fun x -> seen := x :: !seen) r;
  Alcotest.(check (list int))
    "iter front-to-back across the wrap" [ 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.rev !seen);
  let out = ref [] in
  while not (Int_ring.is_empty r) do
    out := Int_ring.pop r :: !out
  done;
  Alcotest.(check (list int))
    "drain order" [ 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.rev !out)

let test_int_ring_clear () =
  let r = Int_ring.create ~capacity:2 () in
  for i = 0 to 9 do
    Int_ring.push r i
  done;
  Int_ring.clear r;
  checkb "cleared" true (Int_ring.is_empty r);
  Int_ring.push r 42;
  checki "usable after clear" 42 (Int_ring.pop r)

let prop_int_ring_matches_queue =
  QCheck.Test.make ~count:300 ~name:"Int_ring behaves like Stdlib.Queue"
    QCheck.(
      list_of_size Gen.(int_range 0 200) (pair bool (int_bound 1_000)))
    (fun ops ->
      let r = Int_ring.create ~capacity:1 () in
      let q = Queue.create () in
      let take r = if Int_ring.is_empty r then None else Some (Int_ring.pop r) in
      List.for_all
        (fun (is_push, v) ->
          if is_push then begin
            Int_ring.push r v;
            Queue.add v q;
            true
          end
          else take r = Queue.take_opt q)
        ops
      && Int_ring.length r = Queue.length q
      && (Int_ring.is_empty r || Some (Int_ring.peek r) = Queue.peek_opt q))

let qtest = QCheck_alcotest.to_alcotest

let suites =
  [
    ( "engine.time",
      [
        Alcotest.test_case "conversions" `Quick test_time_conversions;
        Alcotest.test_case "rounding" `Quick test_time_rounding;
        Alcotest.test_case "ordering" `Quick test_time_ordering;
        Alcotest.test_case "arithmetic" `Quick test_time_arith;
        Alcotest.test_case "invalid inputs" `Quick test_time_invalid;
        Alcotest.test_case "pretty printing" `Quick test_time_pp;
      ] );
    ( "engine.heap",
      [
        Alcotest.test_case "push/pop basics" `Quick test_heap_basic;
        Alcotest.test_case "pop empty" `Quick test_heap_pop_empty;
        Alcotest.test_case "sorted drain" `Quick test_heap_sorted_drain;
        Alcotest.test_case "clear" `Quick test_heap_clear;
        Alcotest.test_case "iter_unordered" `Quick test_heap_iter;
        qtest prop_heap_sorts;
        qtest prop_heap_interleaved;
      ] );
    ( "engine.rng",
      [
        Alcotest.test_case "determinism" `Quick test_rng_determinism;
        Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
        Alcotest.test_case "float range" `Quick test_rng_float_range;
        Alcotest.test_case "int range" `Quick test_rng_int_range;
        Alcotest.test_case "uniform range" `Quick test_rng_uniform;
        Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
        Alcotest.test_case "split independence" `Quick test_rng_split_independent;
        Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutation;
        Alcotest.test_case "jitter bounds" `Quick test_rng_jitter_bounds;
      ] );
    ( "engine.sim",
      [
        Alcotest.test_case "time order" `Quick test_sim_runs_in_order;
        Alcotest.test_case "FIFO at same instant" `Quick test_sim_fifo_same_instant;
        Alcotest.test_case "clock advances" `Quick test_sim_clock_advances;
        Alcotest.test_case "schedule_after" `Quick test_sim_schedule_after;
        Alcotest.test_case "cancel" `Quick test_sim_cancel;
        Alcotest.test_case "lazy compaction" `Quick test_sim_lazy_compaction;
        Alcotest.test_case "high water pinned on a no-cancel run" `Quick
          test_sim_hwm_no_cancel_regression;
        Alcotest.test_case "high water counts live only" `Quick
          test_sim_hwm_counts_live_only;
        Alcotest.test_case "scheduling in the past" `Quick test_sim_past_raises;
        Alcotest.test_case "run until" `Quick test_sim_run_until;
        Alcotest.test_case "until inclusive" `Quick test_sim_until_inclusive;
        Alcotest.test_case "until advances idle clock" `Quick
          test_sim_until_advances_clock_when_idle;
        Alcotest.test_case "until does not overshoot past a dead root" `Quick
          test_sim_run_until_no_overshoot;
        Alcotest.test_case "step" `Quick test_sim_step;
        Alcotest.test_case "events processed" `Quick test_sim_events_processed;
        Alcotest.test_case "profiler hooks" `Quick test_sim_profiler_hooks;
        Alcotest.test_case "profiler disabled allocation" `Quick
          test_profiler_disabled_alloc;
        qtest prop_sim_fires_in_time_order;
      ] );
    ( "engine.event_queue",
      [
        Alcotest.test_case "cancel-heavy reclaim" `Quick
          test_event_queue_compaction_sweep;
        Alcotest.test_case "stale cancel rejected" `Quick
          test_event_queue_stale_cancel;
        Alcotest.test_case "wheel cancel reclaims slots" `Quick
          test_event_queue_wheel_cancel_reclaims;
        Alcotest.test_case "overflow lazy sweep" `Quick
          test_event_queue_overflow_lazy_sweep;
        Alcotest.test_case "overdue backstop ordering" `Quick
          test_event_queue_overdue_backstop;
        Alcotest.test_case "cascade boundaries" `Quick
          test_event_queue_cascade_boundaries;
        Alcotest.test_case "zero-alloc fast path" `Quick
          test_event_queue_zero_alloc_fast_path;
        Alcotest.test_case "allocation regression" `Quick
          test_event_queue_alloc_regression;
        Alcotest.test_case "event class tags" `Quick test_event_queue_cls;
        Alcotest.test_case "event class table" `Quick test_event_class_table;
        Alcotest.test_case "heap drain releases elements" `Quick
          test_heap_drain_releases_elements;
        qtest prop_event_queue_matches_model;
        qtest prop_event_queue_large_keys;
        qtest prop_run_until_matches_peek_then_pop;
        qtest prop_event_queue_matches_heap;
        qtest prop_event_queue_cancel_heavy;
      ] );
    ( "engine.int_ring",
      [
        Alcotest.test_case "FIFO basics" `Quick test_int_ring_fifo_basics;
        Alcotest.test_case "pop on empty" `Quick test_int_ring_pop_empty_raises;
        Alcotest.test_case "wraparound and growth" `Quick
          test_int_ring_wraparound_growth;
        Alcotest.test_case "clear" `Quick test_int_ring_clear;
        qtest prop_int_ring_matches_queue;
      ] );
    ( "engine.timer",
      [
        Alcotest.test_case "fires at deadline" `Quick test_timer_fires;
        Alcotest.test_case "re-arm replaces" `Quick test_timer_rearm_replaces;
        Alcotest.test_case "cancel" `Quick test_timer_cancel;
        Alcotest.test_case "deadline introspection" `Quick test_timer_deadline;
        Alcotest.test_case "periodic reuse" `Quick test_timer_periodic_reuse;
      ] );
  ]
