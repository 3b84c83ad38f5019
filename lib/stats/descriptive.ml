(* The running moments live in a flat float array: as mutable float
   fields of a record that also holds the int count, every [add] would
   box each updated field, and [add] runs once per sample of a
   per-event-scale stream (e.g. every flow's alpha each sampler tick). *)
type t = { mutable n : int; f : float array }

(* Slots of [f]. *)
let mean_ = 0
let m2_ = 1
let min_ = 2
let max_ = 3
let sum_ = 4

let create () = { n = 0; f = [| 0.; 0.; infinity; neg_infinity; 0. |] }

let add t x =
  let f = t.f in
  t.n <- t.n + 1;
  f.(sum_) <- f.(sum_) +. x;
  let delta = x -. f.(mean_) in
  f.(mean_) <- f.(mean_) +. (delta /. float_of_int t.n);
  f.(m2_) <- f.(m2_) +. (delta *. (x -. f.(mean_)));
  if x < f.(min_) then f.(min_) <- x;
  if x > f.(max_) then f.(max_) <- x

let count t = t.n
let mean t = if t.n = 0 then 0. else t.f.(mean_)
let variance t = if t.n < 2 then 0. else t.f.(m2_) /. float_of_int t.n

let sample_variance t =
  if t.n < 2 then 0. else t.f.(m2_) /. float_of_int (t.n - 1)

let stddev t = sqrt (variance t)

let min t =
  if t.n = 0 then invalid_arg "Descriptive.min: empty" else t.f.(min_)

let max t =
  if t.n = 0 then invalid_arg "Descriptive.max: empty" else t.f.(max_)

let sum t = t.f.(sum_)

let merge a b =
  if a.n = 0 then { n = b.n; f = Array.copy b.f }
  else if b.n = 0 then { n = a.n; f = Array.copy a.f }
  else begin
    let n = a.n + b.n in
    let fa = float_of_int a.n and fb = float_of_int b.n in
    let fn = float_of_int n in
    let delta = b.f.(mean_) -. a.f.(mean_) in
    {
      n;
      f =
        [|
          a.f.(mean_) +. (delta *. fb /. fn);
          a.f.(m2_) +. b.f.(m2_) +. (delta *. delta *. fa *. fb /. fn);
          Stdlib.min a.f.(min_) b.f.(min_);
          Stdlib.max a.f.(max_) b.f.(max_);
          a.f.(sum_) +. b.f.(sum_);
        |];
    }
  end

let of_array arr =
  let t = create () in
  Array.iter (add t) arr;
  t

let of_list l =
  let t = create () in
  List.iter (add t) l;
  t
