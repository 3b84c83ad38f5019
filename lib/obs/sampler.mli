(** Periodic sampling loop on simulation time.

    The one fixed-period polling pattern the repo needs: call [f now]
    at the current instant and then every [period] until the {e next}
    tick would land after [stop_at]. The [stop_at] bound is mandatory —
    an unbounded self-rescheduling loop would keep the simulation alive
    forever. Ticks are scheduled with the {!Engine.Event_class.Sample}
    profiler tag. *)

type t

val start :
  Engine.Sim.t ->
  period:Engine.Time.span ->
  stop_at:Engine.Time.t ->
  (Engine.Time.t -> unit) ->
  t
(** Start sampling: the first call to [f] happens synchronously at the
    current simulation time.
    @raise Invalid_argument if [period <= 0]. *)

val stop : t -> unit
(** Detach: pending ticks become no-ops. Idempotent. *)

val active : t -> bool
