(** Transport segments carried in {!Net.Packet.t} payloads.

    Sequence and acknowledgement numbers count whole segments (MSS units),
    the standard simplification in congestion-control simulators: window
    arithmetic is identical, byte bookkeeping is not needed. *)

type Net.Packet.payload +=
  | Data of { seq : int }
      (** Data segment number [seq] (0-based). Its wire size is the flow's
          configured per-segment size. *)
  | Ack of { ack : int; ece : bool; sack : (int * int) list }
      (** Cumulative ACK: all segments below [ack] received. [ece] echoes
          congestion per the receiver's echo policy. [sack] lists up to
          three [(first, last_exclusive)] ranges of out-of-order segments
          held above [ack] (empty when SACK is off or nothing is held). *)

val data : seq:int -> Net.Packet.payload

val ack : ack:int -> ece:bool -> sack:(int * int) list -> Net.Packet.payload
(** [sack] is a required label: an optional one would box a [Some] on
    every ACK. *)

val describe : Net.Packet.payload -> string
(** For logs and debugging; other payload kinds render as ["other"]. *)
