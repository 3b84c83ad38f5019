(** Transport segments: the TCP header of a {!Net.Packet.t}.

    Sequence and acknowledgement numbers count whole segments (MSS units),
    the standard simplification in congestion-control simulators: window
    arithmetic is identical, byte bookkeeping is not needed.

    The fixed header — kind, data [seq], ACK number and ECE — is packed
    into the packet store's int header word ({!Net.Packet.hdr}), so a data
    segment or a plain ACK allocates nothing. SACK blocks, the one
    variable-length field, are the only use of the packet payload: an ACK
    that carries blocks allocates its list, every other ACK does not. *)

type Net.Packet.payload +=
  | Sack of (int * int) list
        (** Up to three [(first, last_exclusive)] ranges of out-of-order
            segments held above the cumulative ACK; never empty. *)

val make_data :
  Net.Packet.store ->
  src:int ->
  dst:int ->
  flow:int ->
  size:int ->
  ecn:Net.Packet.ecn ->
  seq:int ->
  Net.Packet.t
(** Data segment number [seq] (0-based), [size] bytes on the wire. *)

val make_ack :
  Net.Packet.store ->
  src:int ->
  dst:int ->
  flow:int ->
  size:int ->
  ack:int ->
  ece:bool ->
  sack:(int * int) list ->
  Net.Packet.t
(** Cumulative ACK: all segments below [ack] received. [ece] echoes
    congestion per the receiver's echo policy; [sack] lists the held
    out-of-order ranges ([[]] when SACK is off or nothing is held). ACKs
    are not ECN-capable. [sack] is a required label: an optional one
    would box a [Some] on every ACK. *)

val is_ack : Net.Packet.store -> Net.Packet.t -> bool
(** [false] for a data segment. *)

val seq : Net.Packet.store -> Net.Packet.t -> int
(** A data segment's number. *)

val ack : Net.Packet.store -> Net.Packet.t -> int
(** An ACK's cumulative acknowledgement number. *)

val ece : Net.Packet.store -> Net.Packet.t -> bool
(** An ACK's ECN-Echo bit. *)

val sack : Net.Packet.store -> Net.Packet.t -> (int * int) list
(** An ACK's SACK blocks, ascending; [[]] when it carries none. *)

val describe : Net.Packet.store -> Net.Packet.t -> string
(** For logs and debugging. *)
