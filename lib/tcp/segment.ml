type Net.Packet.payload += Sack of (int * int) list

(* Header word: bit 0 is set on an ACK, bit 1 is ECE, and the data seq
   or the ACK number sits above them. *)
let ack_bit = 1
let ece_bit = 2

let make_data st ~src ~dst ~flow ~size ~ecn ~seq =
  Net.Packet.make st ~src ~dst ~flow ~size ~ecn ~hdr:(seq lsl 2)
    Net.Packet.No_payload

let make_ack st ~src ~dst ~flow ~size ~ack ~ece ~sack =
  let hdr = (ack lsl 2) lor ack_bit lor if ece then ece_bit else 0 in
  Net.Packet.make st ~src ~dst ~flow ~size ~ecn:Net.Packet.Not_ect ~hdr
    (match sack with [] -> Net.Packet.No_payload | blocks -> Sack blocks)

let is_ack st p = Net.Packet.hdr st p land ack_bit <> 0
let seq st p = Net.Packet.hdr st p lsr 2
let ack st p = Net.Packet.hdr st p lsr 2
let ece st p = Net.Packet.hdr st p land ece_bit <> 0

let sack st p =
  match Net.Packet.payload st p with Sack blocks -> blocks | _ -> []

let describe st p =
  if not (is_ack st p) then Printf.sprintf "data seq=%d" (seq st p)
  else
    match sack st p with
    | [] -> Printf.sprintf "ack=%d ece=%b" (ack st p) (ece st p)
    | blocks ->
        Printf.sprintf "ack=%d ece=%b sack=[%s]" (ack st p) (ece st p)
          (String.concat ";"
             (List.map (fun (a, b) -> Printf.sprintf "%d-%d" a b) blocks))
