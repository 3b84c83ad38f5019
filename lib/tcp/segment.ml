type Net.Packet.payload +=
  | Data of { seq : int }
  | Ack of { ack : int; ece : bool; sack : (int * int) list }

let data ~seq = Data { seq }
let ack ~ack ~ece ~sack = Ack { ack; ece; sack }

let describe = function
  | Data { seq } -> Printf.sprintf "data seq=%d" seq
  | Ack { ack; ece; sack = [] } -> Printf.sprintf "ack=%d ece=%b" ack ece
  | Ack { ack; ece; sack } ->
      Printf.sprintf "ack=%d ece=%b sack=[%s]" ack ece
        (String.concat ";"
           (List.map (fun (a, b) -> Printf.sprintf "%d-%d" a b) sack))
  | _ -> "other"
