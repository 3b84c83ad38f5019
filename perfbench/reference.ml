(* Recorded reference outcomes: for each workload and seed, the digest
   ({!Work.digest}) of every simulated result the workload produced at
   the commit that recorded it. A speed-only change must reproduce them
   bit for bit. *)

type t = (string * (int * string) list) list

let path = Filename.concat "perfbench" "reference.json"

let of_json json =
  match json with
  | Obs.Json.Obj workloads ->
      let seeds = function
        | Obs.Json.Obj entries ->
            List.filter_map
              (fun (seed, d) ->
                match (int_of_string_opt seed, d) with
                | Some s, Obs.Json.String d -> Some (s, d)
                | _ -> None)
              entries
        | _ -> []
      in
      Ok (List.map (fun (w, entries) -> (w, seeds entries)) workloads)
  | _ -> Error "reference: expected an object of workloads"

let load file =
  match In_channel.with_open_bin file In_channel.input_all with
  | exception Sys_error e -> Error e
  | text -> Result.bind (Obs.Json.parse text) of_json

type verdict = Match | Mismatch of string | Unrecorded

let check (t : t) ~workload ~seed digest =
  match Option.bind (List.assoc_opt workload t) (List.assoc_opt seed) with
  | None -> Unrecorded
  | Some d when String.equal d digest -> Match
  | Some d -> Mismatch d

(* One workload per line, seeds in ascending order. *)
let to_string (t : t) =
  let workload (w, seeds) =
    let seeds = List.sort (fun (a, _) (b, _) -> compare a b) seeds in
    Printf.sprintf "  %S: {%s}" w
      (String.concat ", " (List.map (fun (s, d) -> Printf.sprintf "\"%d\": %S" s d) seeds))
  in
  "{\n" ^ String.concat ",\n" (List.map workload t) ^ "\n}\n"
