(* Dead-module guard: every lib/ module must have a user outside test/.

   A module only tests keep alive is code the simulator no longer runs;
   it goes (or moves into test/, like the reference [Heap]). Users are
   found on the token stream, so comments, doc references and string
   literals never count as a use. A file uses module [M] of library [Lib]
   when it names the path [Lib.M], or names [M] from inside [Lib]'s own
   directory or after [open Lib]. *)

let capitalize = String.capitalize_ascii

(* Every dotted uppercase path ([Engine.Time], [Time]) a source names,
   plus the libraries it opens. *)
let scan source =
  let lexbuf = Lexing.from_string source in
  Lexer.init ();
  let paths = ref [] and opens = ref [] in
  let flush p = if p <> [] then paths := List.rev p :: !paths in
  (* [after] says what the previous token allows: extending the current
     path (after a dot) or naming an opened library. *)
  let rec loop after current =
    match Lexer.token lexbuf with
    | Parser.EOF -> flush current
    | Parser.UIDENT u when after = `Dot -> loop `Uident (u :: current)
    | Parser.UIDENT u ->
        if after = `Open then opens := u :: !opens;
        flush current;
        loop `Uident [ u ]
    | Parser.DOT when after = `Uident -> loop `Dot current
    | Parser.OPEN ->
        flush current;
        loop `Open []
    | Parser.BANG when after = `Open -> loop `Open []
    | _ ->
        flush current;
        loop `Other []
  in
  loop `Other [];
  (!paths, !opens)

(* [(lib/<dir>/<m>.ml, Library, Module)] for every lib/ implementation. *)
let lib_modules files =
  List.filter_map
    (fun (file, _) ->
      match String.split_on_char '/' file with
      | [ "lib"; dir; base ] when Filename.check_suffix base ".ml" ->
          let m = Filename.chop_suffix base ".ml" in
          Some (file, capitalize dir, capitalize m)
      | _ -> None)
    files

let rec mentions lib m = function
  | a :: (b :: _ as rest) -> (a = lib && b = m) || mentions lib m rest
  | [ _ ] | [] -> false

(* The lib/ modules no file outside test/ (and outside the module's own
   .ml/.mli) uses. [files] is (path relative to the repo root, source). *)
let dead_modules files =
  let scanned =
    List.filter_map
      (fun (file, source) ->
        if String.starts_with ~prefix:"test/" file then None
        else
          let paths, opens = scan source in
          let home =
            match String.split_on_char '/' file with
            | [ "lib"; dir; _ ] -> Some (capitalize dir)
            | _ -> None
          in
          Some (Filename.remove_extension file, home, paths, opens))
      files
  in
  lib_modules files
  |> List.filter (fun (file, lib, m) ->
         let self = Filename.remove_extension file in
         not
           (List.exists
              (fun (stem, home, paths, opens) ->
                stem <> self
                && List.exists
                     (fun p ->
                       mentions lib m p
                       || (match p with
                          | first :: _ ->
                              first = m
                              && (home = Some lib || List.mem lib opens)
                          | [] -> false))
                     paths)
              scanned))
  |> List.map (fun (file, _, _) -> file)

let test_fixture_convicted () =
  let files =
    [
      ("lib/alpha/used.ml", "let f () = Internal.x");
      ("lib/alpha/used.mli", "val f : unit -> int");
      ("lib/alpha/internal.ml", "let x = 1");
      ("lib/alpha/dead.ml", "let y = Used.f ()");
      ("lib/beta/opened.ml", "let z = 2");
      ("lib/beta/lonely.ml", "let w = Lonely.w");
      ( "bin/main.ml",
        "(* Alpha.Dead and {!Beta.Lonely} are only named in comments *)\n\
         let s = \"Alpha.Dead.y\"\n\
         let () = ignore (Alpha.Used.f ())\n\
         open! Beta\n\
         let _ = Opened.z" );
      ("test/test_alpha.ml", "let _ = Alpha.Dead.y + Beta.Lonely.w");
    ]
  in
  Alcotest.(check (list string))
    "test-only and self-only modules convicted"
    [ "lib/alpha/dead.ml"; "lib/beta/lonely.ml" ]
    (dead_modules files)

(* The sources of every directory that may use a lib/ module, read from
   the build directory (dune runs the test in _build/default/test) or
   from the repository root. *)
let tree_files () =
  let root =
    List.find
      (fun r -> Sys.file_exists (Filename.concat r "lib/engine/sim.ml"))
      [ ".."; "." ]
  in
  let rec walk rel acc =
    let path = Filename.concat root rel in
    if Sys.is_directory path then
      Array.fold_left
        (fun acc entry -> walk (Filename.concat rel entry) acc)
        acc
        (let entries = Sys.readdir path in
         Array.sort String.compare entries;
         entries)
    else if Filename.check_suffix rel ".ml" || Filename.check_suffix rel ".mli"
    then (rel, In_channel.with_open_bin path In_channel.input_all) :: acc
    else acc
  in
  List.fold_left
    (fun acc dir -> walk dir acc)
    []
    [ "lib"; "bin"; "bench"; "examples"; "perfbench" ]

let test_tree_has_no_dead_module () =
  let files = tree_files () in
  Alcotest.(check bool) "scanned the lib/ tree" true
    (List.length (lib_modules files) > 50);
  Alcotest.(check (list string)) "lib/ modules with no user outside test/" []
    (dead_modules files)

let suites =
  [
    ( "lint.dead_modules",
      [
        Alcotest.test_case "fixture convicted" `Quick test_fixture_convicted;
        Alcotest.test_case "tree has no dead module" `Quick
          test_tree_has_no_dead_module;
      ] );
  ]
