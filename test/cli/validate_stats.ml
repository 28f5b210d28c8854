(* Validates a `whyprov --stats-out FILE` dump: the file must parse as
   JSON, carry the documented schema version, give every timer its
   duration quantiles, and contain at least one counter from every
   pipeline layer (see docs/OBSERVABILITY.md). Layers to require may be
   given as extra arguments after the file (default: the classic
   five-stage pipeline); the batch smoke test adds "batch". *)

module Json = Util.Json

let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 1) fmt

let () =
  let path = Sys.argv.(1) in
  let layers =
    if Array.length Sys.argv > 2 then
      Array.to_list (Array.sub Sys.argv 2 (Array.length Sys.argv - 2))
    else [ "eval"; "closure"; "encode"; "sat"; "enum" ]
  in
  let ic = open_in_bin path in
  let src = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let json =
    try Json.parse src
    with Json.Parse_error msg -> fail "%s: invalid JSON: %s" path msg
  in
  (match Json.member "schema" json with
  | Some (Json.Str v) when v = Util.Metrics.schema_version -> ()
  | _ -> fail "%s: missing or wrong schema version" path);
  (match Json.member "timers" json with
  | Some (Json.Obj timers) ->
    List.iter
      (fun (name, timer) ->
        List.iter
          (fun q ->
            match Json.member q timer with
            | Some (Json.Num _) -> ()
            | _ -> fail "%s: timer %s has no numeric %s" path name q)
          [ "p50_s"; "p90_s"; "p99_s" ])
      timers
  | _ -> fail "%s: no timers section" path);
  let counters =
    match Json.member "counters" json with
    | Some (Json.Obj fields) -> List.map fst fields
    | _ -> fail "%s: no counters section" path
  in
  List.iter
    (fun layer ->
      let prefix = layer ^ "." in
      if
        not
          (List.exists
             (fun name ->
               String.length name > String.length prefix
               && String.sub name 0 (String.length prefix) = prefix)
             counters)
      then fail "%s: no %s.* counter recorded" path layer)
    layers
