module Json = Asvm_obs.Json

type metric = { name : string; value : float; unit_ : string }

type t = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
}

let to_json t =
  Json.Obj
    [
      ("correct", Json.Bool t.correct);
      ("attempted", Json.Int t.attempted);
      ("failed", Json.Int t.failed);
      ( "metrics",
        Json.Obj
          (List.map
             (fun m ->
               ( m.name,
                 Json.Obj
                   [ ("value", Json.Float m.value); ("unit", Json.String m.unit_) ]
               ))
             t.metrics) );
    ]

let of_json j =
  let ( let* ) = Result.bind in
  let field key conv =
    match Option.bind (Json.member key j) conv with
    | Some v -> Ok v
    | None -> Error ("missing or mistyped field " ^ key)
  in
  let* correct = field "correct" Json.to_bool in
  let* attempted = field "attempted" Json.to_int in
  let* failed = field "failed" Json.to_int in
  let* metrics =
    match Json.member "metrics" j with
    | Some (Json.Obj fields) ->
      List.fold_right
        (fun (name, v) acc ->
          let* acc = acc in
          match
            ( Option.bind (Json.member "value" v) Json.to_float,
              Option.bind (Json.member "unit" v) Json.to_str )
          with
          | Some value, Some unit_ -> Ok ({ name; value; unit_ } :: acc)
          | _ -> Error ("bad metric " ^ name))
        fields (Ok [])
    | _ -> Error "missing metrics object"
  in
  Ok { correct; attempted; failed; metrics }

let to_string t = Json.to_string (to_json t)
