(** Regression gates for the two harnesses ([bench/main.exe] and
    [modpm]): one baseline format, one way to check a measured value
    against it, one way to record an unconditional invariant, one
    result envelope and one exit policy.

    A baseline file is a flat list of bounds:
    {[
      { "schema": "modpm-baseline/2",
        "gates": [ { "section": "crashtest", "metric": "points_per_sec",
                     "direction": "min", "bound": 150, "why": "..." }, ... ] }
    ]}
    A [max] bound passes when the value is [<=] the bound, a [min] bound
    when it is [>=]; equality passes and NaN fails either way.  The
    bound is applied exactly as written: no factor lives in code. *)

module Json = Report.Json

type direction = Max | Min

type entry = {
  section : string;
  metric : string;
  direction : direction;
  bound : float;
  why : string;
}

let direction_name = function Max -> "max" | Min -> "min"

let find entries ~section ~metric =
  List.find_opt (fun e -> e.section = section && e.metric = metric) entries

(* Comparisons with NaN are false, so a NaN value fails both ways. *)
let passes direction ~bound v =
  match direction with Max -> v <= bound | Min -> v >= bound

let entry_of_json i j =
  let str k = Option.bind (Json.member k j) Json.to_string_opt in
  match
    ( str "section",
      str "metric",
      str "direction",
      Option.bind (Json.member "bound" j) Json.to_number_opt,
      str "why" )
  with
  | Some section, Some metric, Some d, Some bound, Some why -> (
      match d with
      | "max" -> Ok { section; metric; direction = Max; bound; why }
      | "min" -> Ok { section; metric; direction = Min; bound; why }
      | d -> Error (Printf.sprintf "gates[%d] has unknown direction %S" i d))
  | _ ->
      Error
        (Printf.sprintf
           "gates[%d] needs string section, metric, direction and why and a \
            numeric bound"
           i)

(** Parse a baseline document: the schema tag, then every entry, with
    (section, metric) unique. *)
let of_json doc =
  let rec go i acc = function
    | [] -> Ok (List.rev acc)
    | j :: rest -> (
        match entry_of_json i j with
        | Ok e when find acc ~section:e.section ~metric:e.metric <> None ->
            Error (Printf.sprintf "duplicate entry %s/%s" e.section e.metric)
        | Ok e -> go (i + 1) (e :: acc) rest
        | Error _ as err -> err)
  in
  match
    ( Option.bind (Json.member "schema" doc) Json.to_string_opt,
      Option.bind (Json.member "gates" doc) Json.to_list_opt )
  with
  | Some "modpm-baseline/2", Some items -> go 0 [] items
  | Some "modpm-baseline/2", None -> Error "no gates list"
  | _ -> Error "schema is not modpm-baseline/2"

let load path =
  match Json.of_file path with
  | exception Sys_error e -> Error (Printf.sprintf "%s unreadable: %s" path e)
  | exception Json.Parse_error e ->
      Error (Printf.sprintf "%s: bad JSON: %s" path e)
  | doc -> Result.map_error (Printf.sprintf "%s: %s" path) (of_json doc)

(* One recorded check; [limit] is [None] for an invariant. *)
type check = {
  c_section : string;
  c_metric : string;
  c_value : float option;
  c_limit : (direction * float) option;
  c_ok : bool;
  c_detail : string;
}

type t = {
  baseline : (string * entry list) option;  (** path, entries *)
  mutable checks : check list;  (** newest first *)
  mutable errors : string list;  (** baseline problems, newest first *)
}

(** 2 on a baseline problem, 1 on a failed check, else 0. *)
let status t =
  if t.errors <> [] then 2
  else if List.exists (fun c -> not c.c_ok) t.checks then 1
  else 0

let ok t = status t = 0

(** One line per baseline problem and per failed check, in order. *)
let failures t =
  List.rev_map (fun e -> "BASELINE ERROR: " ^ e) t.errors
  @ List.filter_map
      (fun c ->
        if c.c_ok then None
        else
          Some
            (Printf.sprintf "GATE FAIL %s/%s: %s" c.c_section c.c_metric
               c.c_detail))
      (List.rev t.checks)

(** Print every failure to stderr and exit with {!status} unless it is
    0, in which case print one summary line (if anything was checked). *)
let finish t =
  match status t with
  | 0 ->
      if t.checks <> [] then
        Printf.printf "gates: %d checked, all ok\n%!" (List.length t.checks)
  | code ->
      flush stdout;
      List.iter prerr_endline (failures t);
      exit code

(** [create ?baseline ()] starts a gate run.  Without a baseline only
    {!require} checks are recorded.  A baseline that cannot be loaded
    ends the process at once with status 2. *)
let create ?baseline () =
  let t = { baseline = None; checks = []; errors = [] } in
  match Option.map (fun p -> (p, load p)) baseline with
  | None -> t
  | Some (path, Ok entries) -> { t with baseline = Some (path, entries) }
  | Some (_, Error e) ->
      t.errors <- [ e ];
      finish t;
      t

let record t c = t.checks <- c :: t.checks
let fmt = Printf.sprintf "%.6g"

(** [bound t ~section ~metric v] checks [v] against the baseline's
    (section, metric) entry.  No-op without a baseline; a baseline with
    no such entry is a baseline problem (status 2). *)
let bound t ~section ~metric v =
  match t.baseline with
  | None -> ()
  | Some (path, entries) -> (
      match find entries ~section ~metric with
      | None ->
          t.errors <-
            Printf.sprintf "%s has no entry for section %S metric %S" path
              section metric
            :: t.errors
      | Some e ->
          let ok = passes e.direction ~bound:e.bound v in
          let dir = direction_name e.direction in
          Printf.printf "gate %s/%s = %s (%s %s): %s\n" section metric (fmt v)
            dir (fmt e.bound)
            (if ok then "ok" else "FAIL");
          record t
            {
              c_section = section;
              c_metric = metric;
              c_value = Some v;
              c_limit = Some (e.direction, e.bound);
              c_ok = ok;
              c_detail =
                Printf.sprintf "%s violates the %s bound %s (%s)" (fmt v) dir
                  (fmt e.bound) e.why;
            })

(** [require t ~section ~metric ok detail] records an invariant that
    holds with or without a baseline; [detail] is printed if it fails. *)
let require t ~section ~metric ok detail =
  record t
    {
      c_section = section;
      c_metric = metric;
      c_value = None;
      c_limit = None;
      c_ok = ok;
      c_detail = detail;
    }

(** The result envelope every [--json] writer emits. *)
let envelope t ~command ~config data =
  let check c =
    let opt f = Option.fold ~none:Json.Null ~some:f in
    Json.Obj
      [
        ("section", Json.String c.c_section);
        ("metric", Json.String c.c_metric);
        ("value", opt (fun v -> Json.Float v) c.c_value);
        ("bound", opt (fun (_, b) -> Json.Float b) c.c_limit);
        ( "direction",
          Json.String
            (Option.fold ~none:"require"
               ~some:(fun (d, _) -> direction_name d)
               c.c_limit) );
        ("ok", Json.Bool c.c_ok);
      ]
  in
  Json.Obj
    [
      ("schema", Json.String "modpm-result/1");
      ("command", Json.String command);
      ("config", Json.Obj config);
      ("data", data);
      ("gates", Json.List (List.rev_map check t.checks));
      ("ok", Json.Bool (ok t));
    ]

(** Write {!envelope} to [path] when a [--json] path was given. *)
let write t path ~command ~config data =
  Option.iter
    (fun path ->
      Json.to_file path (envelope t ~command ~config data);
      Printf.printf "wrote %s\n" path)
    path
