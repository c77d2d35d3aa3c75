(** Durable-linearizability oracle.

    MOD provides buffered durable linearizability under epoch persistency
    (paper Section 5.1): after a crash, the recovered abstract state must
    equal the model state at a FASE boundary no older than the
    penultimate committed operation -- the final root write's flush may
    still have been in flight, and an operation that was mid-flight at
    the crash may or may not have committed.  Anything else (a torn
    state, a lost older operation, a phantom value) is a violation. *)

type verdict = Consistent | Violation of string

(* [acceptable] is the window of states a crash may legally expose:
   the most recent committed state, the newest state that differs from
   it (the root write that left it was the only one whose flush could
   still be in flight -- every older root write was drained by a later
   FASE's fence), and the state of the operation that was mid-flight
   when power failed.  A history may repeat a state -- a read leaves it
   unchanged -- so the previous state is the newest distinct one, not
   the second entry. *)
let acceptable ~history ~pending =
  let committed =
    match history with
    | [] -> []
    | latest :: older -> (
        match List.find_opt (fun s -> s <> latest) older with
        | Some previous -> [ latest; previous ]
        | None -> [ latest ])
  in
  match pending with None -> committed | Some s -> s :: committed

let check ~history ~pending ~recovered =
  let ok = acceptable ~history ~pending in
  match recovered with
  | Error exn ->
      Violation
        (Printf.sprintf "reading the recovered structure raised %s"
           (Printexc.to_string exn))
  | Ok state ->
      if List.mem state ok then Consistent
      else
        Violation
          (Printf.sprintf
             "recovered state %s is not at a FASE boundary (acceptable: %s)"
             state
             (String.concat " | " ok))

let is_consistent = function Consistent -> true | Violation _ -> false

(* -- concurrent histories -------------------------------------------------- *)

(* With several writers racing commits at one root, the installed states
   still form a total order (the root-record CAS serializes them), but
   durability lags per thread: the criterion is a linearization-
   consistent cut no older than each thread's penultimate committed
   operation.  The tracker records, at each commit's linearization
   point, the MODEL state the winning operation must have produced --
   not the state the structure happens to hold -- so lost updates
   surface as a recovered state matching no cut. *)

type commit = { writer : int; state : string }

type tracker = {
  t_init : string;
  mutable t_commits : commit list;  (** newest first *)
  t_pendings : string option array;  (** per-writer in-flight state *)
}

let tracker ~writers ~init =
  { t_init = init; t_commits = []; t_pendings = Array.make writers None }

(* The tracker as it stands: the commit list is immutable, so only the
   pending states need copying. *)
let copy_tracker tr = { tr with t_pendings = Array.copy tr.t_pendings }

(* The writer is about to (try to) swing the commit in: [state] is the
   model state its operation yields applied to the current model.  Safe
   to call once per CAS attempt -- a retry recomputes and overwrites. *)
let track_pending tr ~writer state = tr.t_pendings.(writer) <- Some state

(* The writer's CAS won: [state] is now the latest durably-decided
   model state. *)
let track_commit tr ~writer state =
  tr.t_commits <- { writer; state } :: tr.t_commits;
  tr.t_pendings.(writer) <- None

(* The cut at depth [d] (0 = after every commit, [length commits] =
   initial state) is linearization-consistent iff every writer has at
   most one committed operation newer than the cut -- only the last
   root write per thread can still be undrained. *)
let cut_consistent commits ~depth =
  let newer = List.filteri (fun i _ -> i < depth) commits in
  let counts = Hashtbl.create 4 in
  List.for_all
    (fun c ->
      let seen =
        match Hashtbl.find_opt counts c.writer with Some n -> n | None -> 0
      in
      Hashtbl.replace counts c.writer (seen + 1);
      seen < 1)
    newer

(* Newest committed model state: what an uncrashed run must dump. *)
let latest tr =
  match tr.t_commits with [] -> tr.t_init | c :: _ -> c.state

let check_concurrent (tr : tracker) ~recovered =
  match recovered with
  | Error exn ->
      Violation
        (Printf.sprintf "reading the recovered structure raised %s"
           (Printexc.to_string exn))
  | Ok state ->
      let ncommits = List.length tr.t_commits in
      let state_at d =
        if d = ncommits then tr.t_init
        else (List.nth tr.t_commits d).state
      in
      let rec cut_ok d =
        d <= ncommits
        && ((state_at d = state && cut_consistent tr.t_commits ~depth:d)
            || cut_ok (d + 1))
      in
      let pending_ok =
        Array.exists (function Some s -> s = state | None -> false)
          tr.t_pendings
      in
      if cut_ok 0 || pending_ok then Consistent
      else
        let window =
          List.filteri (fun d _ -> d <= 2) (List.map (fun c -> c.state)
            tr.t_commits @ [ tr.t_init ])
        in
        let pend =
          Array.to_list tr.t_pendings
          |> List.filter_map Fun.id
        in
        Violation
          (Printf.sprintf
             "recovered state %s is not a linearization-consistent cut \
              (newest committed: %s%s)"
             state
             (String.concat " | " window)
             (match pend with
             | [] -> ""
             | l -> "; pending: " ^ String.concat " | " l))
