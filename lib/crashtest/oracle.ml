(** Durable-linearizability oracle.

    MOD provides buffered durable linearizability under epoch persistency
    (paper Section 5.1): commits install states in one total order, but
    only a writer's last root write can still be undrained at the crash,
    because its next commit fences first.  A sequential history is the
    one-writer case (D'Osualdo et al., The Path to Durable
    Linearizability).  A torn state, a lost older operation or a phantom
    value is a violation. *)

type verdict = Consistent | Violation of string

let is_consistent = function Consistent -> true | Violation _ -> false

type commit = { writer : int; state : string }

(* The tracker records, at each commit's linearization point, the MODEL
   state the winning operation must have produced -- not the state the
   structure happens to hold -- so lost updates surface as a recovered
   state matching no cut. *)
type tracker = {
  t_init : string;
  mutable t_commits : commit list;  (** newest first *)
  t_pendings : string option array;  (** per-writer in-flight state *)
}

let tracker ~writers ~init =
  { t_init = init; t_commits = []; t_pendings = Array.make writers None }

(* The writer is about to (try to) swing the commit in: [state] is the
   model state its operation yields applied to the current model.  Safe
   to call once per CAS attempt -- a retry recomputes and overwrites. *)
let track_pending tr ~writer state = tr.t_pendings.(writer) <- Some state

let clear_pending tr ~writer = tr.t_pendings.(writer) <- None

(* The writer's CAS won: [state] is now the latest durably-decided
   model state. *)
let track_commit tr ~writer state =
  tr.t_commits <- { writer; state } :: tr.t_commits;
  clear_pending tr ~writer

(* Newest committed model state: what an uncrashed run must dump. *)
let latest tr =
  match tr.t_commits with [] -> tr.t_init | c :: _ -> c.state

(* Every pending state, then the state at each cut, newest first.  The
   cut below commit [c] has [c] above it too, so the walk stops at the
   first commit whose writer already has one above the cut: every deeper
   cut has two of that writer's commits above it. *)
let window tr =
  let above = Array.make (Array.length tr.t_pendings) false in
  let rec cuts = function
    | [] -> [ tr.t_init ]
    | c :: older ->
        c.state
        ::
        (if above.(c.writer) then []
         else begin
           above.(c.writer) <- true;
           cuts older
         end)
  in
  List.filter_map Fun.id (Array.to_list tr.t_pendings) @ cuts tr.t_commits

(* The window is listed when [judge tr] is applied, once: the samples of
   one crash point share it. *)
let judge tr =
  let ok = window tr in
  fun ~recovered ->
    match recovered with
    | Error exn ->
        Violation
          (Printf.sprintf "reading the recovered structure raised %s"
             (Printexc.to_string exn))
    | Ok state ->
        if List.exists (String.equal state) ok then Consistent
        else
          Violation
            (Printf.sprintf
               "recovered state %s is not at a FASE boundary (acceptable: %s)"
               state
               (String.concat " | " ok))

(* One writer that committed each state of [history] (newest first) that
   differs from the state before it: a state a read repeats commits
   nothing. *)
let check ~history ~pending ~recovered =
  match List.rev history with
  | [] -> invalid_arg "Oracle.check: empty history"
  | init :: newer ->
      let tr = tracker ~writers:1 ~init in
      List.iter
        (fun s -> if s <> latest tr then track_commit tr ~writer:0 s)
        newer;
      Option.iter (track_pending tr ~writer:0) pending;
      judge tr ~recovered
