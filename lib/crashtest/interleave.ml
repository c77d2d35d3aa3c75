(** Deterministic interleaving of concurrent writers over one heap.

    The simulator's concurrency is cooperative: writers are effect-based
    fibers ([Effect.Deep]) over a single OCaml domain, and every PM
    event (store / clwb / sfence) is a preemption point -- the
    {!Pmem.Region} event hook performs {!Yield}, handing control to the
    scheduler, which resumes a writer chosen by the schedule.  Straight
    OCaml between PM events is atomic, exactly like real instructions
    between persist-ordering points; {!Pmem.Region.atomic} sections
    (the root-record CAS) never preempt internally.

    Schedules are pure functions of their parameters, so any
    interleaving replays bit-for-bit from [(schedule, writers, budget)]:
    [Round_robin q] switches writers every [q] PM events; [Seeded s]
    draws the next writer from a private PRNG at every event.

    A {!Pmem.Region.Crash_point} raised by the armed crash budget
    propagates out of the running fiber through the scheduler to the
    caller ([exnc = raise]); the other writers' suspended continuations
    are deliberately abandoned, not discontinued -- a power failure does
    not unwind the other core's stack. *)

[@@@alert "-unstable"]

open Effect
open Effect.Deep

type schedule = Round_robin of int | Seeded of int

type _ Effect.t += Yield : unit Effect.t

(* The cooperative yield point, for spin-waits that must let the lock
   holder progress without issuing a PM event ({!Pmstm.Norec.set_yield}).
   Outside [run] (single-writer code, recovery) it is a no-op so the
   same workload closures run un-interleaved. *)
let yield () = try perform Yield with Effect.Unhandled Yield -> ()

let schedule_name = function
  | Round_robin q -> Printf.sprintf "rr%d" q
  | Seeded s -> Printf.sprintf "seeded%d" s

let schedule_of_name s =
  let num prefix =
    match int_of_string_opt
            (String.sub s (String.length prefix)
               (String.length s - String.length prefix))
    with
    | Some n when n >= 0 -> Some n
    | _ -> None
  in
  let has prefix =
    String.length s > String.length prefix
    && String.sub s 0 (String.length prefix) = prefix
  in
  if has "rr" then
    match num "rr" with
    | Some q when q > 0 -> Ok (Round_robin q)
    | _ -> Error (Printf.sprintf "bad round-robin quantum in %S" s)
  else if has "seeded" then
    match num "seeded" with
    | Some n -> Ok (Seeded n)
    | _ -> Error (Printf.sprintf "bad seed in %S" s)
  else Error (Printf.sprintf "unknown schedule %S (rr<q>|seeded<n>)" s)

(* Run [writers] to completion over [region], interleaved per
   [schedule].  Returns normally once every writer finished; any
   exception a writer raises (notably [Crash_point]) propagates
   immediately, abandoning the other fibers. *)
let run region ~schedule (writers : (unit -> unit) array) =
  let n = Array.length writers in
  if n = 0 then ()
  else begin
    let conts : (unit, unit) continuation option array = Array.make n None in
    let fresh = Array.make n true in
    let alive = Array.make n true in
    let current = ref 0 in
    let slice = ref 0 in
    let rng =
      match schedule with
      | Seeded s -> Some (Random.State.make [| s; n |])
      | Round_robin _ -> None
    in
    let quantum = match schedule with Round_robin q -> max 1 q | _ -> 1 in
    (* Pick who runs the next burst (one burst = resume until the next
       PM event or writer exit). *)
    let pick () =
      match rng with
      | Some st ->
          let live = ref [] in
          for i = n - 1 downto 0 do
            if alive.(i) then live := i :: !live
          done;
          let live = Array.of_list !live in
          live.(Random.State.int st (Array.length live))
      | None ->
          if (not alive.(!current)) || !slice >= quantum then begin
            slice := 0;
            let rec next i =
              let i = (i + 1) mod n in
              if alive.(i) then i else next i
            in
            current := next !current
          end;
          incr slice;
          !current
    in
    let handler i =
      {
        retc = (fun () -> alive.(i) <- false);
        exnc = raise;
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Yield ->
                Some (fun (k : (a, _) continuation) -> conts.(i) <- Some k)
            | _ -> None);
      }
    in
    let burst i =
      match conts.(i) with
      | Some k ->
          conts.(i) <- None;
          continue k ()
      | None ->
          if fresh.(i) then begin
            fresh.(i) <- false;
            match_with writers.(i) () (handler i)
          end
          else alive.(i) <- false (* finished writer picked again *)
    in
    (* a hook already installed (an observer in the tests) still runs
       after every event, before the yield *)
    let outer = Pmem.Region.event_hook region in
    Pmem.Region.set_event_hook region
      (Some
         (fun () ->
           (match outer with Some hook -> hook () | None -> ());
           perform Yield));
    Fun.protect
      ~finally:(fun () -> Pmem.Region.set_event_hook region outer)
      (fun () ->
        let rec loop () =
          if Array.exists Fun.id alive then begin
            burst (pick ());
            loop ()
          end
        in
        loop ())
  end
