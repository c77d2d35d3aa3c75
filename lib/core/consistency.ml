(** Automated crash-consistency testing (paper Section 5.4).

    The relaxed ordering discipline of MOD updates admits a simple static
    check over a trace of PM events.  Two invariants imply the correctness
    argument of Section 5.2:

    1. {b Out-of-place writes}: every PM write outside a commit section
       targets memory allocated since the last completed commit (i.e. the
       shadow under construction), so no useful durable data is ever
       overwritten mid-FASE.
    2. {b Flush-before-fence}: every written cacheline is flushed by a
       clwb before the next sfence, so the fence really persists the whole
       shadow.

    The checker consumes the {!Pmem.Trace} recorded by the region and
    reports each violation with its event index.  PMDK-style in-place
    transactions violate invariant 1 by design -- the tests use that as a
    negative control. *)

type violation =
  | In_place_write of { index : int; off : int }
      (** a non-commit write hit memory that was not freshly allocated *)
  | Unflushed_write of { index : int; line : int }
      (** a fence passed while a written line had no clwb issued *)
  | Write_after_free of { index : int; off : int }

type report = {
  events : int;
  writes_checked : int;
  fences : int;
  violations : violation list;
}

let ok report = report.violations = []

let pp_violation ppf = function
  | In_place_write { index; off } ->
      Format.fprintf ppf "event %d: in-place write to non-fresh word %d" index
        off
  | Unflushed_write { index; line } ->
      Format.fprintf ppf "event %d: fence passed with unflushed line %d" index
        line
  | Write_after_free { index; off } ->
      Format.fprintf ppf "event %d: write to freed word %d" index off

let pp_report ppf r =
  if ok r then
    Format.fprintf ppf
      "consistency: OK (%d events, %d writes checked, %d fences)" r.events
      r.writes_checked r.fences
  else begin
    Format.fprintf ppf "consistency: %d violation(s)@,"
      (List.length r.violations);
    List.iter (fun v -> Format.fprintf ppf "  %a@," pp_violation v) r.violations
  end

(* The out-of-place check exempts the root directory; its size is the
   full dual-copy record area, not the slot count. *)
let check trace =
  let fresh : (int, unit) Hashtbl.t = Hashtbl.create 4096 in
  let freed : (int, unit) Hashtbl.t = Hashtbl.create 4096 in
  (* line -> false when written but not yet flushed *)
  let line_flushed : (int, bool) Hashtbl.t = Hashtbl.create 256 in
  let violations = ref [] in
  let writes = ref 0 in
  let fences = ref 0 in
  let in_commit = ref 0 in
  let note v = violations := v :: !violations in
  let n = Pmem.Trace.length trace in
  for index = 0 to n - 1 do
    match Pmem.Trace.get trace index with
    | Pmem.Trace.Alloc { off; words } ->
        for w = off to off + words - 1 do
          Hashtbl.replace fresh w ();
          Hashtbl.remove freed w
        done
    | Pmem.Trace.Free { off; words } ->
        for w = off to off + words - 1 do
          Hashtbl.remove fresh w;
          Hashtbl.replace freed w ()
        done
    | Pmem.Trace.Write { off } ->
        incr writes;
        (* Invariant 2 covers shadow construction; writes inside a commit
           section (root-pointer updates and, for CommitUnrelated, the
           short transaction's log) are ordered by the commit protocol
           itself -- the undo log or the next epoch's fence -- so they are
           exempt from flush-before-fence. *)
        if !in_commit = 0 then
          Hashtbl.replace line_flushed (Pmem.Region.line_of_word off) false;
        if Hashtbl.mem freed off then note (Write_after_free { index; off })
        else if
          !in_commit = 0
          && off >= Pmalloc.Heap.root_directory_words
          && not (Hashtbl.mem fresh off)
        then note (In_place_write { index; off })
    | Pmem.Trace.Flush { line } -> Hashtbl.replace line_flushed line true
    | Pmem.Trace.Fence ->
        incr fences;
        (* Hashtbl.iter order is unspecified; collect this fence's
           violations and sort by line so reports are deterministic. *)
        let unflushed =
          Hashtbl.fold
            (fun line flushed acc -> if flushed then acc else line :: acc)
            line_flushed []
        in
        List.iter
          (fun line -> note (Unflushed_write { index; line }))
          (List.sort compare unflushed);
        Hashtbl.reset line_flushed
    | Pmem.Trace.Commit_begin -> incr in_commit
    | Pmem.Trace.Commit_end ->
        in_commit := max 0 (!in_commit - 1);
        (* a completed commit retires the FASE's allocations *)
        if !in_commit = 0 then Hashtbl.reset fresh
    | Pmem.Trace.Crash ->
        (* volatile state is gone; the next FASE starts clean *)
        Hashtbl.reset line_flushed;
        Hashtbl.reset fresh;
        in_commit := 0
  done;
  {
    events = n;
    writes_checked = !writes;
    fences = !fences;
    violations = List.rev !violations;
  }
