(* Unit and property tests for the persistent-memory hardware model. *)

let word_tests =
  let open Pmem in
  [
    Alcotest.test_case "scalar roundtrip" `Quick (fun () ->
        List.iter
          (fun v -> Alcotest.(check int) "roundtrip" v Word.(to_int (of_int v)))
          [ 0; 1; -1; 42; -42; 1 lsl 60; -(1 lsl 60) ]);
    Alcotest.test_case "pointer roundtrip" `Quick (fun () ->
        List.iter
          (fun p -> Alcotest.(check int) "roundtrip" p Word.(to_ptr (of_ptr p)))
          [ 0; 1; 64; 123456; 1 lsl 40 ]);
    Alcotest.test_case "tags distinguish" `Quick (fun () ->
        Alcotest.(check bool) "ptr is ptr" true (Word.is_ptr (Word.of_ptr 7));
        Alcotest.(check bool) "int not ptr" false (Word.is_ptr (Word.of_int 7));
        Alcotest.(check bool) "null is null" true (Word.is_null Word.null);
        Alcotest.(check bool)
          "ptr 0 is null" true
          (Word.is_null (Word.of_ptr 0));
        Alcotest.(check bool)
          "scalar 0 is not null" false
          (Word.is_null (Word.of_int 0)));
    Alcotest.test_case "decode mismatches raise" `Quick (fun () ->
        Alcotest.check_raises "to_ptr of scalar"
          (Invalid_argument "Word.to_ptr: scalar word") (fun () ->
            ignore (Word.to_ptr (Word.of_int 3)));
        Alcotest.check_raises "to_int of ptr"
          (Invalid_argument "Word.to_int: pointer word") (fun () ->
            ignore (Word.to_int (Word.of_ptr 3))));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"scalar roundtrip (qcheck)" ~count:500
         (QCheck.int_range (-(1 lsl 55)) (1 lsl 55))
         (fun v -> Pmem.Word.(to_int (of_int v)) = v));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"pointer roundtrip (qcheck)" ~count:500
         (QCheck.int_range 0 (1 lsl 50))
         (fun p -> Pmem.Word.(to_ptr (of_ptr p)) = p));
  ]

let region_tests =
  let open Pmem in
  [
    Alcotest.test_case "store visible to load" `Quick (fun () ->
        let r = Region.create ~capacity_words:1024 () in
        Region.store r 10 (Word.of_int 99);
        Alcotest.(check int) "load" 99 (Word.to_int (Region.load r 10)));
    Alcotest.test_case "unflushed store not durable" `Quick (fun () ->
        let r = Region.create ~capacity_words:1024 () in
        Region.store r 10 (Word.of_int 99);
        Alcotest.(check int) "durable still zero" 0
          (Word.bits (Region.peek_durable r 10)));
    Alcotest.test_case "clwb+sfence makes durable" `Quick (fun () ->
        let r = Region.create ~capacity_words:1024 () in
        Region.store r 10 (Word.of_int 99);
        Region.clwb r 10;
        Region.sfence r;
        Alcotest.(check int) "durable" 99
          (Word.to_int (Region.peek_durable r 10)));
    Alcotest.test_case "clwb without fence leaves line in flight" `Quick
      (fun () ->
        let r = Region.create ~capacity_words:1024 () in
        Region.store r 10 (Word.of_int 99);
        Region.clwb r 10;
        Alcotest.(check int) "one in flight" 1 (Region.inflight r);
        Region.sfence r;
        Alcotest.(check int) "drained" 0 (Region.inflight r));
    Alcotest.test_case "store joins an in-flight line's writeback" `Quick
      (fun () ->
        (* A store racing a launched writeback joins the line: the next
           fence drains it with the store included, so a neighbour block
           sharing the line keeps its clwb+fence guarantee (false
           sharing must not void another writer's flush). *)
        let r = Region.create ~capacity_words:1024 () in
        Region.store r 10 (Word.of_int 1);
        Region.clwb r 10;
        Region.store r 10 (Word.of_int 2);
        Alcotest.(check int) "still in flight" 1 (Region.inflight r);
        Region.sfence r;
        Alcotest.(check int) "drained" 0 (Region.inflight r);
        Alcotest.(check int) "line durable with the racing store" 2
          (Word.to_int (Region.peek_durable r 10)));
    Alcotest.test_case "crash drops dirty, keeps fenced" `Quick (fun () ->
        let r = Region.create ~capacity_words:1024 () in
        Region.store r 8 (Word.of_int 11);
        Region.clwb r 8;
        Region.sfence r;
        Region.store r 128 (Word.of_int 22);
        (* dirty, never flushed *)
        Region.crash ~mode:Region.Drop_inflight r;
        Alcotest.(check int) "fenced data survives" 11
          (Word.to_int (Region.load r 8));
        Alcotest.(check int) "dirty data lost" 0 (Word.bits (Region.load r 128)));
    Alcotest.test_case "crash keep-inflight persists launched flushes" `Quick
      (fun () ->
        let r = Region.create ~capacity_words:1024 () in
        Region.store r 8 (Word.of_int 11);
        Region.clwb r 8;
        Region.crash ~mode:Region.Keep_inflight r;
        Alcotest.(check int) "in-flight survived" 11
          (Word.to_int (Region.load r 8)));
    Alcotest.test_case "crash drop-inflight loses launched flushes" `Quick
      (fun () ->
        let r = Region.create ~capacity_words:1024 () in
        Region.store r 8 (Word.of_int 11);
        Region.clwb r 8;
        Region.crash ~mode:Region.Drop_inflight r;
        Alcotest.(check int) "in-flight lost" 0 (Word.bits (Region.load r 8)));
    Alcotest.test_case "load and store allocate only the clock box" `Quick
      (fun () ->
        (* [now_ns] is a boxed record field (outside readers use it as a
           field), so each access allocates its 2-word box and nothing
           else: no trace event while tracing is off, no boxed phase
           accumulator *)
        let r = Region.create ~capacity_words:1024 () in
        Region.store r 16 (Word.of_int 0);
        let n = 10_000 in
        let words_per f =
          let before = Gc.minor_words () in
          for i = 1 to n do
            f i
          done;
          (Gc.minor_words () -. before) /. float_of_int n
        in
        let store =
          words_per (fun i -> Region.store r (16 + (i land 7)) (Word.of_int i))
        in
        let load = words_per (fun i -> ignore (Region.load r (16 + (i land 7)))) in
        Alcotest.(check int) "only the first store missed L1" 1
          (Region.stats r).Stats.l1_misses;
        if store > 2.0 then Alcotest.failf "a store allocates %.2f words" store;
        if load > 2.0 then Alcotest.failf "a load allocates %.2f words" load);
    Alcotest.test_case "capacity grows on demand" `Quick (fun () ->
        let r = Region.create ~capacity_words:64 () in
        Region.ensure_capacity r 1000;
        Alcotest.(check bool) "grew" true (Region.capacity_words r >= 1000);
        Region.store r 999 (Word.of_int 5);
        Alcotest.(check int) "usable" 5 (Word.to_int (Region.load r 999)));
    Alcotest.test_case "out-of-bounds access raises" `Quick (fun () ->
        let r = Region.create ~capacity_words:64 () in
        Alcotest.(check bool)
          "raises" true
          (try
             ignore (Region.load r 64);
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "sfence counts drained lines once" `Quick (fun () ->
        let r = Region.create ~capacity_words:1024 () in
        (* words 0 and 1 share a line; 64 is another line *)
        Region.store r 0 (Word.of_int 1);
        Region.store r 1 (Word.of_int 2);
        Region.store r 64 (Word.of_int 3);
        Region.clwb r 0;
        Region.clwb r 1;
        Region.clwb r 64;
        Alcotest.(check int) "two lines in flight" 2 (Region.inflight r);
        Region.sfence r;
        let s = Region.stats r in
        Alcotest.(check int) "drained" 2 s.Pmem.Stats.lines_drained);
  ]

let latency_tests =
  let open Pmem in
  [
    Alcotest.test_case "single flush+fence costs 353ns" `Quick (fun () ->
        Alcotest.(check (float 0.01)) "t1" 353.0 (Latency.amdahl_avg_ns 1));
    Alcotest.test_case "16-way overlap cuts latency ~75%" `Quick (fun () ->
        let avg16 = Latency.amdahl_avg_ns 16 in
        let reduction = (353.0 -. avg16) /. 353.0 in
        Alcotest.(check bool)
          (Printf.sprintf "reduction %.2f in [0.72, 0.80]" reduction)
          true
          (reduction > 0.72 && reduction < 0.80));
    Alcotest.test_case "amdahl is monotone decreasing" `Quick (fun () ->
        let rec check n =
          if n < 32 then begin
            Alcotest.(check bool)
              "monotone" true
              (Latency.amdahl_avg_ns (n + 1) < Latency.amdahl_avg_ns n);
            check (n + 1)
          end
        in
        check 1);
    Alcotest.test_case "fence stall scales with inflight" `Quick (fun () ->
        Alcotest.(check (float 0.01))
          "empty fence" Config.fence_base_ns
          (Latency.fence_stall_ns ~inflight:0);
        Alcotest.(check (float 0.01))
          "1 flush" 353.0
          (Latency.fence_stall_ns ~inflight:1);
        let s8 = Latency.fence_stall_ns ~inflight:8 in
        Alcotest.(check bool)
          "8 flushes cost less than 8 serialized" true
          (s8 < 8.0 *. 353.0));
    Alcotest.test_case "region charges fence stall to flush phase" `Quick
      (fun () ->
        let r = Region.create ~capacity_words:1024 () in
        Region.store r 0 (Word.of_int 1);
        Region.clwb r 0;
        let before = (Region.stats r).Stats.ns_flush in
        Region.sfence r;
        let after = (Region.stats r).Stats.ns_flush in
        Alcotest.(check (float 0.01)) "353ns stall" 353.0 (after -. before));
  ]

let hierarchy_tests =
  let open Pmem in
  [
    Alcotest.test_case "L2 absorbs L1 conflict misses cheaply" `Quick
      (fun () ->
        let r = Region.create ~capacity_words:(1 lsl 16) () in
        (* touch a working set larger than L1D (32KB) but far below L2 *)
        let words = 8192 in
        for i = 0 to words - 1 do
          ignore (Region.load r (i * 8))
        done;
        let s = Region.stats r in
        let cold = s.Stats.now_ns in
        Stats.reset s;
        for i = 0 to words - 1 do
          ignore (Region.load r (i * 8))
        done;
        (* second sweep: all L1 misses, but served by L2 at 14ns *)
        Alcotest.(check bool)
          (Printf.sprintf "warm sweep (%.0f) far cheaper than cold (%.0f)"
             s.Stats.now_ns cold)
          true
          (s.Stats.now_ns < cold /. 4.0));
    Alcotest.test_case "first touch pays PM latency" `Quick (fun () ->
        let r = Region.create ~capacity_words:1024 () in
        let s = Region.stats r in
        let before = s.Stats.now_ns in
        ignore (Region.load r 512);
        Alcotest.(check (float 0.01)) "PM read" Config.pm_read_ns
          (s.Stats.now_ns -. before);
        let before = s.Stats.now_ns in
        ignore (Region.load r 512);
        Alcotest.(check (float 0.01)) "L1 hit" Config.l1_hit_ns
          (s.Stats.now_ns -. before));
  ]

let cache_tests =
  let open Pmem in
  [
    Alcotest.test_case "repeat access hits" `Quick (fun () ->
        let c = Cache.create () in
        Alcotest.(check int) "first miss" Cache.miss
          (Cache.access c ~line:5 ~write:false);
        Alcotest.(check int) "second hit" Cache.hit
          (Cache.access c ~line:5 ~write:false));
    Alcotest.test_case "conflict misses evict LRU" `Quick (fun () ->
        let c = Cache.create ~sets:1 ~ways:2 () in
        ignore (Cache.access c ~line:1 ~write:false);
        ignore (Cache.access c ~line:2 ~write:false);
        ignore (Cache.access c ~line:3 ~write:false);
        (* line 1 was LRU and must be gone *)
        Alcotest.(check bool) "line1 evicted" false (Cache.resident c ~line:1);
        Alcotest.(check bool) "line3 resident" true (Cache.resident c ~line:3));
    Alcotest.test_case "dirty eviction triggers writeback" `Quick (fun () ->
        let c = Cache.create ~sets:1 ~ways:1 () in
        ignore (Cache.access c ~line:1 ~write:true);
        Alcotest.(check int) "victim written back" 1
          (Cache.access c ~line:2 ~write:false));
    Alcotest.test_case "mark_clean suppresses writeback" `Quick (fun () ->
        let c = Cache.create ~sets:1 ~ways:1 () in
        ignore (Cache.access c ~line:1 ~write:true);
        Cache.mark_clean c ~line:1;
        Alcotest.(check int) "no writeback" Cache.miss
          (Cache.access c ~line:2 ~write:false));
    Alcotest.test_case "eviction writeback makes line durable" `Quick
      (fun () ->
        (* region-level: write many lines so the 32KB L1D must evict;
           evicted dirty lines land in PM even without clwb *)
        let r = Region.create ~capacity_words:(1 lsl 16) () in
        for i = 0 to 8191 do
          Region.store r (i * 8) (Word.of_int i)
        done;
        let durable = ref 0 in
        for i = 0 to 8191 do
          if Word.bits (Region.peek_durable r (i * 8)) <> 0 then incr durable
        done;
        Alcotest.(check bool)
          (Printf.sprintf "%d lines evicted to PM" !durable)
          true (!durable > 4000));
  ]

(* Naive reference for [Cache]: [line mod sets] picks the set, each set
   is an explicit recency list (most recent first), and lookups scan to
   the last match.  The optimized cache must agree on every hit/miss and
   every dirty victim. *)
module Cache_model = struct
  type t = { sets : int; ways : int; lru : (int * bool) list array }

  let create ~sets ~ways = { sets; ways; lru = Array.make sets [] }
  let clear t = Array.fill t.lru 0 t.sets []

  let lookup set line =
    List.fold_left
      (fun acc (l, d) -> if l = line then Some d else acc)
      None set

  (* [`Hit], or [`Miss v] with the dirty victim [v], if any *)
  let access t ~line ~write =
    let s = line mod t.sets in
    let set = t.lru.(s) in
    match lookup set line with
    | Some d ->
        t.lru.(s) <- (line, d || write) :: List.remove_assoc line set;
        `Hit
    | None ->
        let kept = List.filteri (fun i _ -> i < t.ways - 1) set in
        let victim =
          if List.length set < t.ways then None
          else
            match List.nth set (t.ways - 1) with
            | l, true -> Some l
            | _, false -> None
        in
        t.lru.(s) <- (line, write) :: kept;
        `Miss victim

  let resident t ~line = lookup t.lru.(line mod t.sets) line <> None

  let mark_clean t ~line =
    let s = line mod t.sets in
    t.lru.(s) <- List.map (fun (l, d) -> (l, d && l <> line)) t.lru.(s)

  let dirty_lines t =
    Array.fold_left
      (fun acc set ->
        List.filter_map (fun (l, d) -> if d then Some l else None) set @ acc)
      [] t.lru
end

(* Geometries of up to 256 sets of 1 to 16 ways.  Most lines fall in a
   few hot sets, which fill and evict (a sweep of one hot set's lines
   fills a 16-way set between two wipes); the rest spread over four
   times as many lines as sets, so sets are claimed out of index order
   and the block array grows mid-trace, while full hot sets and the
   remembered ways point into it.  Other lines exercise the way index: lines over the first
   four index pages (a page can exist while a line's set is unclaimed),
   a hot set's lines a few pages on, and hot-set lines near 2^20, 2^21
   and 2^22, whose fills grow the page table.  Evictions, mark_clean,
   invalidations, resets and the epoch wrap then leave index entries
   stale, which the lookup must read as misses.  A line run accesses
   [a], then [b], and then takes [hit_run] over the two remembered ways
   as [Region.blit] does; the model sees its [n] alternating hits. *)
let cache_model_tests =
  let open Pmem in
  (* [Cache.access] on [c] as [Cache_model.access] reports it *)
  let access_as_model c ~line ~write =
    let r = Cache.access c ~line ~write in
    if r = Cache.hit then `Hit
    else if r = Cache.miss then `Miss None
    else `Miss (Some r)
  in
  let line_gen ~sets ~ways hot =
    QCheck.Gen.(
      let hot_line h = List.nth hot (h mod List.length hot) in
      frequency
        [
          ( 3,
            map2
              (fun h k -> hot_line h + (sets * k))
              nat
              (int_bound (2 * ways)) );
          (1, int_bound ((4 * sets) - 1));
          (1, int_bound ((4 * Cache.page_lines) - 1));
          ( 1,
            map2
              (fun h k -> hot_line h + (Cache.page_lines * k))
              nat (int_range 1 4) );
          ( 1,
            map3
              (fun e h k ->
                (1 lsl (20 + e)) + hot_line h + (sets * (k - ways)))
              (int_bound 2) nat
              (int_bound (2 * ways)) );
        ])
  in
  let op_gen line =
    QCheck.Gen.(
      frequency
        [
          (12, map2 (fun line write -> `Access (line, write)) line bool);
          (3, map (fun line -> `Mark_clean line) line);
          (1, return `Invalidate);
          (1, return `Reset);
        ])
  in
  (* A run touches one line, or alternates between two lines of one set
     or of two sets -- a block copy's pattern, which the cache serves
     from its two remembered ways -- with an occasional mark_clean,
     invalidation or reset inside it. *)
  let run_gen sets line =
    QCheck.Gen.(
      let* l1 = line in
      let* l2 =
        frequency
          [
            (1, return l1);
            (2, map (fun k -> l1 + (sets * (k + 1))) (int_bound 3));
            (2, map (fun k -> l1 + 1 + (k mod max 1 (sets - 1))) (int_bound 7));
          ]
      in
      let step i =
        let line = if i land 1 = 0 then l1 else l2 in
        frequency
          [
            (12, map (fun write -> `Access (line, write)) bool);
            (2, return (`Mark_clean line));
            (1, return `Invalidate);
            (1, return `Reset);
          ]
      in
      let* n = int_range 2 24 in
      flatten_l (List.init n step))
  in
  (* [a] then [b] as one run's head accesses, [b] on [a]'s line, in its
     set or in another, then [n] run hits *)
  let line_run_gen sets line =
    QCheck.Gen.(
      let* a = line in
      let* b =
        frequency
          [
            (1, return a);
            (2, map (fun k -> a + (sets * (k + 1))) (int_bound 3));
            (2, map (fun k -> a + 1 + (k mod max 1 (sets - 1))) (int_bound 7));
          ]
      in
      let* wa = bool in
      let* wb = bool in
      map (fun n -> [ `Line_run (a, wa, b, wb, n) ]) (int_bound 24))
  in
  (* [2 * ways + 1] accesses among one hot set's [2 * ways + 1] lines *)
  let sweep_gen ~sets ~ways hot =
    QCheck.Gen.(
      let* h = oneofl hot in
      list_repeat ((2 * ways) + 1)
        (map2
           (fun k write -> `Access (h + (sets * k), write))
           (int_bound (2 * ways))
           bool))
  in
  (* [Some k]: start the cache [k] invalidations short of its epoch
     wrap, so the trace's invalidations cross it *)
  let gen =
    QCheck.Gen.(
      let* log_sets = int_bound 8 in
      let sets = 1 lsl log_sets in
      let* ways = int_range 1 16 in
      let* hot = list_size (int_range 1 3) (int_bound (sets - 1)) in
      let line = line_gen ~sets ~ways hot in
      let segment =
        frequency
          [
            (6, map (fun op -> [ op ]) (op_gen line));
            (2, run_gen sets line);
            (1, line_run_gen sets line);
            (1, sweep_gen ~sets ~ways hot);
          ]
      in
      quad (return log_sets) (return ways)
        (frequency [ (3, return None); (1, map Option.some (int_bound 2)) ])
        (map List.concat (list_size (int_range 1 60) segment)))
  in
  let show (log_sets, ways, aged, ops) =
    let op = function
      | `Access (line, write) ->
          Printf.sprintf "%c%d" (if write then 'w' else 'r') line
      | `Mark_clean line -> Printf.sprintf "c%d" line
      | `Line_run (a, wa, b, wb, n) ->
          let rw w = if w then 'w' else 'r' in
          Printf.sprintf "[%c%d %c%d run %d]" (rw wa) a (rw wb) b n
      | `Invalidate -> "I"
      | `Reset -> "R"
    in
    Printf.sprintf "%d sets x %d ways%s: %s" (1 lsl log_sets) ways
      (match aged with
      | None -> ""
      | Some k -> Printf.sprintf ", wrap at invalidation %d" (k + 1))
      (String.concat " " (List.map op ops))
  in
  let arb =
    QCheck.make ~print:show
      ~shrink:QCheck.Shrink.(quad nil nil nil list)
      gen
  in
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"cache agrees with naive LRU model (qcheck)"
         ~count:300 arb (fun (log_sets, ways, aged, ops) ->
           let sets = 1 lsl log_sets in
           let c = Cache.create ~sets ~ways () in
           Option.iter
             (fun k ->
               for _ = 1 to Cache.epochs - 1 - k do
                 Cache.invalidate c
               done)
             aged;
           let m = Cache_model.create ~sets ~ways in
           let access line write =
             access_as_model c ~line ~write = Cache_model.access m ~line ~write
             && Cache.resident c ~line
           in
           List.for_all
             (fun op ->
               match op with
               | `Access (line, write) -> access line write
               | `Line_run (a, wa, b, wb, n) ->
                   access a wa && access b wb
                   &&
                   let ma = Cache.memo_way c a and mb = Cache.memo_way c b in
                   ma >= 0 = Cache_model.resident m ~line:a
                   && mb >= 0
                   && (ma < 0
                      ||
                      (Cache.hit_run c ~a:ma ~b:mb n;
                       List.for_all
                         (fun i ->
                           let line = if i land 1 = 0 then a else b in
                           Cache_model.access m ~line ~write:false = `Hit)
                         (List.init n Fun.id)))
               | `Mark_clean line ->
                   Cache.mark_clean c ~line;
                   Cache_model.mark_clean m ~line;
                   List.sort compare (Cache.dirty_lines c)
                   = List.sort compare (Cache_model.dirty_lines m)
               | `Invalidate ->
                   Cache.invalidate c;
                   Cache_model.clear m;
                   Cache.dirty_lines c = []
               | `Reset ->
                   Cache.reset c;
                   Cache_model.clear m;
                   Cache.dirty_lines c = [])
             ops));
    Alcotest.test_case "Table 1 L2 and LLC sets overflow in LRU order"
      `Quick (fun () ->
        (* 40 lines in each of four sets of each geometry, more than its
           16 ways: random accesses (the low lines hot, a third of them
           writes), then a cyclic sweep of 17 lines of one set, which
           misses on every access under exact LRU *)
        List.iter
          (fun (sets, ways) ->
            let c = Cache.create ~sets ~ways () in
            let m = Cache_model.create ~sets ~ways in
            let rng = Random.State.make [| sets |] in
            let hot = [| 0; 1; sets / 2; sets - 1 |] in
            let check line write =
              let got = access_as_model c ~line ~write in
              let want = Cache_model.access m ~line ~write in
              if got <> want then
                Alcotest.failf "%d sets: line %d %s" sets line
                  (if got = `Hit then "hit, model missed" else "differs");
              got
            in
            let victims = ref 0 in
            for _ = 1 to 20_000 do
              let k = Random.State.int rng 40 in
              let k = if Random.State.bool rng then k / 4 else k in
              let line = hot.(Random.State.int rng 4) + (sets * k) in
              match check line (Random.State.int rng 3 = 0) with
              | `Miss (Some _) -> incr victims
              | _ -> ()
            done;
            Alcotest.(check bool)
              (Printf.sprintf "%d sets: %d dirty victims" sets !victims)
              true (!victims > 1000);
            Alcotest.(check (list int)) "dirty lines"
              (List.sort compare (Cache_model.dirty_lines m))
              (List.sort compare (Cache.dirty_lines c));
            for round = 1 to 3 do
              for k = 0 to ways do
                let line = hot.(2) + (sets * (100 + k)) in
                if check line false = `Hit && round > 1 then
                  Alcotest.failf "%d sets: sweep line %d hit" sets line
              done
            done)
          [ (Config.l2_sets, Config.l2_ways); (Config.llc_sets, Config.llc_ways) ]);
    Alcotest.test_case "set count must be a power of two" `Quick (fun () ->
        Alcotest.check_raises "3 sets"
          (Invalid_argument "Cache.create: set count must be a power of two")
          (fun () -> ignore (Cache.create ~sets:3 ~ways:2 ())));
    Alcotest.test_case "geometry must fit the byte tables" `Quick (fun () ->
        (* one byte per line holds a way offset, 16 bits per set its
           claim order *)
        List.iter
          (fun (sets, ways) ->
            Alcotest.check_raises
              (Printf.sprintf "%d sets x %d ways" sets ways)
              (Invalid_argument
                 "Cache.create: at most 65535 sets of 1 to 256 ways")
              (fun () -> ignore (Cache.create ~sets ~ways ())))
          [ (1, 257); (1, 0); (65536, 1); (1 lsl 20, 16) ];
        (* the largest of each; line 255 finds its way, offset 255,
           through the index, as the remembered ways hold 0 and 128 *)
        let c = Cache.create ~sets:1 ~ways:256 () in
        for line = 0 to 255 do
          ignore (Cache.access c ~line ~write:true)
        done;
        List.iter
          (fun line ->
            Alcotest.(check int)
              (Printf.sprintf "line %d hits" line)
              Cache.hit
              (Cache.access c ~line ~write:false))
          [ 0; 128; 255 ];
        Alcotest.(check int) "the LRU line is the victim" 1
          (Cache.access c ~line:256 ~write:false);
        let c = Cache.create ~sets:32768 ~ways:1 () in
        ignore (Cache.access c ~line:32767 ~write:false);
        Alcotest.(check int) "32768 sets" Cache.hit
          (Cache.access c ~line:32767 ~write:false));
  ]

let stats_tests =
  let open Pmem in
  [
    Alcotest.test_case "phase attribution" `Quick (fun () ->
        let s = Stats.create () in
        Stats.advance s 10.0;
        Stats.in_phase s Stats.Log (fun () -> Stats.advance s 5.0);
        Stats.in_phase s Stats.Flush (fun () -> Stats.advance s 2.0);
        Alcotest.(check (float 0.001)) "other" 10.0 (Stats.ns_other s);
        Alcotest.(check (float 0.001)) "log" 5.0 (Stats.ns_log s);
        Alcotest.(check (float 0.001)) "flush" 2.0 s.Stats.ns_flush;
        Alcotest.(check (float 0.001)) "total" 17.0 s.Stats.now_ns);
    Alcotest.test_case "in_phase restores on exception" `Quick (fun () ->
        let s = Stats.create () in
        (try Stats.in_phase s Stats.Log (fun () -> failwith "boom")
         with Failure _ -> ());
        Stats.advance s 1.0;
        Alcotest.(check (float 0.001)) "charged to other" 1.0 (Stats.ns_other s));
    Alcotest.test_case "snapshot diff" `Quick (fun () ->
        let s = Stats.create () in
        let before = Stats.snapshot s in
        Stats.advance s 7.0;
        s.Stats.clwbs <- 3;
        let d = Stats.diff ~before ~after:(Stats.snapshot s) in
        Alcotest.(check (float 0.001)) "ns" 7.0 d.Stats.s_now_ns;
        Alcotest.(check int) "clwbs" 3 d.Stats.s_clwbs);
    Alcotest.test_case "copies own their phase accumulators" `Quick
      (fun () ->
        (* the Log and Other accumulators are one mutable store inside
           the record: a copy that shared it would leak one crash
           sample's time into the next *)
        let s = Stats.create () in
        Stats.advance s 3.0;
        let c = Stats.copy s in
        Stats.advance s 4.0;
        Stats.in_phase s Stats.Log (fun () -> Stats.advance s 1.0);
        Alcotest.(check (float 0.001)) "copy's other" 3.0 (Stats.ns_other c);
        Alcotest.(check (float 0.001)) "copy's log" 0.0 (Stats.ns_log c);
        let into = Stats.create () in
        Stats.assign ~into c;
        Stats.advance into 5.0;
        Alcotest.(check (float 0.001)) "assigned" 8.0 (Stats.ns_other into);
        Alcotest.(check (float 0.001)) "source kept" 3.0 (Stats.ns_other c);
        Alcotest.(check (float 0.001)) "original" 7.0 (Stats.ns_other s));
  ]

let trace_tests =
  let open Pmem in
  [
    Alcotest.test_case "records region events in order" `Quick (fun () ->
        let r = Region.create ~capacity_words:1024 ~trace:true () in
        Region.store r 9 (Word.of_int 1);
        Region.clwb r 9;
        Region.sfence r;
        match Trace.to_list (Region.trace r) with
        | [ Trace.Write { off = 9 }; Trace.Flush { line = 1 }; Trace.Fence ] ->
            ()
        | evs ->
            Alcotest.failf "unexpected trace: %a"
              (Fmt.list ~sep:Fmt.comma Trace.pp_event)
              evs);
    Alcotest.test_case "disabled trace records nothing" `Quick (fun () ->
        let r = Region.create ~capacity_words:1024 ~trace:false () in
        Region.store r 9 (Word.of_int 1);
        Alcotest.(check int) "empty" 0 (Trace.length (Region.trace r)));
    Alcotest.test_case "trace grows past initial capacity" `Quick (fun () ->
        let t = Trace.create ~enabled:true in
        for i = 0 to 5000 do
          Trace.emit t (Trace.Write { off = i })
        done;
        Alcotest.(check int) "all kept" 5001 (Trace.length t));
  ]

(* Re-execution, the differential reference for the snapshot journal: a
   fresh twin region with the same capacity and seed, fed the same ops,
   never snapshots; restoring a snapshot rebuilds the twin from the ops
   before it.  A restore empties the caches and only L1D evictions move
   the image, so the rebuilt twin invalidates its L1D where the original
   restored.  The L2 and LLC model latency alone, which is why the two
   sim clocks agree only while the replayed prefix holds no restore. *)
type 'op reexec = {
  fresh : unit -> Pmem.Region.t;
  apply : Pmem.Region.t -> 'op -> unit;
  mutable twin : Pmem.Region.t;
  mutable timeline : 'op option list;
      (* every op since creation, newest first; [None] marks a restore *)
}

let reexec fresh apply = { fresh; apply; twin = fresh (); timeline = [] }

let reexec_op x op =
  x.apply x.twin op;
  x.timeline <- Some op :: x.timeline

(* Rewind the twin to [prefix], a timeline taken when the original
   snapshotted. *)
let reexec_restore x prefix =
  let twin = x.fresh () in
  let invalidate () = Pmem.Cache.invalidate (Pmem.Region.cache twin) in
  List.iter
    (function Some op -> x.apply twin op | None -> invalidate ())
    (List.rev prefix);
  invalidate ();
  x.twin <- twin;
  x.timeline <- None :: prefix

let restore_free prefix = List.for_all Option.is_some prefix

let snapshot_tests =
  let open Pmem in
  (* One random PM operation; a crash carries its survival seed, so the
     twin draws the same coins. *)
  let gen_op rng cap =
    match Random.State.int rng 100 with
    | n when n < 55 ->
        let off = Random.State.int rng cap in
        `Store (off, Random.State.int rng 1_000_000)
    | n when n < 75 -> `Clwb (Random.State.int rng cap)
    | n when n < 88 -> `Sfence
    | n when n < 96 ->
        let mode =
          match Random.State.int rng 3 with
          | 0 -> Region.Drop_inflight
          | 1 -> Region.Keep_inflight
          | _ -> Region.Randomize
        in
        `Crash (mode, Random.State.int rng 1_000_000)
    | _ -> `Grow (cap + (Config.words_per_line * (1 + Random.State.int rng 4)))
  in
  let apply r = function
    | `Store (off, v) -> Region.store r off (Word.of_int v)
    | `Clwb off -> Region.clwb r off
    | `Sfence -> Region.sfence r
    | `Crash (mode, seed) -> Region.crash ~mode ~seed r
    | `Grow n -> Region.ensure_capacity r n
  in
  [
    Alcotest.test_case "journaled restore == re-execution" `Quick (fun () ->
        (* a journaled region has the image of a twin fed the same
           store/clwb/sfence/crash/grow sequence after every crash and
           every (possibly stacked) snapshot/restore *)
        let rng = Random.State.make [| 0xC0FFEE |] in
        for _trial = 1 to 40 do
          let region () = Region.create ~capacity_words:256 ~seed:7 () in
          let r = region () in
          let x = reexec region apply in
          let same what =
            Alcotest.(check bool) ("images equal " ^ what) true
              (Region.images_equal r x.twin)
          in
          let restore snap prefix what =
            Region.restore r snap;
            reexec_restore x prefix;
            same what;
            (* a trial's snapshots precede its restores, so no replayed
               prefix holds a restore and the clocks agree too *)
            Alcotest.(check (float 0.))
              ("sim clocks agree " ^ what) (Region.stats x.twin).Stats.now_ns
              (Region.stats r).Stats.now_ns
          in
          let steps () =
            for _ = 1 to 25 do
              let op = gen_op rng (Region.capacity_words r) in
              apply r op;
              reexec_op x op;
              match op with `Crash _ -> same "after a crash" | _ -> ()
            done
          in
          steps ();
          let outer = Region.snapshot r and outer_prefix = x.timeline in
          steps ();
          (if Random.State.bool rng then begin
             (* stacked: restore an inner snapshot before the outer one *)
             let inner = Region.snapshot r and inner_prefix = x.timeline in
             steps ();
             restore inner inner_prefix "after inner restore"
           end);
          restore outer outer_prefix "after restore"
        done);
    Alcotest.test_case "restore after growth rewinds capacity, zeroes tail"
      `Quick (fun () ->
        let r = Region.create ~capacity_words:256 () in
        Region.store r 10 (Word.of_int 5);
        Region.clwb r 10;
        Region.sfence r;
        let snap = Region.snapshot r in
        let cap0 = Region.capacity_words r in
        Region.ensure_capacity r 1024;
        Region.store r 900 (Word.of_int 77);
        Region.clwb r 900;
        Region.sfence r;
        Region.restore r snap;
        Alcotest.(check int) "capacity rewound" cap0 (Region.capacity_words r);
        Alcotest.(check int)
          "pre-growth data intact" 5
          (Word.to_int (Region.peek_current r 10));
        (* growing again must expose zeroed words, not stale ones *)
        Region.ensure_capacity r 1024;
        Alcotest.(check int)
          "grown tail zeroed (current)" 0
          (Word.bits (Region.peek_current r 900));
        Alcotest.(check int)
          "grown tail zeroed (durable)" 0
          (Word.bits (Region.peek_durable r 900)));
    Alcotest.test_case "restore pins stats across crash sampling" `Quick
      (fun () ->
        (* the Stats.t fix: sweep timing used to drift because restore
           left the clock and counters where the sampled crash pushed
           them *)
        let r = Region.create ~capacity_words:256 () in
        Region.store r 0 (Word.of_int 1);
        Region.clwb r 0;
        Region.sfence r;
        let s = Region.stats r in
        let ns0 = s.Stats.now_ns in
        let fences0 = s.Stats.fences in
        let snap = Region.snapshot r in
        Region.store r 8 (Word.of_int 2);
        Region.clwb r 8;
        Region.sfence r;
        Region.crash r;
        Alcotest.(check bool)
          "clock advanced before restore" true
          ((Region.stats r).Stats.now_ns > ns0);
        Region.restore r snap;
        Alcotest.(check (float 1e-9))
          "now_ns rewound" ns0 (Region.stats r).Stats.now_ns;
        Alcotest.(check int)
          "fences rewound" fences0 (Region.stats r).Stats.fences);
    Alcotest.test_case "journal records first touch per line only" `Quick
      (fun () ->
        let r = Region.create ~capacity_words:256 () in
        let _snap = Region.snapshot r in
        Alcotest.(check int) "empty journal" 0 (Region.journal_entries r);
        Region.store r 0 (Word.of_int 1);
        Region.store r 1 (Word.of_int 2);
        Region.store r 2 (Word.of_int 3);
        Alcotest.(check int)
          "same line journaled once" 1
          (Region.journal_entries r);
        Region.store r Config.words_per_line (Word.of_int 4);
        Alcotest.(check int)
          "second line adds one entry" 2
          (Region.journal_entries r));
    Alcotest.test_case "restoring a stale journal token raises" `Quick
      (fun () ->
        let r = Region.create ~capacity_words:256 () in
        let outer = Region.snapshot r in
        Region.store r 0 (Word.of_int 1);
        let inner = Region.snapshot r in
        Region.restore r outer;
        Alcotest.check_raises "stale token"
          (Invalid_argument
             "Region.restore: stale journaled snapshot (journal truncated \
              below it)") (fun () -> Region.restore r inner));
  ]

(* One step of a random region trace; offsets wrap at the capacity,
   which [`Grow] doubles up to [max_cap]. *)
let region_step ~max_cap r op =
  let open Pmem in
  let cap = Region.capacity_words r in
  match op with
  | `Fase w ->
      Region.store r (w mod cap) (Word.of_int w);
      Region.clwb r (w mod cap);
      Region.sfence r
  | `Store w -> Region.store r (w mod cap) (Word.of_int w)
  | `Clwb w -> Region.clwb r (w mod cap)
  | `Sfence -> Region.sfence r
  | `Evict w ->
      (* fill [w]'s L1D set with other lines: evicts its whole set *)
      let line = Region.line_of_word (w mod cap) in
      for k = 1 to Config.l1d_ways do
        let off = (line + (k * Config.l1d_sets)) lsl Config.line_shift in
        if off < cap then ignore (Region.load r off : Word.t)
      done
  | `Corrupt w -> Region.corrupt_word r (w mod cap)
  | `Crash (m, seed) ->
      let mode, torn =
        match m with
        | 0 -> (Region.Drop_inflight, false)
        | 1 -> (Region.Keep_inflight, false)
        | 2 -> (Region.Randomize, false)
        | _ -> (Region.Randomize, true)
      in
      Region.crash ~mode ~seed ~torn r
  | `Grow -> if cap < max_cap then Region.ensure_capacity r (2 * cap)

(* The crash worklist against the line states, over random traces of
   stores, FASEs (store, clwb, sfence), stray clwbs and fences, evicting
   loads, snapshots, restores, growth and crashes (every mode, plus
   torn), run on a journaled region and its re-executed twin.  After
   every step each region's worklist must list each Dirty or Flushing
   line exactly once and stay within a constant factor of the most
   non-Clean lines seen.  The worklist is the region's pre-image slots,
   one per non-Clean line, so it holds exactly those lines and never
   needs trimming; the factor of 4 (at least 64 lines) is a loose
   ceiling on that.  After a crash every line must be
   durable; after every crash and restore the twin must hold the same
   image, and the same sim clock where its replayed prefix holds no
   earlier restore. *)
let worklist_tests =
  let open Pmem in
  let op_gen =
    QCheck.Gen.(
      frequency
        [
          (40, map (fun w -> `Fase w) nat);
          (6, map (fun w -> `Store w) nat);
          (6, map (fun w -> `Clwb w) nat);
          (4, return `Sfence);
          (5, map (fun w -> `Evict w) nat);
          (2, return `Snapshot);
          (2, map (fun i -> `Restore i) (int_bound 3));
          (1, map2 (fun m s -> `Crash (m, s)) (int_bound 3) nat);
          (1, return `Grow);
        ])
  in
  let step = region_step ~max_cap:(1 lsl 15) in
  let sound r ~peak ~crashed =
    let dirty = Region.dirty_lines r in
    let listed = Region.crash_worklist r in
    let unique = List.sort_uniq compare listed in
    let rec covers d u =
      match (d, u) with
      | [], _ -> true
      | _, [] -> false
      | x :: d', y :: u' ->
          if x = y then covers d' u' else if x > y then covers d u' else false
    in
    peak := max !peak (List.length dirty);
    List.length unique = List.length listed
    && covers dirty unique
    && List.length listed <= max 64 (4 * !peak)
    && ((not crashed)
       || dirty = []
          && List.for_all
               (Region.is_durable_line r)
               (List.init
                  (Region.capacity_words r / Config.words_per_line)
                  Fun.id))
  in
  let region () = Region.create ~capacity_words:8192 ~seed:3 () in
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"crash worklist lists every dirty line (qcheck)" ~count:60
         (QCheck.make QCheck.Gen.(list_size (int_range 1 500) op_gen))
         (fun ops ->
           let r = region () in
           let x = reexec region step in
           (* live snapshots, newest first, with the twin's timeline *)
           let snaps = ref [] in
           let pr = ref 0 and px = ref 0 in
           List.for_all
             (fun op ->
               let crashed = match op with `Crash _ -> true | _ -> false in
               let compare_images, compare_clocks =
                 match op with
                 | `Snapshot ->
                     snaps := (Region.snapshot r, x.timeline) :: !snaps;
                     (false, false)
                 | `Restore i -> (
                     (* restoring a snapshot retires every newer one *)
                     match List.filteri (fun j _ -> j >= i) !snaps with
                     | [] -> (false, false)
                     | (snap, prefix) :: _ as rest ->
                         Region.restore r snap;
                         reexec_restore x prefix;
                         snaps := rest;
                         (true, restore_free prefix))
                 | ( `Fase _ | `Store _ | `Clwb _ | `Sfence | `Evict _
                   | `Crash _ | `Grow ) as op ->
                     step r op;
                     reexec_op x op;
                     (crashed, false)
               in
               sound r ~peak:pr ~crashed
               && sound x.twin ~peak:px ~crashed
               && ((not compare_images) || Region.images_equal r x.twin)
               && ((not compare_clocks)
                  || (Region.stats r).Stats.now_ns
                     = (Region.stats x.twin).Stats.now_ns))
             ops));
    Alcotest.test_case "crash worklist stays bounded without crashes" `Quick
      (fun () ->
        let r = Region.create ~capacity_words:(1 lsl 16) () in
        (* 100 lines stay dirty throughout, as in a Backup heap *)
        for line = 0 to 99 do
          Region.store r (line lsl Config.line_shift) (Word.of_int 1)
        done;
        for i = 0 to 20_000 do
          let off = (100 + (i mod 8000)) lsl Config.line_shift in
          Region.store r off (Word.of_int i);
          Region.clwb r off;
          Region.sfence r;
          let n = List.length (Region.crash_worklist r) in
          if n > 2 * 101 then
            Alcotest.failf "worklist holds %d lines after FASE %d" n i
        done);
  ]

(* Words the program allocated while [f] ran (minor + major - promoted:
   each word once, wherever it was first allocated).  A minor collection
   first brings the counters up to date. *)
let words_allocated f =
  let words () =
    Gc.minor ();
    let s = Gc.quick_stat () in
    s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words
  in
  let before = words () in
  let x = f () in
  (words () -. before, x)

(* A simulated machine costs what a run touches: a cache set owns ways
   from its first fill, and a region's arrays cover a prefix that grows
   on the first mutation past it.  Past the prefix a word reads 0 and
   its line is Clean, so a region with a larger prefix must hold the
   same logical image: [materialize] grows a twin's prefix to the whole
   capacity (two [corrupt_word]s cancel, and bypass the caches and the
   stats), and the twin must then agree with the lazy region on every
   image, dirty line, listed line and clock, whatever the trace does
   past the prefix.  The worklists compare as sets: the twin's
   [corrupt_word]s add journal records, so a restore lists lines in
   another order. *)
let lazy_tests =
  let open Pmem in
  let materialize r =
    let last = Region.capacity_words r - 1 in
    Region.corrupt_word r last;
    Region.corrupt_word r last
  in
  let last_line r = Region.line_of_word (Region.capacity_words r - 1) in
  let temp_image () = Filename.temp_file "mod_test_pmem" ".img" in
  let cleanup path =
    List.iter
      (fun p -> if Sys.file_exists p then Sys.remove p)
      [ path; path ^ ".journal" ]
  in
  (* offsets near the prefix's doubling points, and anywhere *)
  let off_gen =
    QCheck.Gen.(
      frequency
        [
          ( 2,
            map2
              (fun k d -> max 0 ((4096 lsl k) + d - 32))
              (int_bound 4) (int_bound 63) );
          (1, nat);
        ])
  in
  let op_gen =
    QCheck.Gen.(
      frequency
        [
          (12, map (fun w -> `Store w) off_gen);
          (4, map (fun w -> `Fase w) off_gen);
          (4, map (fun w -> `Clwb w) off_gen);
          (2, return `Sfence);
          (3, map (fun w -> `Evict w) off_gen);
          (2, map (fun w -> `Corrupt w) off_gen);
          (2, return `Snapshot);
          (2, map (fun i -> `Restore i) (int_bound 3));
          (1, map2 (fun m s -> `Crash (m, s)) (int_bound 3) nat);
          (1, return `Grow);
        ])
  in
  let step = region_step ~max_cap:(1 lsl 16) in
  [
    Alcotest.test_case "heap construction allocates <100k words" `Quick
      (fun () ->
        List.iter
          (fun capacity_words ->
            let words, heap =
              words_allocated (fun () -> Pmalloc.Heap.create ~capacity_words ())
            in
            ignore (Sys.opaque_identity heap);
            if words >= 100_000. then
              Alcotest.failf "Heap.create at %d words allocated %.0f words"
                capacity_words words)
          [ 1 lsl 14; 1 lsl 20; 1 lsl 24 ]);
    Alcotest.test_case "a load at the end of 16M words allocates <10k words"
      `Quick (fun () ->
        (* the three caches' way index pages in the line it fills, and
           their page tables: a dense byte per line would be 786k words *)
        let r = Region.create ~capacity_words:(1 lsl 24) () in
        let last = Region.capacity_words r - 1 in
        let words, w = words_allocated (fun () -> Region.load r last) in
        Alcotest.(check int) "zero" 0 (Word.bits w);
        if words >= 10_000. then
          Alcotest.failf "one load allocated %.0f words" words);
    Alcotest.test_case "reads past the prefix see zero, grow nothing" `Quick
      (fun () ->
        let r = Region.create () in
        let last = Region.capacity_words r - 1 in
        let words, reads =
          words_allocated (fun () ->
              List.map
                (fun read -> Word.bits (read r last))
                [
                  Region.load; Region.durable_load; Region.peek_current;
                  Region.peek_durable;
                ])
        in
        Alcotest.(check (list int)) "all zero" [ 0; 0; 0; 0 ] reads;
        if words > 1000. then
          Alcotest.failf "four reads allocated %.0f words" words;
        (* the first store there does grow the prefix, one image of the
           whole capacity *)
        let grown, () =
          words_allocated (fun () -> Region.store r last (Word.of_int 1))
        in
        if grown < float_of_int (Region.capacity_words r) then
          Alcotest.failf "the store allocated only %.0f words" grown);
    Alcotest.test_case "clwb of a never-written line" `Quick (fun () ->
        let r = Region.create () in
        let line = last_line r in
        let off = line lsl Config.line_shift in
        let events = Region.pm_events r in
        Region.clwb r off;
        Alcotest.(check int) "one PM event" (events + 1) (Region.pm_events r);
        Alcotest.(check int) "nothing in flight" 0 (Region.inflight r);
        Alcotest.(check (list int)) "line Clean" [] (Region.dirty_lines r);
        Alcotest.(check bool) "durable" true (Region.is_durable_line r line));
    Alcotest.test_case "media faults past the prefix" `Quick (fun () ->
        let r = Region.create () in
        let line = last_line r in
        Region.arm_media_fault r ~line;
        Alcotest.check_raises "load faults"
          (Region.Media_fault { off = line lsl Config.line_shift })
          (fun () -> ignore (Region.load r (line lsl Config.line_shift)));
        Alcotest.check_raises "line past the capacity"
          (Invalid_argument
             (Printf.sprintf "Region.arm_media_fault: line %d out of bounds"
                (line + 1)))
          (fun () -> Region.arm_media_fault r ~line:(line + 1)));
    Alcotest.test_case "equal images, different prefixes" `Quick (fun () ->
        let a = Region.create ~seed:5 () and b = Region.create ~seed:5 () in
        materialize b;
        Alcotest.(check bool) "equal" true (Region.images_equal a b);
        Region.store b (Region.capacity_words b - 1) (Word.of_int 1);
        Alcotest.(check bool) "a store tells them apart" false
          (Region.images_equal a b));
    Alcotest.test_case "restore rewinds a store past the prefix" `Quick
      (fun () ->
        let r = Region.create () in
        let snap = Region.snapshot r in
        let far = Region.capacity_words r - 3 in
        Region.store r far (Word.of_int 9);
        Region.clwb r far;
        Region.sfence r;
        Region.restore r snap;
        Alcotest.(check bool) "fresh image" true
          (Region.images_equal r (Region.create ())));
    Alcotest.test_case "restore below a growth, then regrowth, reads zeros"
      `Quick (fun () ->
        (* a partial last line: its tail lies in the prefix but past the
           capacity, and a store reaches it only after the growth *)
        let r = Region.create ~capacity_words:(4096 + 1001) () in
        let cap = Region.capacity_words r in
        Region.store r (cap - 1) (Word.of_int 1);
        let snap = Region.snapshot r in
        Region.store r (cap - 1) (Word.of_int 2);
        Region.ensure_capacity r (4 * cap);
        let offs = [ cap; cap + 6; (3 * cap) + 5 ] in
        List.iter (fun off -> Region.store r off (Word.of_int 3)) offs;
        Region.clwb_range r cap (3 * cap);
        Region.sfence r;
        Region.restore r snap;
        Alcotest.(check int) "capacity rewound" cap (Region.capacity_words r);
        Alcotest.(check int) "last word rewound" 1
          (Word.to_int (Region.peek_current r (cap - 1)));
        Region.ensure_capacity r (4 * cap);
        List.iter
          (fun off ->
            Alcotest.(check (pair int int))
              (Printf.sprintf "word %d zero" off)
              (0, 0)
              ( Word.bits (Region.peek_current r off),
                Word.bits (Region.peek_durable r off) ))
          offs);
    Alcotest.test_case "file image written past the prefix reopens" `Quick
      (fun () ->
        let path = temp_image () in
        Fun.protect
          ~finally:(fun () -> cleanup path)
          (fun () ->
            let r = Region.create ~capacity_words:(1 lsl 16) ~file:path () in
            let offs = [ 5; 4100; 40_000; (1 lsl 16) - 1 ] in
            List.iter (fun off -> Region.store r off (Word.of_int off)) offs;
            List.iter (Region.clwb r) offs;
            Region.sfence r;
            Region.close_file r;
            let r', _ = Region.open_file ~path () in
            Fun.protect
              ~finally:(fun () -> Region.close_file r')
              (fun () ->
                Alcotest.(check int) "capacity" (1 lsl 16)
                  (Region.capacity_words r');
                List.iter
                  (fun off ->
                    Alcotest.(check int)
                      (Printf.sprintf "word %d" off)
                      off
                      (Word.to_int (Region.load r' off)))
                  offs)));
    (* A file-backed region hashes its fresh image line by line from one
       shared zero line: what it allocates is the per-line hash table
       (one word per line), not a capacity-sized zero image. *)
    Alcotest.test_case "file-backed construction allocates <2.5M words"
      `Quick (fun () ->
        let path = temp_image () in
        Fun.protect
          ~finally:(fun () -> cleanup path)
          (fun () ->
            let words, r =
              words_allocated (fun () ->
                  Region.create ~capacity_words:(1 lsl 24) ~file:path ())
            in
            Region.close_file r;
            if words >= 2_500_000. then
              Alcotest.failf "a 16M-word file region allocated %.0f words"
                words));
    Alcotest.test_case "a fresh image's checksum is a zero image's" `Quick
      (fun () ->
        (* 1,000 words is a whole number of lines; 1,003 ends ragged *)
        List.iter
          (fun cap ->
            let path = temp_image () in
            Fun.protect
              ~finally:(fun () -> cleanup path)
              (fun () ->
                Backing.close (Backing.create ~path ~capacity_words:cap ());
                let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
                let capacity, stored =
                  Fun.protect
                    ~finally:(fun () -> Unix.close fd)
                    (fun () -> Backing.read_header ~path fd)
                in
                Alcotest.(check int) "capacity" cap capacity;
                Alcotest.(check int)
                  (Printf.sprintf "checksum at %d words" cap)
                  (Backing.checksum_of (Array.make cap 0) cap)
                  stored))
          [ 1000; 1003 ]);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"lazy region == materialized twin (qcheck)"
         ~count:40
         (QCheck.make QCheck.Gen.(list_size (int_range 1 200) op_gen))
         (fun ops ->
           let region () =
             Region.create ~capacity_words:(1 lsl 14) ~seed:3 ()
           in
           let r = region () and e = region () in
           materialize e;
           (* live snapshots of both, newest first *)
           let snaps = ref [] in
           List.for_all
             (fun op ->
               (match op with
               | `Snapshot ->
                   snaps := (Region.snapshot r, Region.snapshot e) :: !snaps
               | `Restore i -> (
                   match List.filteri (fun j _ -> j >= i) !snaps with
                   | [] -> ()
                   | (sr, se) :: _ as rest ->
                       Region.restore r sr;
                       Region.restore e se;
                       snaps := rest)
               | `Grow ->
                   let cap = Region.capacity_words e in
                   step r `Grow;
                   step e `Grow;
                   if Region.capacity_words e > cap then materialize e
               | ( `Store _ | `Fase _ | `Clwb _ | `Sfence | `Evict _
                 | `Corrupt _ | `Crash _ ) as op ->
                   step r op;
                   step e op);
               let listed x = List.sort compare (Region.crash_worklist x) in
               Region.images_equal r e
               && Region.dirty_lines r = Region.dirty_lines e
               && listed r = listed e
               && (Region.stats r).Stats.now_ns = (Region.stats e).Stats.now_ns)
             ops));
  ]

(* Line runs: each kernel ([Region.blit], [fill], [scan]) against its
   per-word loop on a twin region.  A case builds both regions alike: a
   capacity that may end mid-line, a starting clock and phase sums whose
   low bits an n×ns sum would round differently, and a history of
   stores, loads, clwbs, fences and loads that fill the L1 set of the
   kernel's first line with other lines (so the head's fill evicts).  It
   arms one of: nothing, a snapshot, a capture at stride 1-3 (whose
   [on_point] may invalidate the L1, so a run finds its lines gone from
   the way memo), a crash budget, tracing, an event hook (plain, or
   suspended by [atomic]) or a media fault on the source line; then it
   runs the kernel in a random phase over offsets near line and
   capacity boundaries, with a callback that may raise, and probes loads
   and stores afterwards (after a crash when the budget fired).  The
   twins must agree bit for bit on the outcome and the event it came at,
   the callback's calls, [images_equal], every [Stats] field (floats by
   their bits), PM events, journal length, hook calls, trace, probe
   results, and each captured point, applied one by one after a restore
   to the snapshot taken before the capture. *)
type run_kernel =
  | Blit of int * int * int (* src, dst, len *)
  | Fill of int * int (* dst, len *)
  | Scan of int * int * int (* off, len, the word that stops it *)

type run_arm =
  | Plain
  | Snapshot
  | Capture of int
  | Capture_invalidate of int
  | Crash_after of int
  | Traced
  | Hook
  | Hook_atomic
  | Media

type run_case = {
  cap : int;
  clock : float;
  history :
    [ `Store of int * int | `Load of int | `Clwb of int | `Fence | `Conflict ] list;
  arm : run_arm;
  phase : Pmem.Stats.phase;
  kernel : run_kernel;
  raise_at : int; (* the callback call that raises [Exit], or -1 *)
  probe : [ `Load of int | `Store of int ] list;
}

let show_case c =
  let kernel =
    match c.kernel with
    | Blit (s, d, n) -> Printf.sprintf "blit %d->%d x%d" s d n
    | Fill (d, n) -> Printf.sprintf "fill %d x%d" d n
    | Scan (o, n, w) -> Printf.sprintf "scan %d x%d until %d" o n w
  in
  let arm =
    match c.arm with
    | Plain -> "plain"
    | Snapshot -> "snapshot"
    | Capture s -> Printf.sprintf "capture %d" s
    | Capture_invalidate s -> Printf.sprintf "capture %d, invalidating L1" s
    | Crash_after n -> Printf.sprintf "crash after %d" n
    | Traced -> "traced"
    | Hook -> "hook"
    | Hook_atomic -> "hook in atomic"
    | Media -> "media fault"
  in
  Printf.sprintf "cap %d clock %h, %d history ops, %s, %s, raise at %d" c.cap
    c.clock (List.length c.history) arm kernel c.raise_at

let gen_run_case =
  let open QCheck.Gen in
  let wpl = Pmem.Config.words_per_line in
  frequency [ (4, int_range 64 300); (1, return 4096); (1, return 8192) ]
  >>= fun cap ->
  (* mostly inside the capacity, some ranges run past it, and some
     cross the end of the region's initial prefix (4,096 words), past
     which a word reads 0 until its line is first written *)
  let off =
    frequency
      [
        (6, map2 (fun l k -> (l * wpl) + k) (int_bound ((cap / wpl) - 1))
              (int_bound (wpl - 1)));
        (1, map (fun d -> cap - 1 - d) (int_bound 20));
        (1, map (fun d -> 4096 - 20 + d) (int_bound 40));
      ]
    >|= fun o -> Int.max 0 (Int.min o (cap - 1))
  in
  let len = frequency [ (5, int_bound 24); (2, int_range 25 70) ] in
  oneofl
    [ 0.; 0.1; 4503599627370496.5 (* 2^52 + 1/2 *);
      9007199254740990. (* 2^53 - 2 *); 1e17 ]
  >>= fun clock ->
  list_size (int_bound 30)
    (frequency
       [
         (5, map2 (fun o v -> `Store (o, v)) off (int_range 1 20));
         (3, map (fun o -> `Load o) off);
         (2, map (fun o -> `Clwb o) off);
         (1, return `Fence);
         (1, return `Conflict);
       ])
  >>= fun history ->
  frequency
    [
      (3, return Plain); (1, return Snapshot);
      (3, map (fun s -> Capture s) (int_range 1 3));
      (2, map (fun s -> Capture_invalidate s) (int_range 1 3));
      (3, map (fun n -> Crash_after n) (int_range 1 40));
      (1, return Traced); (1, return Hook); (2, return Hook_atomic);
      (1, return Media);
    ]
  >>= fun arm ->
  oneofl [ Pmem.Stats.Other; Pmem.Stats.Log; Pmem.Stats.Flush ] >>= fun phase ->
  frequency
    [
      ( 3,
        map3
          (fun s d n -> Blit (s, d, n))
          off
          (frequency
             [ (2, off); (1, map2 ( + ) off (int_range (-9) 9)) ]
          >|= fun d -> Int.max 0 d)
          len );
      (2, map2 (fun d n -> Fill (d, n)) off len);
      ( 2,
        map3
          (fun o n v -> Scan (o, n, Pmem.Word.bits (Pmem.Word.of_int v)))
          off len (int_bound 20) );
    ]
  >>= fun kernel ->
  frequency [ (4, return (-1)); (1, int_bound 30) ] >>= fun raise_at ->
  list_size (int_bound 24)
    (frequency [ (3, map (fun o -> `Load o) off); (1, map (fun o -> `Store o) off) ])
  >|= fun probe ->
  { cap; clock; history; arm; phase; kernel; raise_at; probe }

let stats_bits s =
  let open Pmem.Stats in
  let f x = Int64.to_int (Int64.bits_of_float x) in
  [
    f s.now_ns; f s.ns_flush; f (ns_log s); f (ns_other s); s.loads; s.stores;
    s.l1_hits; s.l1_misses; s.clwbs; s.fences; s.lines_drained; s.log_writes;
    s.commits;
    (match s.cur_phase with Flush -> 0 | Log -> 1 | Other -> 2);
    s.file_commits; s.file_lines; s.file_fsyncs;
  ]

(* Everything a point rebuilds: both images, the line states, the
   in-flight count and the stats. *)
let region_fingerprint r =
  let open Pmem in
  let cap = Region.capacity_words r in
  ( Array.init (2 * cap) (fun i ->
        Word.bits
          (if i < cap then Region.peek_current r i
           else Region.peek_durable r (i - cap))),
    Region.dirty_lines r,
    [ Region.inflight r; cap ] @ stats_bits (Region.stats r) )

type run_ctx = { mutable calls : int list; raise_at : int; stop : int }

let count_call ctx v =
  if List.length ctx.calls = ctx.raise_at then raise Exit;
  ctx.calls <- v :: ctx.calls

let blit_cb ctx w = count_call ctx (Pmem.Word.bits w)

let fill_cb ctx i =
  count_call ctx i;
  Pmem.Word.of_int (1000 + i)

let scan_cb ctx w =
  count_call ctx (Pmem.Word.bits w);
  Pmem.Word.bits w = ctx.stop

(* The per-word loops the kernels stand for. *)
let blit_words r ~src ~dst ~len f x =
  for i = 0 to len - 1 do
    let w = Pmem.Region.load r (src + i) in
    f x w;
    Pmem.Region.store r (dst + i) w
  done

let fill_words r ~dst ~len f x =
  for i = 0 to len - 1 do
    Pmem.Region.store r (dst + i) (f x i)
  done

let scan_words r ~off ~len f x =
  let rec go i =
    if i >= len then len else if f x (Pmem.Region.load r (off + i)) then i
    else go (i + 1)
  in
  go 0

(* Run case [c] with the kernels ([~kernels:true]) or the per-word
   loops; returns the region, what the run observed, and a replay of the
   captured points. *)
let run_line_case c ~kernels =
  let open Pmem in
  let r = Region.create ~capacity_words:c.cap ~seed:5 ~trace:(c.arm = Traced) () in
  let first =
    match c.kernel with Blit (s, _, _) -> s | Fill (d, _) -> d | Scan (o, _, _) -> o
  in
  (* words a set's lines lie apart in the L1 *)
  let set_span = Config.l1d_sets * Config.words_per_line in
  let st = Region.stats r in
  st.Stats.now_ns <- c.clock;
  st.Stats.ns_flush <- c.clock;
  Float.Array.fill st.Stats.phase_ns 0 2 c.clock;
  List.iter
    (function
      | `Store (o, v) -> Region.store r o (Word.of_int v)
      | `Load o -> ignore (Region.load r o : Word.t)
      | `Clwb o -> Region.clwb r o
      | `Fence -> Region.sfence r
      | `Conflict ->
          for k = 1 to Config.l1d_ways do
            ignore (Region.load r ((first + (k * set_span)) mod c.cap) : Word.t)
          done)
    c.history;
  let hook_calls = ref [] in
  let hook () = hook_calls := Region.pm_events r :: !hook_calls in
  let points = ref 0 in
  let snap =
    match c.arm with
    | Snapshot -> Some (Region.snapshot r)
    | Capture stride ->
        let snap = Region.snapshot r in
        Region.capture r ~stride (fun () -> incr points);
        Some snap
    | Capture_invalidate stride ->
        let snap = Region.snapshot r in
        Region.capture r ~stride (fun () ->
            incr points;
            Cache.invalidate (Region.cache r));
        Some snap
    | Crash_after n ->
        Region.set_crash_after r n;
        None
    | Hook | Hook_atomic ->
        Region.set_event_hook r (Some hook);
        None
    | Media ->
        Region.arm_media_fault r ~line:(Region.line_of_word first);
        None
    | Plain | Traced -> None
  in
  let stop = match c.kernel with Scan (_, _, w) -> w | Blit _ | Fill _ -> 0 in
  let ctx = { calls = []; raise_at = c.raise_at; stop } in
  let kernel () =
    match c.kernel with
    | Blit (src, dst, len) ->
        if kernels then Region.blit r ~src ~dst ~len blit_cb ctx
        else blit_words r ~src ~dst ~len blit_cb ctx;
        -1
    | Fill (dst, len) ->
        if kernels then Region.fill r ~dst ~len fill_cb ctx
        else fill_words r ~dst ~len fill_cb ctx;
        -1
    | Scan (off, len, _) ->
        if kernels then Region.scan r ~off ~len scan_cb ctx
        else scan_words r ~off ~len scan_cb ctx
  in
  let in_arm () = if c.arm = Hook_atomic then Region.atomic r kernel else kernel () in
  let outcome =
    match Stats.in_phase st c.phase in_arm with
    | v -> Ok v
    | exception e -> Error (Printexc.to_string e, Region.pm_events r)
  in
  (match outcome with
  | Error (e, _) when e = Printexc.to_string Region.Crash_point ->
      Region.crash ~mode:Region.Randomize ~seed:11 r
  | Ok _ | Error _ -> ());
  let probe =
    List.map
      (fun op ->
        match
          match op with
          | `Load o -> Word.bits (Region.load r o)
          | `Store o ->
              Region.store r o (Word.of_int 7);
              0
        with
        | v -> Ok v
        | exception e -> Error (Printexc.to_string e))
      c.probe
  in
  let captured =
    match c.arm with
    | Capture _ | Capture_invalidate _ -> Region.captured r
    | _ -> [||]
  in
  let replay () =
    match snap with
    | Some snap when Array.length captured > 0 ->
        Region.restore r snap;
        Array.to_list
          (Array.map
             (fun p ->
               Region.apply_point r p;
               region_fingerprint r)
             captured)
    | _ -> []
  in
  ( r,
    ( outcome,
      ctx.calls,
      !hook_calls,
      Trace.to_list (Region.trace r),
      probe,
      (!points, Array.length captured) ),
    replay )

let line_run_tests =
  let open Pmem in
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"line runs == per-word loops (qcheck)" ~count:800
         (QCheck.make ~print:show_case gen_run_case)
         (fun c ->
           let a, obs_a, replay_a = run_line_case c ~kernels:true in
           let b, obs_b, replay_b = run_line_case c ~kernels:false in
           let same =
             obs_a = obs_b
             && Region.images_equal a b
             && stats_bits (Region.stats a) = stats_bits (Region.stats b)
             && Region.pm_events a = Region.pm_events b
             && Region.journal_entries a = Region.journal_entries b
           in
           same && replay_a () = replay_b ()));
    Alcotest.test_case "line runs allocate one clock box per run" `Quick
      (fun () ->
        (* [now_ns] is boxed: a head access through [load]/[store] pays
           its box, and the rest of its line one box for the run's sums,
           where the per-word loop pays one per access *)
        let r = Region.create ~capacity_words:4096 () in
        let wpl = Config.words_per_line in
        let len = 64 in
        let lines = len / wpl in
        Region.fill r ~dst:0 ~len:1024 (fun () i -> Word.of_int i) ();
        let words f =
          let before = Gc.minor_words () in
          f ();
          Gc.minor_words () -. before
        in
        let box = 2. in
        let check name ~heads f =
          (* warm twice: the first call may claim cache ways *)
          f ();
          f ();
          let w = words f in
          let bound = box *. float_of_int (lines * (heads + 1)) in
          if w > bound then
            Alcotest.failf "%s of %d words allocated %.0f words (bound %.0f)"
              name len w bound;
          bound
        in
        let blit () = Region.blit r ~src:128 ~dst:512 ~len (fun () _ -> ()) () in
        let bound = check "blit" ~heads:2 blit in
        ignore
          (check "fill" ~heads:1 (fun () ->
               Region.fill r ~dst:512 ~len (fun () i -> Word.of_int i) ())
            : float);
        ignore
          (check "scan" ~heads:1 (fun () ->
               ignore (Region.scan r ~off:128 ~len (fun () _ -> false) () : int))
            : float);
        (* the per-word loop pays a box per access and fails the bound *)
        let loop =
          words (fun () ->
              blit_words r ~src:128 ~dst:512 ~len (fun () _ -> ()) ())
        in
        if loop <= bound then
          Alcotest.failf "the per-word blit allocated only %.0f words" loop);
    Alcotest.test_case "releasing a node with shared children allocates only \
                        clock boxes" `Quick (fun () ->
        let open Pmalloc in
        let heap = Heap.create () in
        let child = Heap.alloc heap ~kind:Block.Scanned ~words:2 in
        let len = 64 in
        let lines = len / Config.words_per_line in
        let node () =
          let n = Heap.alloc heap ~kind:Block.Scanned ~words:len in
          for i = 0 to len - 1 do
            Heap.retain heap child;
            Heap.store heap (n + i) (Word.of_ptr child)
          done;
          n
        in
        (* warm the deferral buffer and the caches once *)
        Heap.release heap (node ());
        let n = node () in
        ignore (Heap.load heap n : Word.t);
        let before = Gc.minor_words () in
        Heap.release heap n;
        let w = Gc.minor_words () -. before in
        (* the node's body is not line-aligned: at most one more run *)
        let bound = 2. *. float_of_int (2 * (lines + 1)) in
        if w > bound then
          Alcotest.failf "release allocated %.0f words (bound %.0f)" w bound;
        Alcotest.(check int) "children stay live" 1
          (Allocator.rc_get (Heap.allocator heap) child));
  ]

(* Golden pin: every simulated clock and counter of one fixed-seed map
   run, crash and recovery, recorded exactly.  Host-side work on the
   per-word path (cache lookups, refcounts) must leave each simulated
   event bit-identical.  A dropped eviction writeback, for one, moves
   these numbers while every output check still passes. *)
let golden_run () =
  let module M = Mod_core.Dmap.Make (Pfds.Kv.Int) (Pfds.Kv.Int) in
  (* odd multiplier mod 2^20: distinct, scattered keys *)
  let key i = i * 40503 land 0xFFFFF in
  let heap = Pmalloc.Heap.create () in
  let map = M.open_or_create heap ~slot:0 in
  for i = 0 to 19_999 do
    M.insert map (key i) i
  done;
  let rng = Random.State.make [| 12 |] in
  for _ = 1 to 2_000 do
    M.insert map (key (Random.State.int rng 40_000)) (Random.State.bits rng)
  done;
  let hits = ref 0 in
  for _ = 1 to 2_000 do
    if M.find map (key (Random.State.int rng 40_000)) <> None then incr hits
  done;
  Pmalloc.Heap.crash ~mode:Pmem.Region.Randomize ~seed:7 heap;
  let report = Mod_core.Recovery.recover_exn heap in
  let s = Pmalloc.Heap.stats heap in
  ( [
      ("now_ns bits", Int64.bits_of_float s.Pmem.Stats.now_ns);
      ("ns_flush bits", Int64.bits_of_float s.Pmem.Stats.ns_flush);
      ("l1_hits", Int64.of_int s.Pmem.Stats.l1_hits);
      ("l1_misses", Int64.of_int s.Pmem.Stats.l1_misses);
      ("lines_drained", Int64.of_int s.Pmem.Stats.lines_drained);
      ( "live_words",
        Int64.of_int
          (Pmalloc.Allocator.live_words (Pmalloc.Heap.allocator heap)) );
      ("find hits", Int64.of_int !hits);
    ],
    Format.asprintf "%a" Mod_core.Recovery.pp_report report )

let golden_tests =
  [
    Alcotest.test_case "map run, crash and recovery are pinned" `Quick
      (fun () ->
        let counters, report = golden_run () in
        List.iter2
          (fun (name, expected) (name', actual) ->
            assert (name = name');
            Alcotest.(check int64) name expected actual)
          [
            ("now_ns bits", 4719990357884256639L);
            ("ns_flush bits", 4717712281208325150L);
            ("l1_hits", 5689715L);
            ("l1_misses", 85826L);
            ("lines_drained", 307078L);
            ("live_words", 71400L);
            ("find hits", 1061L);
          ]
          counters;
        Alcotest.(check string)
          "recovery report"
          "recovery: 5734 live blocks (71400 words), reclaimed 280 extents \
           (20456 words), frontier 92432; 2 root slots read via the summary"
          report);
  ]

(* Differential test of the one-image region.  [Two_image] is the
   textbook model the region's slots stand in for: a volatile and a
   durable word array over the whole capacity, a state per line, and a
   whole-image copy per snapshot and per captured point.  It drives its
   own copies of the three caches, so it sees the region's evictions,
   and keeps its own stats, RNG and crash seeds.  After every step the
   region must agree with it on every word of both images, every line
   state, the in-flight count, every [Stats] field and the crash
   seed. *)
module Two_image = struct
  open Pmem

  type image = {
    i_cur : int array;
    i_dur : int array;
    i_st : Region.line_state array;
    i_inflight : int;
    i_stats : Stats.t;
  }

  type t = {
    cur : int array;
    dur : int array;
    st : Region.line_state array;
    l1 : Cache.t;
    l2 : Cache.t;
    llc : Cache.t;
    stats : Stats.t;
    mutable rng : Random.State.t;
    mutable inflight : int;
    bad : (int, unit) Hashtbl.t;
    mutable seed : int option;
    (* capture: countdown to the next point, points still wanted, the
       stride, the phase in force when it was armed, and the points *)
    mutable k_left : int;
    mutable k_budget : int;
    mutable k_stride : int;
    mutable k_phase : Stats.phase;
    mutable k_points : image list;
  }

  let create ~capacity ~seed =
    let lines = capacity / Config.words_per_line in
    {
      cur = Array.make capacity 0;
      dur = Array.make capacity 0;
      st = Array.make lines Region.Clean;
      l1 = Cache.create ();
      l2 = Cache.create ~sets:Config.l2_sets ~ways:Config.l2_ways ();
      llc = Cache.create ~sets:Config.llc_sets ~ways:Config.llc_ways ();
      stats = Stats.create ();
      rng = Random.State.make [| seed |];
      inflight = 0;
      bad = Hashtbl.create 4;
      seed = None;
      k_left = 0;
      k_budget = -1;
      k_stride = 1;
      k_phase = Stats.Other;
      k_points = [];
    }

  let image m =
    {
      i_cur = Array.copy m.cur;
      i_dur = Array.copy m.dur;
      i_st = Array.copy m.st;
      i_inflight = m.inflight;
      i_stats = Stats.copy m.stats;
    }

  let install m i =
    Array.blit i.i_cur 0 m.cur 0 (Array.length m.cur);
    Array.blit i.i_dur 0 m.dur 0 (Array.length m.dur);
    Array.blit i.i_st 0 m.st 0 (Array.length m.st);
    m.inflight <- i.i_inflight;
    Stats.assign ~into:m.stats i.i_stats

  let writeback m line =
    let base = line * Config.words_per_line in
    Array.blit m.cur base m.dur base Config.words_per_line

  let evict m line =
    writeback m line;
    if m.st.(line) = Region.Flushing then m.inflight <- m.inflight - 1;
    m.st.(line) <- Region.Clean

  let touch m off ~write =
    let line = off / Config.words_per_line in
    let r = Cache.access m.l1 ~line ~write in
    if r = Cache.hit then begin
      m.stats.Stats.l1_hits <- m.stats.Stats.l1_hits + 1;
      Latency.L1
    end
    else begin
      if r >= 0 then evict m r;
      m.stats.Stats.l1_misses <- m.stats.Stats.l1_misses + 1;
      if Cache.access m.l2 ~line ~write:false = Cache.hit then Latency.L2
      else if Cache.access m.llc ~line ~write:false = Cache.hit then Latency.Llc
      else Latency.Pm
    end

  (* A PM event: a capture records the image right after it. *)
  let event m =
    if m.k_budget > 0 then begin
      m.k_budget <- m.k_budget - 1;
      if m.k_budget = 0 then begin
        let i = image m in
        i.i_stats.Stats.cur_phase <- m.k_phase;
        m.k_points <- i :: m.k_points;
        m.k_left <- m.k_left - 1;
        m.k_budget <- (if m.k_left > 0 then m.k_stride else -1)
      end
    end

  let load m off =
    if Hashtbl.mem m.bad (off / Config.words_per_line) then
      raise (Region.Media_fault { off });
    let level = touch m off ~write:false in
    m.stats.Stats.loads <- m.stats.Stats.loads + 1;
    Stats.advance m.stats (Latency.load_ns level);
    m.cur.(off)

  let store m off v =
    ignore (touch m off ~write:true : Latency.load_level);
    m.stats.Stats.stores <- m.stats.Stats.stores + 1;
    Stats.advance m.stats Latency.store_ns;
    m.cur.(off) <- v;
    let line = off / Config.words_per_line in
    if m.st.(line) = Region.Clean then m.st.(line) <- Region.Dirty;
    event m

  let clwb m off =
    m.stats.Stats.clwbs <- m.stats.Stats.clwbs + 1;
    let line = off / Config.words_per_line in
    if m.st.(line) = Region.Dirty then begin
      m.st.(line) <- Region.Flushing;
      m.inflight <- m.inflight + 1
    end;
    event m

  let sfence m =
    let drained = m.inflight in
    Array.iteri
      (fun line s ->
        if s = Region.Flushing then begin
          writeback m line;
          m.st.(line) <- Region.Clean;
          Cache.mark_clean m.l1 ~line
        end)
      m.st;
    m.inflight <- 0;
    Stats.record_fence m.stats ~drained;
    Stats.advance_in m.stats Stats.Flush
      (Latency.fence_stall_ns ~inflight:drained);
    event m

  let invalidate m =
    Cache.invalidate m.l1;
    Cache.invalidate m.l2;
    Cache.invalidate m.llc

  let crash m ~mode ~seed ~torn =
    let seed_used =
      match seed with Some s -> s | None -> Random.State.bits m.rng
    in
    let rng = Random.State.make [| seed_used |] in
    m.seed <- Some seed_used;
    Array.iteri
      (fun line s ->
        let base = line * Config.words_per_line in
        if s <> Region.Clean then begin
          if torn then
            for i = base to base + Config.words_per_line - 1 do
              if m.cur.(i) <> m.dur.(i) && Random.State.bool rng then
                m.dur.(i) <- m.cur.(i)
            done
          else begin
            let survives =
              match (s, mode) with
              | Region.Flushing, Region.Keep_inflight -> true
              | Region.Flushing, Region.Randomize -> Random.State.bool rng
              | Region.Dirty, Region.Randomize -> Random.State.int rng 4 = 0
              | _ -> false
            in
            if survives then writeback m line
          end;
          Array.blit m.dur base m.cur base Config.words_per_line;
          m.st.(line) <- Region.Clean
        end)
      m.st;
    m.inflight <- 0;
    m.k_budget <- -1;
    invalidate m

  let corrupt m off =
    let v = m.cur.(off) lxor 0x55 in
    m.cur.(off) <- v;
    m.dur.(off) <- v
end

let one_image_tests =
  let open Pmem in
  let capacity = 8192 and seed = 11 in
  let off_gen = QCheck.Gen.int_bound (capacity - 1) in
  let op_gen =
    QCheck.Gen.(
      frequency
        [
          (16, map2 (fun o v -> `Store (o, v)) off_gen (int_bound 1000));
          (10, map (fun o -> `Load o) off_gen);
          (6, map (fun o -> `Clwb o) off_gen);
          (3, return `Sfence);
          ( 2,
            map3
              (fun m s torn -> `Crash (m, s, torn))
              (int_bound 2) (opt nat) bool );
          (2, return `Snapshot);
          (2, map (fun i -> `Restore i) (int_bound 2));
          (1, map2 (fun s n -> `Capture (1 + s, n)) (int_bound 4) (int_range 1 40));
          (2, map (fun o -> `Corrupt o) off_gen);
          (1, map (fun l -> `Media l) (int_bound ((capacity / 8) - 1)));
          (1, return `Clear_media);
        ])
  in
  let modes = [| Region.Drop_inflight; Region.Keep_inflight; Region.Randomize |] in
  (* One step on both, through the same entry points; a load's media
     fault must come from both or neither. *)
  let step r m op =
    match op with
    | `Store (off, v) ->
        Region.store r off (Word.of_int v);
        Two_image.store m off (Word.bits (Word.of_int v))
    | `Load off ->
        let got =
          match Region.load r off with
          | w -> Some (Word.bits w)
          | exception Region.Media_fault _ -> None
        in
        let want =
          match Two_image.load m off with
          | w -> Some w
          | exception Region.Media_fault _ -> None
        in
        if got <> want then Alcotest.failf "load %d disagrees" off
    | `Clwb off ->
        Region.clwb r off;
        Two_image.clwb m off
    | `Sfence ->
        Region.sfence r;
        Two_image.sfence m
    | `Crash (k, seed, torn) ->
        Region.crash ~mode:modes.(k) ?seed ~torn r;
        Two_image.crash m ~mode:modes.(k) ~seed ~torn
    | `Corrupt off ->
        Region.corrupt_word r off;
        Two_image.corrupt m off
    | `Media line ->
        Region.arm_media_fault r ~line;
        Hashtbl.replace m.Two_image.bad line ()
    | `Clear_media ->
        Region.clear_media_faults r;
        Hashtbl.reset m.Two_image.bad
    | `Snapshot | `Restore _ | `Capture _ -> assert false
  in
  let agree r m =
    let words_ok = ref true in
    for off = 0 to capacity - 1 do
      if
        Word.bits (Region.peek_current r off) <> m.Two_image.cur.(off)
        || Word.bits (Region.peek_durable r off) <> m.Two_image.dur.(off)
      then words_ok := false
    done;
    let states_ok = ref true in
    Array.iteri
      (fun line s -> if Region.line_state r line <> s then states_ok := false)
      m.Two_image.st;
    !words_ok && !states_ok
    && Region.inflight r = m.Two_image.inflight
    && Region.stats r = m.Two_image.stats
    && Region.last_crash_seed r = m.Two_image.seed
  in
  let restore_model m (i, rng) =
    Two_image.install m i;
    m.Two_image.rng <- Random.State.copy rng;
    Hashtbl.reset m.Two_image.bad;
    Two_image.invalidate m
  in
  let run ops =
    let r = Region.create ~capacity_words:capacity ~seed () in
    let m = Two_image.create ~capacity ~seed in
    (* live snapshots, newest first, each with the model's image *)
    let snaps = ref [] in
    List.for_all
      (fun op ->
        (match op with
        | `Snapshot ->
            snaps :=
              (Region.snapshot r, (Two_image.image m, Random.State.copy m.Two_image.rng))
              :: !snaps
        | `Restore i -> (
            match List.filteri (fun j _ -> j >= i) !snaps with
            | [] -> ()
            | (tok, saved) :: _ as rest ->
                Region.restore r tok;
                restore_model m saved;
                snaps := rest)
        | `Capture (stride, n) ->
            (* run the next [n] steps of a fixed script under a capture,
               rewind, then rebuild every point in order *)
            let tok = Region.snapshot r in
            let saved = (Two_image.image m, Random.State.copy m.Two_image.rng) in
            Region.capture r ~stride ignore;
            m.Two_image.k_budget <- 1;
            m.Two_image.k_left <- max_int;
            m.Two_image.k_stride <- stride;
            m.Two_image.k_phase <- (Region.stats r).Stats.cur_phase;
            m.Two_image.k_points <- [];
            let script = QCheck.Gen.generate ~rand:(Random.State.make [| n |]) ~n op_gen in
            List.iter
              (function
                | (`Store _ | `Load _ | `Clwb _ | `Sfence | `Corrupt _) as op ->
                    step r m op
                | _ -> ())
              script;
            let points = Region.captured r in
            m.Two_image.k_budget <- -1;
            let images = List.rev m.Two_image.k_points in
            if Array.length points <> List.length images then
              Alcotest.failf "%d points captured, the model has %d"
                (Array.length points) (List.length images);
            Region.restore r tok;
            Region.release r tok;
            restore_model m saved;
            List.iteri
              (fun k i ->
                Region.apply_point r points.(k);
                Two_image.install m i;
                if not (agree r m) then Alcotest.failf "point %d disagrees" k)
              images
        | op -> step r m op);
        agree r m)
      ops
  in
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"one image agrees with two images (qcheck)"
         ~count:60
         (QCheck.make QCheck.Gen.(list_size (int_range 1 150) op_gen))
         run);
  ]

let () =
  Alcotest.run "pmem"
    [
      ("word", word_tests);
      ("region", region_tests);
      ("latency", latency_tests);
      ("cache", cache_tests);
      ("lru-model", cache_model_tests);
      ("hierarchy", hierarchy_tests);
      ("stats", stats_tests);
      ("trace", trace_tests);
      ("snapshot", snapshot_tests);
      ("worklist", worklist_tests);
      ("lazy", lazy_tests);
      ("line-runs", line_run_tests);
      ("golden", golden_tests);
      ("one-image", one_image_tests);
    ]
