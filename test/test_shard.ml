(* Sharded serving layer: routing purity, sharded-vs-single-heap
   equivalence, crash independence and the Domains execution mode.

   The load-bearing properties are the first three: routing must be a
   pure function of (key, nshards) so every process ever serving an
   image set agrees on ownership; a sharded map must externally equal a
   single-heap map for any request sequence (the per-shard FIFO
   invariant); and a crash of one shard, swept by the explorer as the
   workload shard<i>of<n>, must leave every sibling's dump equal to its
   model while the dead shard recovers alone into its own
   durable-linearizability window. *)

module Router = Shard.Router

(* -- routing purity --------------------------------------------------------- *)

let key_gen =
  QCheck.Gen.(
    oneof
      [
        map Router.key_of_index (int_bound 99_999);
        string_size ~gen:printable (int_range 1 40);
      ])

let prop_route_pure =
  let arb =
    QCheck.make
      ~print:(fun (k, n) -> Printf.sprintf "key=%S nshards=%d" k n)
      QCheck.Gen.(pair key_gen (int_range 1 16))
  in
  QCheck.Test.make ~count:500 ~name:"shard_of_key is pure and in range" arb
    (fun (key, nshards) ->
      let s = Router.shard_of_key ~nshards key in
      (* in range, deterministic across calls, insensitive to string
         identity (fresh copy hashes the bytes, not the pointer) *)
      s >= 0 && s < nshards
      && Router.shard_of_key ~nshards key = s
      && Router.shard_of_key ~nshards (String.sub key 0 (String.length key))
         = s)

let test_route_covers () =
  (* the fixed-width driver keyspace must actually spread: every shard
     of 4 owns some of the first 1000 keys *)
  let seen = Array.make 4 0 in
  for i = 0 to 999 do
    let s = Router.shard_of_key ~nshards:4 (Router.key_of_index i) in
    seen.(s) <- seen.(s) + 1
  done;
  Array.iteri
    (fun i c ->
      Alcotest.(check bool)
        (Printf.sprintf "shard %d owns keys (%d)" i c)
        true (c > 100))
    seen

let test_zipf_deterministic () =
  let draw () =
    let z = Router.zipf ~theta:0.99 ~seed:5 ~n:1000 () in
    List.init 200 (fun _ -> Router.next z)
  in
  Alcotest.(check (list int)) "same seed, same draws" (draw ()) (draw ());
  List.iter
    (fun r -> Alcotest.(check bool) "rank in range" true (r >= 0 && r < 1000))
    (draw ())

(* -- sharded == single-heap ------------------------------------------------- *)

(* A request sequence as (key index, payload index, is_get) triples over
   a small keyspace, applied to an N-shard set and to a 1-shard set:
   the merged canonical dumps must be equal.  This is the per-shard
   FIFO invariant made external: partitioning plus in-order execution
   per shard commutes with a single serial map. *)
let ops_gen =
  QCheck.Gen.(
    pair (int_range 2 5)
      (list_size (int_range 1 60)
         (triple (int_bound 23) (int_bound 9) (int_bound 4))))

let apply_ops t ops =
  List.iter
    (fun (k, v, g) ->
      let key = Router.key_of_index k in
      if g = 0 then Shard.submit t (Shard.Get key)
      else Shard.submit t (Shard.Set (key, Printf.sprintf "v%03d" v)))
    ops

let prop_sharded_equals_single =
  let arb =
    QCheck.make
      ~print:(fun (n, ops) ->
        Printf.sprintf "nshards=%d ops=%s" n
          (String.concat ";"
             (List.map
                (fun (k, v, g) -> Printf.sprintf "(%d,%d,%d)" k v g)
                ops)))
      ops_gen
  in
  QCheck.Test.make ~count:40 ~name:"sharded dump equals single-heap dump" arb
    (fun (nshards, ops) ->
      let run n =
        let t = Shard.create ~capacity_words:(1 lsl 16) ~nshards:n () in
        apply_ops t ops;
        let d = Shard.dump_all t in
        Shard.close t;
        d
      in
      run nshards = run 1)

(* -- crash independence ----------------------------------------------------- *)

(* Every target of an [nshards]-shard set swept by the explorer: no
   oracle violation (a sibling that drifted from its model raises inside
   recovery, so it shows up here too) and the Section 5.4 trace check
   passes. *)
let sweep_targets ~nshards ~ops ~stride =
  List.iter
    (fun name ->
      let w = Crashtest.Workload.build name ~ops in
      let cfg = { Crashtest.Explorer.default with stride } in
      let r = Crashtest.Explorer.explore ~cfg w in
      Alcotest.(check bool) (name ^ " tested points") true
        (r.Crashtest.Explorer.points_tested > 0);
      Alcotest.(check int)
        (name ^ " every stride-th event")
        ((r.total_events + stride - 1) / stride)
        r.points_tested;
      Alcotest.(check (list string))
        (name ^ " no oracle violations") []
        (List.map
           (Format.asprintf "%a" Crashtest.Explorer.pp_failure)
           r.failures);
      Alcotest.(check bool) (name ^ " trace check") true
        (Crashtest.Explorer.ok r))
    (Crashtest.Workload.shard_names nshards)

let test_crash_sweep () =
  sweep_targets ~nshards:3 ~ops:96 ~stride:53

(* A GET, or a request routed to a sibling, repeats the target's newest
   state in the oracle's history; the window must still reach back to
   the state before its last SET, whose root write may be in flight.
   The sweep's master seed is the explorer's default, 1. *)
let test_crash_sweep_repeated_state () =
  sweep_targets ~nshards:4 ~ops:160 ~stride:97

(* A target's PM events are exactly those its shard's heap sees when the
   same script runs through the serving layer. *)
let test_parity () =
  let nshards = 3 and ops = 96 in
  let t = Shard.create ~nshards () in
  let events i = Pmem.Region.pm_events (Pmalloc.Heap.region (Shard.heap t i)) in
  let base = Array.init nshards events in
  Array.iter (Shard.apply t) (Crashtest.Workload.shard_script ~nshards ~ops);
  List.iteri
    (fun i name ->
      let r =
        Crashtest.Explorer.explore
          ~cfg:{ Crashtest.Explorer.default with max_points = Some 1 }
          (Crashtest.Workload.build name ~ops)
      in
      Alcotest.(check int) (name ^ " events") (events i - base.(i))
        r.Crashtest.Explorer.total_events)
    (Crashtest.Workload.shard_names nshards);
  Shard.close t

(* A target is rebuilt from its name alone: a sampled point replays, and
   a failure's replay command names the target, not --shards. *)
let test_replay_by_name () =
  let name = "shard1of3" and ops = 96 in
  let subject () = Crashtest.Explorer.Seq (Crashtest.Workload.build name ~ops) in
  let total =
    match
      Crashtest.Explorer.run Crashtest.Explorer.default (subject ())
        ~budget:None
    with
    | `Completed (events, _) -> events
    | `Crashed _ -> Alcotest.fail "an unbudgeted run crashed"
  in
  let crash_index = total / 2 in
  let seed =
    Crashtest.Explorer.survival_seed Crashtest.Explorer.default ~crash_index
      ~k:0
  in
  let mode = Pmem.Region.Randomize in
  Alcotest.(check bool) "replays consistent" true
    (Crashtest.Replay.replay (subject ()) ~crash_index ~mode ~seed ()
    = Some Crashtest.Oracle.Consistent);
  let cmd =
    Crashtest.Replay.command
      (Crashtest.Explorer.failure (subject ()) ~crash_index ~mode
         ~survival_seed:(Some seed) "detail")
  in
  let contains sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length cmd && (String.sub cmd i n = sub || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) ("names the target: " ^ cmd) true
    (contains "--workload shard1of3 --ops 96 ");
  Alcotest.(check bool) "no --shards" false (contains "--shards")

let test_names () =
  Alcotest.(check (list string)) "targets"
    [ "shard0of2"; "shard1of2" ]
    (Crashtest.Workload.shard_names 2);
  List.iter
    (fun name ->
      match Crashtest.Workload.build name ~ops:4 with
      | _ -> Alcotest.failf "built %S" name
      | exception Invalid_argument _ -> ())
    [ "shard4of4"; "shard0of0"; "shardxofy"; "shard01of4"; "shard1of4x" ];
  Alcotest.(check bool) "not in the registry" false
    (List.exists Crashtest.Workload.is_shard Crashtest.Workload.names);
  match
    Crashtest.Workload.build ~persist:Pmalloc.Heap.Backup "shard0of2" ~ops:4
  with
  | _ -> Alcotest.fail "a shard target built under Backup"
  | exception Invalid_argument _ -> ()

(* -- Domains mode ----------------------------------------------------------- *)

let test_domains_matches_inline () =
  let load mode =
    let t =
      Shard.create ~mode ~capacity_words:(1 lsl 18) ~seed:9 ~nshards:3 ()
    in
    let r =
      Shard.run_load ~theta:0.99 ~seed:9 ~warmup:50 ~keyspace:500 t
        ~requests:600 ()
    in
    let d = Shard.dump_all t in
    let executed =
      List.fold_left (fun a m -> a + m.Shard.m_executed) 0 r.Shard.lr_shards
    in
    Shard.close t;
    (d, executed, r.Shard.lr_sim_makespan_ns)
  in
  let di, ei, mi = load Shard.Inline in
  let dd, ed, md = load Shard.Domains in
  Alcotest.(check int) "inline executes every request" 600 ei;
  Alcotest.(check int) "domains execute every request" 600 ed;
  Alcotest.(check string) "same final state" di dd;
  (* same requests on the same heaps: the simulated clocks agree too *)
  Alcotest.(check (float 1e-6)) "same sim makespan" mi md

let () =
  Alcotest.run "shard"
    [
      ( "router",
        [
          QCheck_alcotest.to_alcotest prop_route_pure;
          Alcotest.test_case "keyspace coverage" `Quick test_route_covers;
          Alcotest.test_case "zipf deterministic" `Quick
            test_zipf_deterministic;
        ] );
      ( "equivalence",
        [ QCheck_alcotest.to_alcotest prop_sharded_equals_single ] );
      ( "crash",
        [
          Alcotest.test_case "single-shard sweep" `Quick test_crash_sweep;
          Alcotest.test_case "reads between writes (4 shards, seed 1)" `Quick
            test_crash_sweep_repeated_state;
          Alcotest.test_case "events match the serving layer's" `Quick
            test_parity;
          Alcotest.test_case "replay rebuilds a target by name" `Quick
            test_replay_by_name;
          Alcotest.test_case "target names" `Quick test_names;
        ] );
      ( "domains",
        [
          Alcotest.test_case "matches inline" `Quick
            test_domains_matches_inline;
        ] );
    ]
