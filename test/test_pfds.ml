(* Model-based tests for the functional datastructures in PM: every
   structure is driven with random operation sequences and compared
   against its plain-OCaml model. *)

let mk_heap ?(capacity = 1 lsl 18) () = Pmalloc.Heap.create ~capacity_words:capacity ()

let w = Pmem.Word.of_int
let uw v = Pmem.Word.to_int v

(* -- codecs ---------------------------------------------------------------- *)

let codec_tests =
  [
    Alcotest.test_case "int codec roundtrip" `Quick (fun () ->
        let heap = mk_heap () in
        List.iter
          (fun v ->
            Alcotest.(check int) "roundtrip" v
              Pfds.Kv.Int.(read heap (write heap v)))
          [ 0; 1; -5; max_int / 4 ]);
    Alcotest.test_case "string blob roundtrip" `Quick (fun () ->
        let heap = mk_heap () in
        List.iter
          (fun s ->
            Alcotest.(check string) "roundtrip" s
              Pfds.Kv.String_blob.(read heap (write heap s)))
          [ ""; "a"; "seven77"; "exactly-fourteen"; String.make 512 'x';
            "\000\255binary\001" ]);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"string blob roundtrip (qcheck)" ~count:200
         QCheck.(string_gen_of_size (Gen.int_range 0 600) Gen.char)
         (fun s ->
           let heap = mk_heap () in
           Pfds.Kv.String_blob.(read heap (write heap s)) = s));
    Alcotest.test_case "mix_int disperses low bits" `Quick (fun () ->
        (* adjacent keys should not collide in their low 5-bit chunk *)
        let chunks = Hashtbl.create 32 in
        for k = 0 to 255 do
          Hashtbl.replace chunks (Pfds.Kv.mix_int k land 31) ()
        done;
        Alcotest.(check bool)
          "uses most chunks" true
          (Hashtbl.length chunks > 24));
  ]

(* -- CHAMP map vs stdlib Map ---------------------------------------------- *)

module IntMap = Map.Make (Int)
module Champ_ii = Pfds.Champ.Make (Pfds.Kv.Int) (Pfds.Kv.Int)

type map_op = Insert of int * int | Remove of int | Find of int

let map_op_gen keyspace =
  QCheck.Gen.(
    frequency
      [
        (5, map2 (fun k v -> Insert (k, v)) (int_range 0 keyspace) small_nat);
        (2, map (fun k -> Remove k) (int_range 0 keyspace));
        (2, map (fun k -> Find k) (int_range 0 keyspace));
      ])

let pp_map_op = function
  | Insert (k, v) -> Printf.sprintf "insert(%d,%d)" k v
  | Remove k -> Printf.sprintf "remove(%d)" k
  | Find k -> Printf.sprintf "find(%d)" k

let champ_agrees_with_model ops =
  let heap = mk_heap ~capacity:(1 lsl 20) () in
  let root = ref Champ_ii.empty in
  let model = ref IntMap.empty in
  List.for_all
    (fun op ->
      match op with
      | Insert (k, v) ->
          let root', grew = Champ_ii.insert heap !root k v in
          let grew_model = not (IntMap.mem k !model) in
          root := root';
          model := IntMap.add k v !model;
          grew = grew_model
      | Remove k ->
          let root', removed = Champ_ii.remove heap !root k in
          let removed_model = IntMap.mem k !model in
          root := root';
          model := IntMap.remove k !model;
          removed = removed_model
      | Find k -> Champ_ii.find heap !root k = IntMap.find_opt k !model)
    ops
  && Champ_ii.cardinal heap !root = IntMap.cardinal !model
  && IntMap.for_all (fun k v -> Champ_ii.find heap !root k = Some v) !model

let champ_qcheck =
  QCheck.Test.make ~name:"CHAMP agrees with Map (qcheck)" ~count:100
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map pp_map_op ops))
       QCheck.Gen.(list_size (int_range 0 200) (map_op_gen 50)))
    champ_agrees_with_model

let champ_qcheck_dense =
  QCheck.Test.make ~name:"CHAMP dense keyspace (qcheck)" ~count:50
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map pp_map_op ops))
       QCheck.Gen.(list_size (int_range 50 300) (map_op_gen 8)))
    champ_agrees_with_model

(* Force full-hash collisions to exercise collision nodes. *)
module Colliding_key : Pfds.Kv.CODEC with type t = int = struct
  type t = int

  let equal = Int.equal
  let hash k = k mod 3 (* at most 3 hash values: deep collisions *)
  let write _heap v = Pmem.Word.of_int v
  let read _heap w = Pmem.Word.to_int w
  let log_word v = Some (Pmem.Word.of_int v)
end

module Champ_collide = Pfds.Champ.Make (Colliding_key) (Pfds.Kv.Int)

let champ_tests =
  [
    Alcotest.test_case "empty map" `Quick (fun () ->
        let heap = mk_heap () in
        Alcotest.(check bool) "empty" true (Champ_ii.is_empty Champ_ii.empty);
        Alcotest.(check (option int)) "find" None
          (Champ_ii.find heap Champ_ii.empty 5);
        Alcotest.(check int) "cardinal" 0
          (Champ_ii.cardinal heap Champ_ii.empty));
    Alcotest.test_case "insert then find" `Quick (fun () ->
        let heap = mk_heap () in
        let root, grew = Champ_ii.insert heap Champ_ii.empty 1 100 in
        Alcotest.(check bool) "grew" true grew;
        Alcotest.(check (option int)) "found" (Some 100)
          (Champ_ii.find heap root 1);
        Alcotest.(check (option int)) "absent" None (Champ_ii.find heap root 2));
    Alcotest.test_case "persistence: old version unchanged" `Quick (fun () ->
        let heap = mk_heap () in
        let v1, _ = Champ_ii.insert heap Champ_ii.empty 1 100 in
        let v2, _ = Champ_ii.insert heap v1 1 200 in
        let v3, _ = Champ_ii.insert heap v2 2 300 in
        Alcotest.(check (option int)) "v1 intact" (Some 100)
          (Champ_ii.find heap v1 1);
        Alcotest.(check (option int)) "v2 updated" (Some 200)
          (Champ_ii.find heap v2 1);
        Alcotest.(check (option int)) "v2 has no k2" None
          (Champ_ii.find heap v2 2);
        Alcotest.(check (option int)) "v3 has k2" (Some 300)
          (Champ_ii.find heap v3 2));
    Alcotest.test_case "1000 inserts, all retrievable" `Quick (fun () ->
        let heap = mk_heap ~capacity:(1 lsl 20) () in
        let root = ref Champ_ii.empty in
        for k = 0 to 999 do
          let r, _ = Champ_ii.insert heap !root k (k * 7) in
          root := r
        done;
        Alcotest.(check int) "cardinal" 1000 (Champ_ii.cardinal heap !root);
        for k = 0 to 999 do
          Alcotest.(check (option int))
            (Printf.sprintf "key %d" k)
            (Some (k * 7))
            (Champ_ii.find heap !root k)
        done);
    Alcotest.test_case "remove everything back to empty" `Quick (fun () ->
        let heap = mk_heap ~capacity:(1 lsl 20) () in
        let root = ref Champ_ii.empty in
        for k = 0 to 99 do
          let r, _ = Champ_ii.insert heap !root k k in
          root := r
        done;
        for k = 0 to 99 do
          let r, removed = Champ_ii.remove heap !root k in
          Alcotest.(check bool) "removed" true removed;
          root := r
        done;
        Alcotest.(check bool) "empty again" true (Champ_ii.is_empty !root));
    Alcotest.test_case "remove absent key is a no-op" `Quick (fun () ->
        let heap = mk_heap () in
        let root, _ = Champ_ii.insert heap Champ_ii.empty 1 1 in
        let root', removed = Champ_ii.remove heap root 42 in
        Alcotest.(check bool) "not removed" false removed;
        Alcotest.(check bool) "same version" true (root' = root));
    Alcotest.test_case "hash collisions handled" `Quick (fun () ->
        let heap = mk_heap ~capacity:(1 lsl 20) () in
        let root = ref Pmem.Word.null in
        for k = 0 to 63 do
          let r, grew = Champ_collide.insert heap !root k k in
          Alcotest.(check bool) "grew" true grew;
          root := r
        done;
        for k = 0 to 63 do
          Alcotest.(check (option int))
            (Printf.sprintf "collide key %d" k)
            (Some k)
            (Champ_collide.find heap !root k)
        done;
        for k = 0 to 63 do
          let r, removed = Champ_collide.remove heap !root k in
          Alcotest.(check bool) "collide remove" true removed;
          root := r
        done;
        Alcotest.(check bool) "empty" true (Pmem.Word.is_null !root));
    Alcotest.test_case "update operations never fence" `Quick (fun () ->
        let heap = mk_heap ~capacity:(1 lsl 20) () in
        let stats = Pmalloc.Heap.stats heap in
        let fences_before = stats.Pmem.Stats.fences in
        let root = ref Champ_ii.empty in
        for k = 0 to 199 do
          let r, _ = Champ_ii.insert heap !root k k in
          root := r
        done;
        let r, _ = Champ_ii.remove heap !root 5 in
        ignore (r : Pmem.Word.t);
        Alcotest.(check int) "no fences in pure updates" fences_before
          stats.Pmem.Stats.fences);
    Alcotest.test_case "iter visits every binding once" `Quick (fun () ->
        let heap = mk_heap ~capacity:(1 lsl 20) () in
        let root = ref Champ_ii.empty in
        for k = 0 to 299 do
          let r, _ = Champ_ii.insert heap !root k (k + 1) in
          root := r
        done;
        let seen = Hashtbl.create 64 in
        Champ_ii.iter heap !root (fun k v ->
            Alcotest.(check bool) "not seen before" false (Hashtbl.mem seen k);
            Alcotest.(check int) "value" (k + 1) v;
            Hashtbl.replace seen k ());
        Alcotest.(check int) "all seen" 300 (Hashtbl.length seen));
    Alcotest.test_case "string keys" `Quick (fun () ->
        let module M = Pfds.Champ.Make (Pfds.Kv.String_blob) (Pfds.Kv.Int) in
        let heap = mk_heap ~capacity:(1 lsl 20) () in
        let root = ref M.empty in
        for k = 0 to 99 do
          let r, _ = M.insert heap !root (Printf.sprintf "key-%d" k) k in
          root := r
        done;
        for k = 0 to 99 do
          Alcotest.(check (option int))
            (Printf.sprintf "str key %d" k)
            (Some k)
            (M.find heap !root (Printf.sprintf "key-%d" k))
        done;
        Alcotest.(check (option int)) "absent" None
          (M.find heap !root "missing"));
    QCheck_alcotest.to_alcotest champ_qcheck;
    QCheck_alcotest.to_alcotest champ_qcheck_dense;
    (let naive v =
       let n = ref 0 in
       for i = 0 to 31 do
         if (v lsr i) land 1 = 1 then incr n
       done;
       !n
     in
     Alcotest.test_case "popcount counts maps below 2^32" `Quick (fun () ->
         List.iter
           (fun v ->
             Alcotest.(check int) (Printf.sprintf "%#x" v) (naive v)
               (Pfds.Champ.popcount v))
           [ 0; 1; 1 lsl 31; (1 lsl 31) - 1; (1 lsl 32) - 1; 0x55555555 ];
         let rng = Random.State.make [| 17 |] in
         for _ = 1 to 10_000 do
           let v = Random.State.bits rng lor (Random.State.bits rng lsl 30) in
           let v = v land ((1 lsl 32) - 1) in
           Alcotest.(check int) (Printf.sprintf "%#x" v) (naive v)
             (Pfds.Champ.popcount v)
         done));
  ]

(* -- persistent vector vs list model --------------------------------------- *)

type vec_op = Push of int | Pop | Set of int * int | Get of int

let pp_vec_op = function
  | Push v -> Printf.sprintf "push(%d)" v
  | Pop -> "pop"
  | Set (i, v) -> Printf.sprintf "set(%d,%d)" i v
  | Get i -> Printf.sprintf "get(%d)" i

let vec_op_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map (fun v -> Push v) small_nat);
        (2, return Pop);
        (2, map2 (fun i v -> Set (i, v)) (int_range 0 5000) small_nat);
        (2, map (fun i -> Get i) (int_range 0 5000));
      ])

let vec_agrees_with_model ops =
  let heap = mk_heap ~capacity:(1 lsl 20) () in
  let vec = ref (Pfds.Pvec.create heap) in
  let model = ref [] in
  (* model holds elements newest-first *)
  let ok = ref true in
  List.iter
    (fun op ->
      let n = List.length !model in
      match op with
      | Push v ->
          vec := Pfds.Pvec.push_back heap !vec (w v);
          model := v :: !model
      | Pop ->
          if n > 0 then begin
            let v, vec' = Pfds.Pvec.pop_back heap !vec in
            (match !model with
            | expect :: rest ->
                if uw v <> expect then ok := false;
                model := rest
            | [] -> ok := false);
            vec := vec'
          end
      | Set (i, v) ->
          if n > 0 then begin
            let i = i mod n in
            vec := Pfds.Pvec.set heap !vec i (w v);
            model :=
              List.mapi (fun j x -> if n - 1 - j = i then v else x) !model
          end
      | Get i ->
          if n > 0 then begin
            let i = i mod n in
            let expect = List.nth !model (n - 1 - i) in
            if uw (Pfds.Pvec.get heap !vec i) <> expect then ok := false
          end)
    ops;
  let n = List.length !model in
  !ok
  && Pfds.Pvec.size heap !vec = n
  && List.for_all2
       (fun a b -> a = b)
       (List.map uw (Pfds.Pvec.to_list heap !vec))
       (List.rev !model)

let pvec_tests =
  [
    Alcotest.test_case "empty vector" `Quick (fun () ->
        let heap = mk_heap () in
        let v = Pfds.Pvec.create heap in
        Alcotest.(check int) "size" 0 (Pfds.Pvec.size heap v);
        Alcotest.(check bool) "empty" true (Pfds.Pvec.is_empty heap v));
    Alcotest.test_case "push through tree levels (5000 elems)" `Quick
      (fun () ->
        let heap = mk_heap ~capacity:(1 lsl 21) () in
        let v = ref (Pfds.Pvec.create heap) in
        for i = 0 to 4999 do
          v := Pfds.Pvec.push_back heap !v (w (i * 3))
        done;
        Alcotest.(check int) "size" 5000 (Pfds.Pvec.size heap !v);
        for i = 0 to 4999 do
          if uw (Pfds.Pvec.get heap !v i) <> i * 3 then
            Alcotest.failf "index %d: got %d" i (uw (Pfds.Pvec.get heap !v i))
        done);
    Alcotest.test_case "pop back down through levels" `Quick (fun () ->
        let heap = mk_heap ~capacity:(1 lsl 21) () in
        let v = ref (Pfds.Pvec.create heap) in
        for i = 0 to 2499 do
          v := Pfds.Pvec.push_back heap !v (w i)
        done;
        for i = 2499 downto 0 do
          let x, v' = Pfds.Pvec.pop_back heap !v in
          if uw x <> i then Alcotest.failf "pop %d: got %d" i (uw x);
          v := v'
        done;
        Alcotest.(check int) "empty" 0 (Pfds.Pvec.size heap !v));
    Alcotest.test_case "set deep index" `Quick (fun () ->
        let heap = mk_heap ~capacity:(1 lsl 21) () in
        let v = ref (Pfds.Pvec.create heap) in
        for i = 0 to 1999 do
          v := Pfds.Pvec.push_back heap !v (w i)
        done;
        let v2 = Pfds.Pvec.set heap !v 100 (w (-1)) in
        Alcotest.(check int) "new version" (-1) (uw (Pfds.Pvec.get heap v2 100));
        Alcotest.(check int) "old version intact" 100
          (uw (Pfds.Pvec.get heap !v 100));
        Alcotest.(check int) "neighbours intact" 101
          (uw (Pfds.Pvec.get heap v2 101)));
    Alcotest.test_case "bounds checked" `Quick (fun () ->
        let heap = mk_heap () in
        let v = Pfds.Pvec.push_back heap (Pfds.Pvec.create heap) (w 1) in
        Alcotest.(check bool)
          "get oob raises" true
          (try
             ignore (Pfds.Pvec.get heap v 1);
             false
           with Invalid_argument _ -> true);
        Alcotest.(check bool)
          "pop empty raises" true
          (try
             ignore (Pfds.Pvec.pop_back heap (Pfds.Pvec.create heap));
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "updates never fence" `Quick (fun () ->
        let heap = mk_heap ~capacity:(1 lsl 21) () in
        let stats = Pmalloc.Heap.stats heap in
        let before = stats.Pmem.Stats.fences in
        let v = ref (Pfds.Pvec.create heap) in
        for i = 0 to 999 do
          v := Pfds.Pvec.push_back heap !v (w i)
        done;
        v := Pfds.Pvec.set heap !v 500 (w 0);
        ignore (Pfds.Pvec.pop_back heap !v);
        Alcotest.(check int) "no fences" before stats.Pmem.Stats.fences);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"vector agrees with list model (qcheck)"
         ~count:80
         (QCheck.make
            ~print:(fun ops -> String.concat "; " (List.map pp_vec_op ops))
            QCheck.Gen.(list_size (int_range 0 300) vec_op_gen))
         vec_agrees_with_model);
  ]

(* -- queue and stack vs models ---------------------------------------------- *)

let queue_tests =
  [
    Alcotest.test_case "fifo order with reversals" `Quick (fun () ->
        let heap = mk_heap ~capacity:(1 lsl 20) () in
        let q = ref (Pfds.Pqueue.create heap) in
        let model = Queue.create () in
        let rng = Random.State.make [| 3 |] in
        for i = 0 to 999 do
          if Random.State.bool rng || Pfds.Pqueue.is_empty heap !q then begin
            q := Pfds.Pqueue.enqueue heap !q (w i);
            Queue.push i model
          end
          else
            match Pfds.Pqueue.dequeue heap !q with
            | Some (v, q') ->
                Alcotest.(check int) "fifo" (Queue.pop model) (uw v);
                q := q'
            | None -> Alcotest.fail "queue empty but model not"
        done;
        Alcotest.(check int) "length" (Queue.length model)
          (Pfds.Pqueue.length heap !q);
        Alcotest.(check (list int)) "contents"
          (List.of_seq (Queue.to_seq model))
          (List.map uw (Pfds.Pqueue.to_list heap !q)));
    Alcotest.test_case "old version intact after dequeue" `Quick (fun () ->
        let heap = mk_heap () in
        let q0 = Pfds.Pqueue.create heap in
        let q1 = Pfds.Pqueue.enqueue heap q0 (w 1) in
        let q2 = Pfds.Pqueue.enqueue heap q1 (w 2) in
        match Pfds.Pqueue.dequeue heap q2 with
        | Some (v, q3) ->
            Alcotest.(check int) "dequeued 1" 1 (uw v);
            Alcotest.(check (list int)) "q2 intact" [ 1; 2 ]
              (List.map uw (Pfds.Pqueue.to_list heap q2));
            Alcotest.(check (list int)) "q3" [ 2 ]
              (List.map uw (Pfds.Pqueue.to_list heap q3))
        | None -> Alcotest.fail "dequeue failed");
    Alcotest.test_case "dequeue on empty" `Quick (fun () ->
        let heap = mk_heap () in
        let q = Pfds.Pqueue.create heap in
        Alcotest.(check bool) "none" true (Pfds.Pqueue.dequeue heap q = None));
  ]

let stack_tests =
  [
    Alcotest.test_case "lifo order" `Quick (fun () ->
        let heap = mk_heap () in
        let s = ref Pfds.Pstack.empty in
        for i = 0 to 99 do
          s := Pfds.Pstack.push heap !s (w i)
        done;
        for i = 99 downto 0 do
          match Pfds.Pstack.pop heap !s with
          | Some (v, s') ->
              Alcotest.(check int) "lifo" i (uw v);
              s := s'
          | None -> Alcotest.fail "unexpected empty"
        done;
        Alcotest.(check bool) "empty" true (Pfds.Pstack.is_empty !s));
    Alcotest.test_case "structural sharing across versions" `Quick (fun () ->
        let heap = mk_heap () in
        let s1 = Pfds.Pstack.push heap Pfds.Pstack.empty (w 1) in
        let s2 = Pfds.Pstack.push heap s1 (w 2) in
        let s3 = Pfds.Pstack.push heap s2 (w 3) in
        Alcotest.(check (list int)) "s3" [ 3; 2; 1 ]
          (List.map uw (Pfds.Pstack.to_list heap s3));
        Alcotest.(check (list int)) "s2 intact" [ 2; 1 ]
          (List.map uw (Pfds.Pstack.to_list heap s2));
        (* push allocates exactly one 2-word node *)
        let alloc = Pmalloc.Heap.allocator heap in
        let before = Pmalloc.Allocator.allocations alloc in
        ignore (Pfds.Pstack.push heap s3 (w 4));
        Alcotest.(check int) "one node per push" (before + 1)
          (Pmalloc.Allocator.allocations alloc));
  ]

(* -- leftist heap vs sorted-list model -------------------------------------- *)

let heap_tests =
  [
    Alcotest.test_case "min extraction is sorted" `Quick (fun () ->
        let heap = mk_heap ~capacity:(1 lsl 20) () in
        let rng = Random.State.make [| 13 |] in
        let values = List.init 500 (fun _ -> Random.State.int rng 10_000) in
        let h = ref Pfds.Pheap.empty in
        List.iter (fun v -> h := Pfds.Pheap.insert heap !h v) values;
        Alcotest.(check int) "cardinal" 500 (Pfds.Pheap.cardinal heap !h);
        let drained = ref [] in
        let rec drain () =
          match Pfds.Pheap.delete_min heap !h with
          | None -> ()
          | Some (p, h') ->
              drained := p :: !drained;
              h := h';
              drain ()
        in
        drain ();
        Alcotest.(check (list int)) "sorted drain"
          (List.sort compare values)
          (List.rev !drained));
    Alcotest.test_case "persistence across versions" `Quick (fun () ->
        let heap = mk_heap () in
        let h1 = Pfds.Pheap.insert heap Pfds.Pheap.empty 5 in
        let h2 = Pfds.Pheap.insert heap h1 3 in
        let h3 = Pfds.Pheap.insert heap h2 8 in
        Alcotest.(check (option int)) "h1 min" (Some 5) (Pfds.Pheap.find_min heap h1);
        Alcotest.(check (option int)) "h2 min" (Some 3) (Pfds.Pheap.find_min heap h2);
        Alcotest.(check int) "h3 size" 3 (Pfds.Pheap.cardinal heap h3);
        Alcotest.(check int) "h1 intact" 1 (Pfds.Pheap.cardinal heap h1));
    Alcotest.test_case "merge shares structure" `Quick (fun () ->
        let heap = mk_heap () in
        let build vs =
          List.fold_left (fun h v -> Pfds.Pheap.insert heap h v) Pfds.Pheap.empty vs
        in
        let a = build [ 1; 4; 9 ] and b = build [ 2; 3; 7 ] in
        let m = Pfds.Pheap.merge heap a b in
        Alcotest.(check int) "merged size" 6 (Pfds.Pheap.cardinal heap m);
        Alcotest.(check (option int)) "merged min" (Some 1)
          (Pfds.Pheap.find_min heap m);
        Alcotest.(check int) "a intact" 3 (Pfds.Pheap.cardinal heap a);
        Alcotest.(check int) "b intact" 3 (Pfds.Pheap.cardinal heap b));
    Alcotest.test_case "updates never fence" `Quick (fun () ->
        let heap = mk_heap () in
        let stats = Pmalloc.Heap.stats heap in
        let before = stats.Pmem.Stats.fences in
        let h = ref Pfds.Pheap.empty in
        for i = 0 to 199 do
          h := Pfds.Pheap.insert heap !h (199 - i)
        done;
        ignore (Pfds.Pheap.delete_min heap !h);
        Alcotest.(check int) "no fences" before stats.Pmem.Stats.fences);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"heap drains sorted (qcheck)" ~count:60
         QCheck.(small_list small_nat)
         (fun values ->
           let heap = mk_heap ~capacity:(1 lsl 20) () in
           let h =
             List.fold_left
               (fun h v -> Pfds.Pheap.insert heap h v)
               Pfds.Pheap.empty values
           in
           let rec drain h acc =
             match Pfds.Pheap.delete_min heap h with
             | None -> List.rev acc
             | Some (p, h') -> drain h' (p :: acc)
           in
           drain h [] = List.sort compare values));
  ]

(* -- RRB sequence: concat/slice vs list model -------------------------------- *)

let rrb_of_list heap l = Pfds.Rrb.of_words heap (List.map w l)
let rrb_to_list heap v = List.map uw (Pfds.Rrb.to_list heap v)

let rrb_tests =
  [
    Alcotest.test_case "of_words/get/to_list roundtrip" `Quick (fun () ->
        let heap = mk_heap ~capacity:(1 lsl 20) () in
        let l = List.init 2500 (fun i -> i * 3) in
        let v = rrb_of_list heap l in
        Alcotest.(check int) "size" 2500 (Pfds.Rrb.size heap v);
        Alcotest.(check (list int)) "to_list" l (rrb_to_list heap v);
        List.iteri
          (fun i x ->
            if uw (Pfds.Rrb.get heap v i) <> x then
              Alcotest.failf "get %d: wrong value" i)
          l);
    Alcotest.test_case "concat equals list append" `Quick (fun () ->
        let heap = mk_heap ~capacity:(1 lsl 20) () in
        let la = List.init 1000 (fun i -> i) in
        let lb = List.init 700 (fun i -> 10_000 + i) in
        let a = rrb_of_list heap la and b = rrb_of_list heap lb in
        let c = Pfds.Rrb.concat heap a b in
        Alcotest.(check int) "size" 1700 (Pfds.Rrb.size heap c);
        Alcotest.(check (list int)) "contents" (la @ lb) (rrb_to_list heap c);
        (* originals untouched *)
        Alcotest.(check (list int)) "a intact" la (rrb_to_list heap a);
        Alcotest.(check (list int)) "b intact" lb (rrb_to_list heap b));
    Alcotest.test_case "slice equals sublist" `Quick (fun () ->
        let heap = mk_heap ~capacity:(1 lsl 20) () in
        let l = List.init 1500 (fun i -> i) in
        let v = rrb_of_list heap l in
        List.iter
          (fun (pos, len) ->
            let s = Pfds.Rrb.slice heap v ~pos ~len in
            let expect = List.filteri (fun i _ -> i >= pos && i < pos + len) l in
            Alcotest.(check (list int))
              (Printf.sprintf "slice %d %d" pos len)
              expect (rrb_to_list heap s))
          [ (0, 0); (0, 1500); (0, 40); (1460, 40); (700, 100); (31, 33);
            (32, 32); (999, 1); (1, 1498) ]);
    Alcotest.test_case "set path-copies" `Quick (fun () ->
        let heap = mk_heap ~capacity:(1 lsl 20) () in
        let v = rrb_of_list heap (List.init 1200 (fun i -> i)) in
        let v2 = Pfds.Rrb.set heap v 777 (w (-7)) in
        Alcotest.(check int) "new" (-7) (uw (Pfds.Rrb.get heap v2 777));
        Alcotest.(check int) "old intact" 777 (uw (Pfds.Rrb.get heap v 777));
        Alcotest.(check int) "neighbour" 778 (uw (Pfds.Rrb.get heap v2 778)));
    Alcotest.test_case "push_back grows by one" `Quick (fun () ->
        let heap = mk_heap ~capacity:(1 lsl 20) () in
        let v = ref (Pfds.Rrb.create heap) in
        for i = 0 to 99 do
          v := Pfds.Rrb.push_back heap !v (w i)
        done;
        Alcotest.(check (list int)) "contents"
          (List.init 100 (fun i -> i))
          (rrb_to_list heap !v));
    Alcotest.test_case "operations never fence" `Quick (fun () ->
        let heap = mk_heap ~capacity:(1 lsl 20) () in
        let stats = Pmalloc.Heap.stats heap in
        let before = stats.Pmem.Stats.fences in
        let a = rrb_of_list heap (List.init 500 (fun i -> i)) in
        let b = rrb_of_list heap (List.init 300 (fun i -> i)) in
        let c = Pfds.Rrb.concat heap a b in
        let _ = Pfds.Rrb.slice heap c ~pos:100 ~len:500 in
        Alcotest.(check int) "no fences" before stats.Pmem.Stats.fences);
    Alcotest.test_case "ownership: everything reclaims to zero" `Quick
      (fun () ->
        let heap = mk_heap ~capacity:(1 lsl 20) () in
        let allocator = Pmalloc.Heap.allocator heap in
        let baseline = Pmalloc.Allocator.live_words allocator in
        let a = rrb_of_list heap (List.init 800 (fun i -> i)) in
        let b = rrb_of_list heap (List.init 450 (fun i -> i + 1000)) in
        let c = Pfds.Rrb.concat heap a b in
        let s = Pfds.Rrb.slice heap c ~pos:50 ~len:900 in
        let u = Pfds.Rrb.set heap s 13 (w 0) in
        List.iter
          (fun v -> Pmalloc.Heap.release heap (Pmem.Word.to_ptr v))
          [ u; s; c; b; a ];
        Alcotest.(check int) "no leaks, no double frees" baseline
          (Pmalloc.Allocator.live_words allocator));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"concat/slice agree with list model (qcheck)"
         ~count:60
         QCheck.(
           pair
             (pair (int_range 0 400) (int_range 0 400))
             (pair (int_range 0 200) (int_range 0 200)))
         (fun ((na, nb), (p, l)) ->
           let heap = mk_heap ~capacity:(1 lsl 20) () in
           let la = List.init na (fun i -> i) in
           let lb = List.init nb (fun i -> 100_000 + i) in
           let a = rrb_of_list heap la and b = rrb_of_list heap lb in
           let c = Pfds.Rrb.concat heap a b in
           let lc = la @ lb in
           let pos = if na + nb = 0 then 0 else p mod (na + nb) in
           let len = min l (na + nb - pos) in
           let s = Pfds.Rrb.slice heap c ~pos ~len in
           rrb_to_list heap c = lc
           && rrb_to_list heap s
              = List.filteri (fun i _ -> i >= pos && i < pos + len) lc));
  ]

let () =
  Alcotest.run "pfds"
    [
      ("codecs", codec_tests);
      ("champ", champ_tests);
      ("pvec", pvec_tests);
      ("pqueue", queue_tests);
      ("pstack", stack_tests);
      ("pheap", heap_tests);
      ("rrb", rrb_tests);
    ]
