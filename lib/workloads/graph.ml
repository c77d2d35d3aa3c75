(** Synthetic scale-free graph + breadth-first search (the paper's bfs
    workload).

    The paper runs BFS over the Flickr crawl (0.82 M nodes, 9.84 M edges)
    using a {e recoverable queue} for the frontier; the graph itself is
    not stored durably but rebuilt per run.  We have no Flickr dataset, so
    the graph is generated with the R-MAT recursive-matrix model
    (a=0.57, b=c=0.19), which reproduces the skewed degree distribution
    that shapes the frontier queue's behaviour.  Scale is a parameter. *)

type t = { n : int; adj : int array array }

let rmat ~n ~edges ~seed =
  let rng = Random.State.make [| seed |] in
  let bits =
    let rec go b = if 1 lsl b >= n then b else go (b + 1) in
    go 1
  in
  let deg = Array.make n 0 in
  let src = Array.make edges 0 in
  let dst = Array.make edges 0 in
  let a = 0.57 and b = 0.19 and c = 0.19 in
  for e = 0 to edges - 1 do
    let u = ref 0 and v = ref 0 in
    for _ = 1 to bits do
      let r = Random.State.float rng 1.0 in
      let du, dv =
        if r < a then (0, 0)
        else if r < a +. b then (0, 1)
        else if r < a +. b +. c then (1, 0)
        else (1, 1)
      in
      u := (!u lsl 1) lor du;
      v := (!v lsl 1) lor dv
    done;
    let u = !u mod n and v = !v mod n in
    src.(e) <- u;
    dst.(e) <- v;
    deg.(u) <- deg.(u) + 1
  done;
  let adj = Array.init n (fun i -> Array.make deg.(i) 0) in
  let fill = Array.make n 0 in
  for e = 0 to edges - 1 do
    let u = src.(e) in
    adj.(u).(fill.(u)) <- dst.(e);
    fill.(u) <- fill.(u) + 1
  done;
  { n; adj }

let out_degree g v = Array.length g.adj.(v)

(* Pick a source with non-trivial out-degree so the search goes somewhere. *)
let good_source g =
  let best = ref 0 in
  for v = 0 to g.n - 1 do
    if out_degree g v > out_degree g !best then best := v
  done;
  !best

(* BFS with the frontier in a recoverable queue (the durable state) and a
   volatile visited bitmap, as in the paper.  Returns the number of nodes
   reached. *)
let bfs (q : Ops.seq) g ~src =
  let visited = Bytes.make g.n '\000' in
  Bytes.set visited src '\001';
  q.push src;
  let count = ref 1 in
  let rec loop () =
    match q.pop () with
    | None -> ()
    | Some v ->
        Array.iter
          (fun u ->
            if Bytes.get visited u = '\000' then begin
              Bytes.set visited u '\001';
              incr count;
              q.push u
            end)
          g.adj.(v);
        loop ()
  in
  loop ();
  !count

(* The bfs workload: build the graph (volatile, unmeasured), then run the
   queue-driven search on durable state.  The queue is opened inside the
   measured window. *)
let run ctx ~nodes ~edges =
  let g = rmat ~n:nodes ~edges ~seed:11 in
  let src = good_source g in
  Backend.start_measuring ctx;
  ignore (bfs (Ops.queue ctx) g ~src : int)
