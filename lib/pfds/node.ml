(** Helpers for building immutable tree nodes in persistent memory.

    All MOD updates are out-of-place: a node is allocated, its fields are
    stored (writes to newly allocated PM only), and [finish] launches
    weakly-ordered clwb writebacks for its cachelines.  No fences here --
    the single ordering point lives in Commit.

    Reference-count discipline: a freshly allocated block carries one
    owned reference that the builder hands to whoever stores the pointer.
    Copying an {e existing} pointer word into a new node must [set_shared]
    it so the count reflects the extra parent. *)

let alloc heap ~words = Pmalloc.Heap.alloc heap ~kind:Pmalloc.Block.Scanned ~words
let get heap node i = Pmalloc.Heap.load heap (node + i)

(* Store an owned word (fresh allocation or scalar): no count change. *)
let set heap node i w = Pmalloc.Heap.store heap (node + i) w

(* A shared word that points to a live block gives that block a parent. *)
let[@inline] retain_shared heap w =
  if Pmem.Word.is_ptr w && not (Pmem.Word.is_null w) then
    Pmalloc.Heap.retain heap (Pmem.Word.to_ptr w)

(* Store a shared word. *)
let set_shared heap node i w =
  retain_shared heap w;
  Pmalloc.Heap.store heap (node + i) w

(* Copy [len] words from an existing node into a new one, retaining every
   pointer copied. *)
let blit_shared heap ~src ~soff ~dst ~doff ~len =
  Pmalloc.Heap.blit heap ~src:(src + soff) ~dst:(dst + doff) ~len retain_shared
    heap

let finish heap node = Pmalloc.Heap.flush_block heap node

(* Retain a word that is about to outlive the node it was read from. *)
let share heap w =
  retain_shared heap w;
  w
