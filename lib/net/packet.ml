type payload = ..

type payload +=
  | Data of { session : int; layer : int; seq : int }

(* Side-table filler for slots with no boxed payload; never returned. *)
type payload += No_payload

type t = int

let none = -1

(* Handle layout: slot in the high bits, generation stamp in the low
   [gen_bits]. Generations wrap at 2^20 per slot; a handle would have to
   survive a million free/alloc cycles of its own slot to alias. *)
let gen_bits = 20
let gen_mask = (1 lsl gen_bits) - 1

let slot h = h lsr gen_bits
let generation h = h land gen_mask

(* Struct-of-arrays packet store. [tag] doubles as the liveness mark:
   0 = free slot, 1 = Data (payload ints in p0/p1/p2), 2 = boxed payload
   (side table [boxed]). [dst] packs the address kind into the low bit:
   2*node for unicast, 2*group+1 for multicast. *)
type arena = {
  mutable gens : int array;
  mutable tag : int array;
  mutable srcs : int array;
  mutable dsts : int array;
  mutable sizes : int array;
  mutable p0 : int array;  (* Data.session *)
  mutable p1 : int array;  (* Data.layer *)
  mutable p2 : int array;  (* Data.seq *)
  mutable boxed : payload array;
  mutable free_stack : int array;
  mutable free_top : int;
  mutable cap : int;
  mutable live : int;
}

let create_arena ?(initial = 256) () =
  let cap = max 16 initial in
  {
    gens = Array.make cap 0;
    tag = Array.make cap 0;
    srcs = Array.make cap 0;
    dsts = Array.make cap 0;
    sizes = Array.make cap 0;
    p0 = Array.make cap 0;
    p1 = Array.make cap 0;
    p2 = Array.make cap 0;
    boxed = Array.make cap No_payload;
    free_stack = Array.init cap (fun i -> cap - 1 - i);
    free_top = cap;
    cap;
    live = 0;
  }

let grow a =
  let ncap = 2 * a.cap in
  let gi src fill =
    let nd = Array.make ncap fill in
    Array.blit src 0 nd 0 a.cap;
    nd
  in
  a.gens <- gi a.gens 0;
  a.tag <- gi a.tag 0;
  a.srcs <- gi a.srcs 0;
  a.dsts <- gi a.dsts 0;
  a.sizes <- gi a.sizes 0;
  a.p0 <- gi a.p0 0;
  a.p1 <- gi a.p1 0;
  a.p2 <- gi a.p2 0;
  a.boxed <- gi a.boxed No_payload;
  let nfree = Array.make ncap 0 in
  Array.blit a.free_stack 0 nfree 0 a.free_top;
  (* The new slots, pushed high-to-low so low slots allocate first. *)
  for i = 0 to a.cap - 1 do
    nfree.(a.free_top + i) <- ncap - 1 - i
  done;
  a.free_stack <- nfree;
  a.free_top <- a.free_top + a.cap;
  a.cap <- ncap

let alloc_slot a =
  if a.free_top = 0 then grow a;
  a.free_top <- a.free_top - 1;
  a.live <- a.live + 1;
  a.free_stack.(a.free_top)

let enc_unicast n = n lsl 1
let enc_multicast g = (g lsl 1) lor 1

let handle_of a s = (s lsl gen_bits) lor a.gens.(s)

let alloc_data a ~src ~group ~size ~session ~layer ~seq =
  let s = alloc_slot a in
  a.tag.(s) <- 1;
  a.srcs.(s) <- src;
  a.dsts.(s) <- enc_multicast group;
  a.sizes.(s) <- size;
  a.p0.(s) <- session;
  a.p1.(s) <- layer;
  a.p2.(s) <- seq;
  handle_of a s

let alloc a ~src ~dst ~size ~payload =
  let s = alloc_slot a in
  a.srcs.(s) <- src;
  a.dsts.(s) <-
    (match dst with
    | Addr.Unicast n -> enc_unicast n
    | Addr.Multicast g -> enc_multicast g);
  a.sizes.(s) <- size;
  (match payload with
  | Data { session; layer; seq } ->
      a.tag.(s) <- 1;
      a.p0.(s) <- session;
      a.p1.(s) <- layer;
      a.p2.(s) <- seq
  | p ->
      a.tag.(s) <- 2;
      a.boxed.(s) <- p);
  handle_of a s

let check a h op =
  let s = slot h in
  if
    h < 0 || s >= a.cap
    || a.gens.(s) <> generation h
    || a.tag.(s) = 0
  then
    invalid_arg
      (Printf.sprintf "Packet.%s: stale or freed handle (slot %d gen %d)" op s
         (generation h))

let free a h =
  check a h "free";
  let s = slot h in
  a.tag.(s) <- 0;
  a.boxed.(s) <- No_payload;
  a.gens.(s) <- (a.gens.(s) + 1) land gen_mask;
  a.live <- a.live - 1;
  a.free_stack.(a.free_top) <- s;
  a.free_top <- a.free_top + 1

let copy a h =
  check a h "copy";
  let s = slot h in
  let n = alloc_slot a in
  a.tag.(n) <- a.tag.(s);
  a.srcs.(n) <- a.srcs.(s);
  a.dsts.(n) <- a.dsts.(s);
  a.sizes.(n) <- a.sizes.(s);
  a.p0.(n) <- a.p0.(s);
  a.p1.(n) <- a.p1.(s);
  a.p2.(n) <- a.p2.(s);
  a.boxed.(n) <- a.boxed.(s);
  handle_of a n

let is_live a h =
  let s = slot h in
  h >= 0 && s < a.cap && a.gens.(s) = generation h && a.tag.(s) <> 0

let live_count a = a.live

let src a h = a.srcs.(slot h)
let size a h = a.sizes.(slot h)

let dst_is_multicast a h = a.dsts.(slot h) land 1 = 1
let dst_node a h = a.dsts.(slot h) lsr 1
let dst_group a h = a.dsts.(slot h) lsr 1

let is_data a h = a.tag.(slot h) = 1

let session a h = a.p0.(slot h)
let layer a h = a.p1.(slot h)
let seq a h = a.p2.(slot h)

let payload a h =
  let s = slot h in
  if a.tag.(s) = 1 then
    Data { session = a.p0.(s); layer = a.p1.(s); seq = a.p2.(s) }
  else a.boxed.(s)

let data_size = 1000
