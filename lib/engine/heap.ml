type 'a t = {
  cmp : 'a -> 'a -> int;
  mutable data : 'a array;
  mutable size : int;
}

let create ~cmp = { cmp; data = [||]; size = 0 }

let length h = h.size
let is_empty h = h.size = 0

let grow h x =
  let cap = Array.length h.data in
  if h.size = cap then begin
    let ncap = if cap = 0 then 16 else 2 * cap in
    let ndata = Array.make ncap x in
    Array.blit h.data 0 ndata 0 h.size;
    h.data <- ndata
  end

(* Vacated slots past [size] must not retain their old elements (event
   thunks capture packets); fill them with an alias of a live element.
   When the heap empties there is no live element, so drop the array. *)
let clear_dead h =
  if h.size = 0 then h.data <- [||]
  else begin
    let filler = h.data.(0) in
    for i = h.size to Array.length h.data - 1 do
      h.data.(i) <- filler
    done
  end

(* Shrink once only a quarter of the capacity is live, re-clearing the
   dead tail in the process. *)
let maybe_shrink h =
  let cap = Array.length h.data in
  if cap > 16 && h.size * 4 <= cap then begin
    if h.size = 0 then h.data <- [||]
    else begin
      let ncap = max 16 (cap / 2) in
      let ndata = Array.make ncap h.data.(0) in
      Array.blit h.data 0 ndata 0 h.size;
      h.data <- ndata
    end
  end

(* Sifts carry the displaced element in a register ("hole" technique):
   one store per level instead of a three-store swap. The unsafe
   accesses are bounds-proven — every index is < size <= capacity.
   Elements are totally ordered (the simulator's (time, seq) keys are
   unique), so tie-breaking differences against the textbook
   swap-based sift cannot arise. *)
let rec sift_hole_up h x i =
  if i = 0 then Array.unsafe_set h.data 0 x
  else begin
    let parent = (i - 1) / 2 in
    let p = Array.unsafe_get h.data parent in
    if h.cmp x p < 0 then begin
      Array.unsafe_set h.data i p;
      sift_hole_up h x parent
    end
    else Array.unsafe_set h.data i x
  end

let rec sift_hole_down h x i =
  let l = (2 * i) + 1 in
  if l >= h.size then Array.unsafe_set h.data i x
  else begin
    let r = l + 1 in
    let c =
      if
        r < h.size
        && h.cmp (Array.unsafe_get h.data r) (Array.unsafe_get h.data l) < 0
      then r
      else l
    in
    let cx = Array.unsafe_get h.data c in
    if h.cmp cx x < 0 then begin
      Array.unsafe_set h.data i cx;
      sift_hole_down h x c
    end
    else Array.unsafe_set h.data i x
  end

let sift_down h i = sift_hole_down h h.data.(i) i

let push h x =
  grow h x;
  h.size <- h.size + 1;
  sift_hole_up h x (h.size - 1)

let peek h = if h.size = 0 then None else Some h.data.(0)

let peek_exn h =
  if h.size = 0 then invalid_arg "Heap.peek_exn: empty";
  h.data.(0)

(* [pop_exn] exists so per-event callers (the simulator loop) pay no
   [Some] allocation per pop. *)
let pop_exn h =
  if h.size = 0 then invalid_arg "Heap.pop_exn: empty";
  let root = h.data.(0) in
  h.size <- h.size - 1;
  if h.size > 0 then begin
    (* The vacated slot keeps aliasing the element being re-sifted
       (live wherever it lands), so the popped root is not retained. *)
    let last = h.data.(h.size) in
    sift_hole_down h last 0
  end
  else h.data <- [||];
  maybe_shrink h;
  root

let pop h = if h.size = 0 then None else Some (pop_exn h)

let filter h keep =
  let j = ref 0 in
  for i = 0 to h.size - 1 do
    if keep h.data.(i) then begin
      h.data.(!j) <- h.data.(i);
      incr j
    end
  done;
  h.size <- !j;
  clear_dead h;
  (* Floyd heapify: restore the heap order bottom-up in O(n). *)
  for i = (h.size / 2) - 1 downto 0 do
    sift_down h i
  done;
  maybe_shrink h

let capacity h = Array.length h.data
