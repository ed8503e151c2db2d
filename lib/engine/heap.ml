type 'a t = {
  cmp : 'a -> 'a -> int;
  mutable data : 'a array;
  mutable size : int;
}

let create ~cmp = { cmp; data = [||]; size = 0 }

let grow h x =
  let cap = Array.length h.data in
  if h.size = cap then begin
    let ncap = if cap = 0 then 16 else 2 * cap in
    let ndata = Array.make ncap x in
    Array.blit h.data 0 ndata 0 h.size;
    h.data <- ndata
  end

(* Shrink once only a quarter of the capacity is live. The new array's
   dead tail is filled with an alias of a live element, so it retains
   nothing that was popped. An empty heap holds no array at all, so
   [size > 0] here. *)
let maybe_shrink h =
  let cap = Array.length h.data in
  if cap > 16 && h.size * 4 <= cap then begin
    let ndata = Array.make (cap / 2) h.data.(0) in
    Array.blit h.data 0 ndata 0 h.size;
    h.data <- ndata
  end

(* Sifts carry the displaced element in a register ("hole" technique):
   one store per level instead of a three-store swap. The unsafe
   accesses are bounds-proven — every index is < size <= capacity. *)
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

let push h x =
  grow h x;
  h.size <- h.size + 1;
  sift_hole_up h x (h.size - 1)

let peek h = if h.size = 0 then None else Some h.data.(0)

let pop h =
  if h.size = 0 then None
  else begin
    let root = h.data.(0) in
    h.size <- h.size - 1;
    if h.size > 0 then
      (* The vacated slot keeps aliasing the element being re-sifted
         (live wherever it lands), so the popped root is not retained. *)
      sift_hole_down h h.data.(h.size) 0
    else h.data <- [||];
    maybe_shrink h;
    Some root
  end

let capacity h = Array.length h.data
