type t = { mutable words : int array; mutable count : int }

let bits_per_word = Sys.int_size

let words_for capacity =
  max 1 ((capacity + bits_per_word - 1) / bits_per_word)

let create ?(capacity = 0) () = { words = Array.make (words_for capacity) 0; count = 0 }

let ensure t w =
  let cap = Array.length t.words in
  if w >= cap then begin
    let nw = Array.make (max (w + 1) (2 * cap)) 0 in
    Array.blit t.words 0 nw 0 cap;
    t.words <- nw
  end

let mem t i =
  i >= 0
  &&
  let w = i / bits_per_word in
  w < Array.length t.words
  && t.words.(w) land (1 lsl (i mod bits_per_word)) <> 0

let add t i =
  if i < 0 then invalid_arg "Bitset.add: negative id";
  let w = i / bits_per_word in
  ensure t w;
  let b = 1 lsl (i mod bits_per_word) in
  if t.words.(w) land b = 0 then begin
    t.words.(w) <- t.words.(w) lor b;
    t.count <- t.count + 1
  end

let remove t i =
  if i >= 0 then begin
    let w = i / bits_per_word in
    if w < Array.length t.words then begin
      let b = 1 lsl (i mod bits_per_word) in
      if t.words.(w) land b <> 0 then begin
        t.words.(w) <- t.words.(w) land lnot b;
        t.count <- t.count - 1
      end
    end
  end

let clear t =
  Array.fill t.words 0 (Array.length t.words) 0;
  t.count <- 0

let is_empty t = t.count = 0
let cardinal t = t.count
let popcount w =
  let c = ref 0 and w = ref w in
  while !w <> 0 do
    w := !w land (!w - 1);
    incr c
  done;
  !c

let union_into ~into src =
  ensure into (Array.length src.words - 1);
  for w = 0 to Array.length src.words - 1 do
    let old = into.words.(w) in
    let merged = old lor src.words.(w) in
    if merged <> old then begin
      into.words.(w) <- merged;
      into.count <- into.count + popcount (merged lxor old)
    end
  done

let iter f t =
  let words = t.words in
  for w = 0 to Array.length words - 1 do
    let word = ref words.(w) in
    let i = ref (w * bits_per_word) in
    while !word <> 0 do
      if !word land 1 <> 0 then f !i;
      word := !word lsr 1;
      incr i
    done
  done

(* Write the elements (ascending) into [buf] starting at 0; returns the
   element count. [buf] must have room for [cardinal t] — the caller
   keeps a reusable scratch array, so per-packet iteration (the
   multicast fan-out) allocates no closure. *)
let fill_into t buf =
  let words = t.words in
  let n = ref 0 in
  for w = 0 to Array.length words - 1 do
    let word = ref words.(w) in
    let i = ref (w * bits_per_word) in
    while !word <> 0 do
      if !word land 1 <> 0 then begin
        buf.(!n) <- !i;
        incr n
      end;
      word := !word lsr 1;
      incr i
    done
  done;
  !n

let elements t =
  let acc = ref [] in
  iter (fun i -> acc := i :: !acc) t;
  List.rev !acc

let of_list xs =
  let t = create () in
  List.iter (add t) xs;
  t
