type 'a t = {
  capacity : int;
  mutable data : (Time.t * 'a) array;
  mutable start : int;
  mutable len : int;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Trace.create: capacity <= 0";
  { capacity; data = [||]; start = 0; len = 0 }

let record t at x =
  if Array.length t.data = 0 then t.data <- Array.make t.capacity (at, x);
  if t.len < t.capacity then begin
    t.data.((t.start + t.len) mod t.capacity) <- (at, x);
    t.len <- t.len + 1
  end
  else begin
    t.data.(t.start) <- (at, x);
    t.start <- (t.start + 1) mod t.capacity
  end

let get t i = t.data.((t.start + i) mod t.capacity)

let find_last t ~f =
  let rec loop i =
    if i < 0 then None
    else
      let (at, x) = get t i in
      if f x then Some (at, x) else loop (i - 1)
  in
  loop (t.len - 1)
