include Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  (* Packed keys such as [(node lsl 21) lor session] share their low
     bits; an identity hash would put every one of them in the same
     bucket. [Hashtbl.hash] mixes all the bits. *)
  let hash = Hashtbl.hash
end)
