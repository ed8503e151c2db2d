(** Hash tables keyed by ints: [Int.equal] in place of polymorphic
    compare, and [Hashtbl.hash] to mix the key, so packed keys that
    differ only in their high bits still spread over the buckets. *)

include Hashtbl.S with type key = int
