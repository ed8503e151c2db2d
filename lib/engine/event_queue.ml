type backend = Heap

let backend_to_string Heap = "heap"

let default () = Heap
