(* Digests of the simulated outputs of each full-size workload at seed
   42, keyed by (workload, seed). A change that alters what is simulated
   changes a digest and fails the suite's checks; refresh these only in
   a change that means to alter simulated behaviour. *)

let digests =
  [
    (("topoB-vbr", 42), "bdb066771f4622ca0302f07c95a6547c");
    (("scale-100k", 42), "14c3fb6866383faabc16994243d8baa5");
    (("chaos-10k", 42), "45d4f35a99a0d3398e0d68ae2def8e66");
    (("engine-timers", 42), "e529ec90949aae941df04c6f56457590");
  ]
