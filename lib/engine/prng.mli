(** Deterministic pseudo-random numbers.

    SplitMix64, chosen because it is tiny, fast, passes BigCrush, and —
    crucially for reproducible simulations — supports cheap *named streams*:
    every component of the simulator derives its own independent generator
    from the run seed and a label, so adding a component never perturbs the
    random draws of the others. *)

type t
(** A mutable generator. Not thread-safe; each simulation owns its own. *)

val create : seed:int64 -> t
(** A fresh generator from a 64-bit seed. *)

val split : t -> label:string -> t
(** [split g ~label] derives an independent generator keyed by [label].
    Splitting with the same label twice yields generators with identical
    future output; use distinct labels for distinct components. The parent
    generator is not advanced. *)

val int : t -> bound:int -> int
(** Uniform in [0, bound). @raise Invalid_argument if [bound <= 0]. *)

val float : t -> float
(** Uniform in [0, 1). *)

val uniform : t -> lo:float -> hi:float -> float
(** Uniform in [lo, hi). @raise Invalid_argument if [hi < lo]. *)

val bool : t -> p:float -> bool
(** Bernoulli draw: [true] with probability [p] (clamped to [0,1]). *)
