(** Paper-style table and series printing for the experiment harness.

    Everything prints to a [Format] formatter so the bench binary can
    tee it; layouts echo the paper's tables so EXPERIMENTS.md can be
    checked against the output line by line. *)

val section : Format.formatter -> string -> string -> unit
(** [section ppf id title] prints a banner like
    ["== F2: Histogram of distinct AS-paths =="]. *)

val table :
  Format.formatter -> header:string list -> string list list -> unit
(** Fixed-width table; columns sized to the widest cell. *)

val int_series : Format.formatter -> x:string -> y:string -> (int * int) list -> unit
(** Two-column series for figures (histograms, CCDFs). *)

val kv : Format.formatter -> (string * string) list -> unit
(** Aligned key/value block. *)
