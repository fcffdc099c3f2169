(** Minimal ASCII / CSV table rendering for experiment output.

    Every experiment in [plookup_experiments] produces a [Table.t]; the
    bench harness and the CLI render it either as an aligned ASCII table
    (like the rows the paper reports) or as CSV for plotting. *)

type cell = S of string | I of int | F of float | F4 of float
(** [F] prints with 2 decimals, [F4] with 4 (for small probabilities and
    unfairness coefficients). *)

type t

val create : title:string -> columns:string list -> t
val add_row : t -> cell list -> unit
(** Row length must match the number of columns. *)

val columns : t -> string list
val rows : t -> cell list list
val cell_to_string : cell -> string
val to_ascii : t -> string
val to_csv : t -> string
val print : t -> unit
(** [to_ascii] on stdout. *)
