(** Report helpers: render experiment outputs in the layout the paper uses
    and annotate shape claims (linear growth, win factors). *)

val shape_line : xs:float list -> ys:float list -> string
(** Least-squares summary ["slope=… intercept=… R²=…"] — quantifies the
    O(n) claims of Figure 8. Returns a note when fewer than 2 points. *)

val factor : float -> float -> string
(** [factor a b] renders how many times larger [a] is than [b] ("3.2x"). *)

val header : string -> unit
(** Print a prominent section header. *)

val para : string -> unit
(** Print a paragraph followed by a blank line. *)

val ladder_table :
  ?title:string -> Repro_obs.Trace_ctx.ladder -> Repro_util.Table.t
(** Render the receipt-ladder latency snapshots as a table: one row per
    stage (submit queue, then accept / preack / ack / deliver) with sample
    count, mean and p50/p90/p99 in milliseconds (quantiles are log₂-bucket
    upper bounds, see {!Repro_obs.Histogram}). *)

val pac_table : ?title:string -> Pac.curve list -> Repro_util.Table.t
(** Render one column per protocol curve over the union of their
    deadlines (each cell is the curve's value at the largest evaluated
    deadline [<=] the row's, so columns stay comparable even when grids
    differ), plus a terminal-probability footer row. *)

val attribution_table :
  ?title:string -> Repro_obs.Critpath.summary -> Repro_util.Table.t
(** Render the per-cause delivery-delay decomposition: one row per
    segment class (net / batch_queue / ret_recovery / cpi_wait /
    ack_wait) with segment count, total and max milliseconds, and share
    of attributed time, plus a total row — shares sum to 100% because
    segments cover delivery latency exactly. *)
