(** Monotonic clock for latency stamps.

    [Unix.gettimeofday] steps under NTP corrections, so two stamps taken
    around a wall-clock adjustment can yield a negative latency. Every
    elapsed-time measurement in the repo (the UDP transport's µs stamps,
    run deadlines) reads this clock instead; wall-clock time is only ever
    taken once per run, for human-readable log headers. Backed by
    [clock_gettime(CLOCK_MONOTONIC)] through a one-function C stub — the
    toolchain's [Unix] library predates [Unix.clock_gettime]. *)

val now_ns : unit -> int64
(** Nanoseconds since an arbitrary fixed origin; never steps backwards.
    Only differences are meaningful. *)

val now_us : unit -> int
(** [now_ns] scaled to whole microseconds (the unit the receipt-ladder
    recorder and the UDP transport stamp with). *)

val now_s : unit -> float
(** [now_ns] as float seconds, for coarse deadlines. *)
