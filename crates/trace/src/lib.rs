//! # vc-trace
//!
//! The observability layer of the workspace: structured tracing of
//! query-model executions and mergeable sweep metrics, designed so that
//! **tracing can never perturb a measurement**.
//!
//! Two constraints shape the whole crate:
//!
//! 1. **Zero cost when disabled.** The [`Tracer`] trait's one hook has an
//!    empty default body and the [`NoopTracer`] is a zero-sized type, so
//!    the untraced execution path (`vc-model`'s `run_from_with`
//!    instantiated with [`NoopTracer`]) monomorphizes every emission to
//!    nothing — the event values are plain `Copy` data left dead, and the
//!    hot loop compiles to the same code it had before tracing existed.
//! 2. **Determinism under sharding.** The aggregating tracer
//!    ([`SweepMetrics`]) keeps purely integral state — counters and
//!    log2-bucketed histograms — so per-share partials absorbed chunk by
//!    chunk produce bit-identical totals for any worker-thread count, the
//!    same totals the serial `vc-model` runner folds. Wall-clock
//!    observations are quarantined in a separate [`metrics::SchedStats`]
//!    section that is *documented* to vary between runs and excluded from
//!    every determinism comparison.
//!
//! The tracer records the query stream and what only a share sees (its
//! wall time, a retry). The sweep's chunk ledger — the plan, and the
//! completed, aborted and skipped chunks — is `vc-engine`'s
//! `EngineReport`, not a second copy here.
//!
//! The crate is dependency-free (it sits below `vc-model` in the
//! workspace graph) and holds the only sanctioned wall-clock read in the
//! workspace: [`time::Stopwatch`] (rule VC006: clippy's
//! `disallowed_methods` refuses `Instant::now` everywhere else).
//!
//! Modules:
//!
//! * [`event`] — the typed [`event::TraceEvent`] stream a query-model
//!   execution can emit.
//! * [`tracer`] — the one-hook [`Tracer`] trait, the disabled [`NoopTracer`],
//!   the event-log [`RecordingTracer`] and the mergeable [`MergeTracer`]
//!   extension the sharded engine requires.
//! * [`hist`] — [`Log2Hist`], the fixed-shape power-of-two histogram
//!   behind every cost distribution.
//! * [`metrics`] — [`SweepMetrics`], the production tracer aggregating
//!   counters, histograms and chunk timings across a sweep.
//! * [`time`] — [`time::Stopwatch`], the workspace's single wall-clock
//!   access point.
//!
//! The machine-readable `vc-trace-report/v1` document built from these
//! metrics lives in `vc-bench` (`vc_bench::TraceReport`), next to the
//! `trace_case` sweep that fills it, so this crate needs no JSON writer.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
// VC001: library code returns errors and never aborts. Test code may
// unwrap, expect and panic (clippy.toml).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub mod event;
pub mod hist;
pub mod metrics;
pub mod time;
pub mod tracer;

pub use event::TraceEvent;
pub use hist::Log2Hist;
pub use metrics::{QueryStats, SchedStats, SweepMetrics};
pub use tracer::{MergeTracer, NoopTracer, RecordingTracer, Tracer};
