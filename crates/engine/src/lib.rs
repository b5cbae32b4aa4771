//! # vc-engine
//!
//! A sharded, deterministic, fault-hardened sweep runner for the
//! query-model experiments.
//!
//! The experiments of the paper sweep an algorithm over every (or a sampled
//! set of) start node(s) of an instance (`run_all` in `vc-model`). The
//! executions are independent — the query model gives each initiating node
//! its own visited set `V_v` (§2.2) — so the sweep is embarrassingly
//! parallel. This crate shards the start set over `std::thread::scope`
//! worker threads while keeping the result **bit-for-bit identical to the
//! serial runner for any thread count**:
//!
//! * The start set is cut into equal-size chunks by [`plan_chunks`], a pure
//!   function of the number of starts — never of the number of workers — so
//!   the partition boundaries are identical for every thread count. Workers
//!   claim chunks from a shared atomic counter; inside a claimed chunk they
//!   draw starts from the chunk's cursor one at a time, and a worker with no
//!   chunk left to claim helps finish the claimed ones. Scheduling is racy,
//!   but each chunk's content and index are not.
//! * Each participant folds its starts into its own share; the merge puts a
//!   chunk's shares back in start order and the chunks in chunk order, so
//!   the merged [`RunReport`] lists records exactly like the serial runner.
//! * Cost aggregation goes through [`CostAccumulator`], whose partial state
//!   is purely integral; merging per-share partials yields the same
//!   [`CostSummary`] bits as a serial fold however starts were distributed.
//!
//! ## Robustness (DESIGN.md §11)
//!
//! Sweeps degrade gracefully instead of dying:
//!
//! * **Panic isolation.** Every share runs under `catch_unwind`. A panic in
//!   any share poisons its chunk, which is re-run once, whole, from a fresh
//!   scratch; a chunk that panics on every attempt lands in
//!   [`EngineReport::aborted_chunks`] and its starts simply carry no
//!   outputs/records. Panics are deterministic (same algorithm, same chunk,
//!   same inputs), so the aborted set — and therefore the merged summary
//!   over the surviving chunks — is identical for every thread count.
//! * **Cooperative cancel.** A [`CancelFlag`] stops workers between
//!   starts and drops the chunks it cut short, so only whole chunks are
//!   ever merged or checkpointed; the report is flagged
//!   [`EngineReport::degraded`].
//! * **Deterministic kill proxy.** [`Engine::with_chunk_quota`] stops
//!   claims after a fixed number of chunks — because claims are sequential,
//!   a quota-`k` run executes exactly chunks `0..k` for any thread count.
//!   The checkpoint tests use this as a reproducible "kill".
//! * **Checkpoint / resume.** Under [`Engine::with_checkpoint`] a sweep
//!   persists per-chunk [`ExecutionRecord`]s to a
//!   `vc-engine-checkpoint/v4` file — one line of integer columns per
//!   chunk, keyed by the content-addressed [`SweepIdentity`] and sealed
//!   once complete — and resumes exactly where a previous (killed) run
//!   stopped; the final file is byte-identical to an unbroken run's (see
//!   the `checkpoint` module).
//!
//! [`Engine::run_all_traced`] additionally aggregates a
//! [`vc_trace::MergeTracer`] (one fresh tracer per share, absorbed in chunk
//! order), extending the same any-thread-count determinism guarantee to the
//! tracer's mergeable state; see DESIGN.md §10 for the event model and why
//! tracing cannot perturb the sweep. Every sweep — even at one worker —
//! takes the chunked path, so panic isolation and chunk-level event counts
//! are uniform across thread counts.
//!
//! ## Fleet execution (DESIGN.md §15–16)
//!
//! Because the chunk plan is a pure function of the start count, the sweep
//! can be sharded across *processes* as well as threads:
//! [`Engine::with_chunk_set`] (or `VC_CHUNKS=lo..hi/total`, including
//! non-contiguous sets like `VC_CHUNKS=3..7,12/40`) restricts a run to a
//! disjoint subset of the planned chunks, each worker process checkpoints
//! its claim, and [`splice_checkpoints`] recombines the partial files
//! into one checkpoint byte-identical to a single-process run. The set
//! never enters the [`SweepId`] — all partitions of one sweep share one
//! identity — and chunks outside the configured set are reported in
//! [`EngineReport::out_of_range_chunks`], distinct from the degradation
//! ledgers: a partition worker that finishes its claim is healthy, not
//! degraded. A checkpointed worker appends each completed chunk's line to
//! its partial file as it lands, turning it into a progress heartbeat;
//! when a worker dies anyway, [`splice_partial`] merges what exists and names
//! the gap, so a supervisor (the `vc-fleet` crate) can reassign exactly
//! the missing chunks. See `examples/fleet_sweep.rs` for the supervised
//! drill (spawn, kill, reassign, merge).
//!
//! The worker count defaults to `std::thread::available_parallelism` and can
//! be overridden with the `VC_THREADS` environment variable. Malformed
//! ambient configuration (`VC_THREADS=0`, `VC_THREADS=abc`,
//! `VC_CHUNKS=512..0/2048`) is a loud [`EnvError`] from
//! [`Engine::from_env`], never silently ignored; so is any value of the
//! retired `VC_DEADLINE_MS`.

#![deny(missing_docs)]

pub mod checkpoint;
pub mod partition;
pub mod splice;

use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;
use vc_graph::Instance;
use vc_model::cost::{CostAccumulator, CostSummary, ExecutionRecord};
use vc_model::oracle::ExecScratch;
use vc_model::run::{run_from_traced, QueryAlgorithm, RunConfig, RunReport};
use vc_trace::time::Stopwatch;
use vc_trace::{MergeTracer, NoopTracer, TraceEvent};

pub use checkpoint::{
    line_chunk, sealed_identity, sweep_identity, EngineError, SweepCheckpoint, SweepIdentity,
    CHECKPOINT_SCHEMA,
};
pub use partition::{ChunkSet, RangeError, CHUNKS_ENV};
pub use splice::{format_chunk_groups, splice_checkpoints, splice_partial, SpliceError};
pub use vc_graph::write_atomically;
pub use vc_ident::{InstanceId, SweepId};

use checkpoint::{LiveCheckpointSink, OpenCheckpoint};

/// Smallest start count per work chunk. Small sweeps (at most
/// [`TARGET_CHUNKS`] × this many starts) are partitioned into chunks of
/// exactly this size, matching the fixed `CHUNK = 64` the engine used
/// before adaptive planning — existing sweep identities and checkpoints
/// are unchanged.
pub const MIN_CHUNK_STARTS: usize = 64;

/// Largest start count per work chunk. Caps per-chunk latency so the
/// claim boundary — the cooperative stop point for quotas — is hit
/// often enough even on million-start sweeps.
pub const MAX_CHUNK_STARTS: usize = 4096;

/// Preferred chunk count for a sweep. Sized at roughly 16× a typical
/// 8-worker engine so work-stealing keeps every thread busy until the
/// tail of the sweep without drowning the merge in tiny chunks.
pub const TARGET_CHUNKS: usize = 128;

/// The size-adaptive partition of a start set into work chunks.
///
/// Produced by [`plan_chunks`]; both fields are pure functions of the
/// start count, so the partition — and therefore the merge order of
/// outputs, records and cost partials — is identical for every thread
/// count. The planned `chunk_size` is folded into the content-addressed
/// [`SweepId`], so a checkpoint taken under one plan can never be resumed
/// under another.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChunkPlan {
    /// Start nodes per chunk (the final chunk may be shorter).
    pub chunk_size: usize,
    /// Total chunks covering the start set.
    pub num_chunks: usize,
}

impl ChunkPlan {
    /// The half-open start-index range `[lo, hi)` of chunk `chunk` within
    /// a start set of `num_starts` starts.
    pub fn bounds(&self, chunk: usize, num_starts: usize) -> (usize, usize) {
        let lo = chunk * self.chunk_size;
        (lo, num_starts.min(lo + self.chunk_size))
    }
}

/// Plans the chunk partition for a sweep over `num_starts` start nodes.
///
/// The chunk size grows with the sweep — `num_starts / TARGET_CHUNKS`,
/// clamped to `[MIN_CHUNK_STARTS, MAX_CHUNK_STARTS]` — so small sweeps
/// keep the historical 64-start chunks while a 10⁶-start sweep gets ~245
/// chunks of 4096 instead of 15625 chunks of 64. The plan depends only on
/// `num_starts`: thread counts and quotas never move a chunk boundary, which is what keeps merged results byte-identical for every
/// thread count and lets a checkpoint resume under a different worker
/// count.
pub fn plan_chunks(num_starts: usize) -> ChunkPlan {
    let chunk_size = num_starts
        .div_ceil(TARGET_CHUNKS)
        .clamp(MIN_CHUNK_STARTS, MAX_CHUNK_STARTS);
    ChunkPlan {
        chunk_size,
        num_chunks: num_starts.div_ceil(chunk_size),
    }
}

/// Environment variable overriding the worker-thread count.
pub const THREADS_ENV: &str = "VC_THREADS";

/// The retired deadline variable. [`Engine::from_env`] refuses any value
/// of it, so a command written for a time-boxed sweep fails loudly
/// instead of running unbounded.
const RETIRED_DEADLINE_VAR: &str = "VC_DEADLINE_MS";

/// Attempts per chunk: the first run plus one retry from a fresh scratch.
/// Bounded so a deterministically-panicking chunk cannot spin forever.
pub const MAX_CHUNK_ATTEMPTS: u32 = 2;

/// A shared cooperative cancellation flag, checked by workers before they
/// draw each start.
///
/// Cloning shares the flag. Once [`CancelFlag::cancel`] is called, workers
/// finish the starts they are running and stop. A claimed chunk whose
/// starts did not all run is abandoned whole and lands in
/// [`EngineReport::skipped_chunks`], so the merged report is always a
/// valid chunk-order merge of completed chunks. A resumed checkpointed
/// run first completes a chunk (see [`Engine::with_checkpoint`]).
#[derive(Clone, Debug, Default)]
pub struct CancelFlag(Arc<AtomicBool>);

impl CancelFlag {
    /// A fresh, uncancelled flag.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation; idempotent.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// A malformed engine environment variable (`VC_THREADS`, `VC_CHUNKS`,
/// or the retired `VC_DEADLINE_MS`). Ambient typos must be loud: a
/// silently ignored `VC_THREADS=abc` runs the sweep with a different
/// parallelism than the operator asked for.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EnvError {
    /// The offending environment variable.
    pub var: &'static str,
    /// What was wrong with its value.
    pub message: String,
}

impl std::fmt::Display for EnvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad {} value: {}", self.var, self.message)
    }
}

impl std::error::Error for EnvError {}

/// Parses a `VC_THREADS` value: a positive integer worker count.
fn parse_threads(raw: &str) -> Result<usize, EnvError> {
    match raw.trim().parse::<usize>() {
        Ok(0) => Err(EnvError {
            var: THREADS_ENV,
            message: "0 workers cannot run a sweep; use 1 or more".to_string(),
        }),
        Ok(t) => Ok(t),
        Err(_) => Err(EnvError {
            var: THREADS_ENV,
            message: format!("`{}` is not a positive integer", raw.trim()),
        }),
    }
}

/// Refuses a non-blank value of the retired `VC_DEADLINE_MS`.
fn refuse_retired_deadline(raw: &str) -> Result<(), EnvError> {
    if raw.trim().is_empty() {
        return Ok(());
    }
    Err(EnvError {
        var: RETIRED_DEADLINE_VAR,
        message: format!(
            "`{}`: the variable is retired, and a sweep no longer stops on a deadline; \
             a CancelFlag (Engine::with_cancel_flag) stops a sweep",
            raw.trim()
        ),
    })
}

/// A sharded sweep runner: a worker-thread count, optional stops (chunk
/// quota, cancel flag), an optional chunk set, and an optional checkpoint
/// file with the identity of the sweep it holds.
#[derive(Clone, Debug)]
pub struct Engine {
    threads: usize,
    quota: Option<usize>,
    cancel: Option<CancelFlag>,
    set: Option<ChunkSet>,
    checkpoint: Option<PathBuf>,
    identity: Option<SweepIdentity>,
}

impl Engine {
    /// An engine with the ambient configuration: worker count from the
    /// `VC_THREADS` environment variable when set to a positive integer
    /// (otherwise `std::thread::available_parallelism`, otherwise 1) and a
    /// chunk set from `VC_CHUNKS=lo..hi/total` / `VC_CHUNKS=3..7,12/40`
    /// when set (the fleet-worker path; see [`Engine::with_chunk_set`]).
    /// Unset or blank variables mean "use the default"; anything else
    /// must parse.
    ///
    /// # Errors
    ///
    /// [`EnvError`] when a variable is set to garbage (`VC_THREADS=0`,
    /// `VC_THREADS=abc`, `VC_CHUNKS=512..0/2048`, …) or the retired
    /// `VC_DEADLINE_MS` is set at all — a startup error, never a silently
    /// ignored override.
    pub fn from_env() -> Result<Self, EnvError> {
        if let Ok(raw) = std::env::var(RETIRED_DEADLINE_VAR) {
            refuse_retired_deadline(&raw)?;
        }
        let threads = match std::env::var(THREADS_ENV) {
            Ok(raw) if !raw.trim().is_empty() => parse_threads(&raw)?,
            _ => std::thread::available_parallelism().map_or(1, |n| n.get()),
        };
        let mut engine = Self::with_threads(threads);
        engine.set = match std::env::var(CHUNKS_ENV) {
            Ok(raw) if !raw.trim().is_empty() => {
                Some(ChunkSet::parse(&raw).map_err(|e| EnvError {
                    var: CHUNKS_ENV,
                    message: e.to_string(),
                })?)
            }
            _ => None,
        };
        Ok(engine)
    }

    /// An engine with exactly `threads` workers (clamped to at least 1) and
    /// no limits.
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
            quota: None,
            cancel: None,
            set: None,
            checkpoint: None,
            identity: None,
        }
    }

    /// Stops the sweep after the first `quota` chunks. Chunk claims are
    /// handed out sequentially, so a quota-`k` run executes exactly chunks
    /// `0..k` **for any thread count** — a deterministic stand-in for a
    /// mid-sweep kill, used by the checkpoint/resume tests and CI.
    pub fn with_chunk_quota(mut self, quota: usize) -> Self {
        self.quota = Some(quota);
        self
    }

    /// Attaches a cooperative cancellation flag checked before every start
    /// (e.g. from a signal handler or another thread); see [`CancelFlag`].
    pub fn with_cancel_flag(mut self, flag: CancelFlag) -> Self {
        self.cancel = Some(flag);
        self
    }

    /// Restricts the sweep to the chunks inside `set` — the worker side
    /// of fleet execution (DESIGN.md §15/§16). Claims walk the set's
    /// chunks in ascending order; chunks outside it land in
    /// [`EngineReport::out_of_range_chunks`] and do **not** mark the
    /// report degraded. The set's `total` must equal the sweep's planned
    /// chunk count or the run fails loudly with
    /// [`RangeError::PlanMismatch`]. A quota
    /// ([`Engine::with_chunk_quota`]) counts *within* the set: quota `k`
    /// executes exactly the set's first `k` chunks. Supervisors use
    /// non-contiguous sets to reassign exactly a dead worker's missing
    /// chunks instead of a whole slice.
    pub fn with_chunk_set(mut self, set: ChunkSet) -> Self {
        self.set = Some(set);
        self
    }

    /// Checkpoints the sweep to the `vc-engine-checkpoint/v4` file at
    /// `path`. A run loads the chunks the file holds (no file is a fresh
    /// start), runs only the others and writes the file back, sealed once
    /// every chunk is present; a sealed file runs nothing and keeps its
    /// bytes. The report's records, summary and
    /// [`EngineReport::completed_chunks`] cover every chunk in the file,
    /// so once [`EngineReport::is_complete`] they equal an unbroken
    /// [`Engine::run_all`]'s, however many kills and resumes came between
    /// and at any thread count. Outputs are not checkpointed (see the
    /// `checkpoint` module): they cover this run's chunks only.
    ///
    /// An unrestricted run writes its file whole at its end. A run
    /// restricted by [`Engine::with_chunk_set`] — a fleet worker — stamps
    /// the file with its set ([`SweepCheckpoint::partition`]) and appends
    /// each chunk's line as it lands, so its part file is a progress
    /// heartbeat; the disjoint parts splice back into one full checkpoint
    /// with [`splice_checkpoints`].
    ///
    /// A cancel stops a fresh run between starts; chunks it cut short
    /// are written as missing. A run that loaded an existing file claims
    /// its first chunk even if the flag is set and finishes the chunks it
    /// claims, so every resume completes at least one chunk.
    pub fn with_checkpoint(mut self, path: impl Into<PathBuf>) -> Self {
        self.checkpoint = Some(path.into());
        self
    }

    /// Hands a checkpointed run the [`SweepIdentity`] of its sweep, so it
    /// skips the fold over the whole instance. `identity` must be
    /// [`sweep_identity`] of the sweep (debug builds re-fold and assert
    /// it); a file whose `sweep_id` or chunk count differs from it is
    /// still refused. A run without a checkpoint file does not read it.
    pub fn with_identity(mut self, identity: SweepIdentity) -> Self {
        self.identity = Some(identity);
        self
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The configured chunk set, if any.
    pub fn chunk_set(&self) -> Option<&ChunkSet> {
        self.set.as_ref()
    }

    /// Runs `algo` from every selected start node of `inst`, sharding the
    /// sweep over the engine's worker threads: [`Engine::run_all_traced`]
    /// without a tracer.
    ///
    /// # Errors
    ///
    /// As [`Engine::run_all_traced`].
    pub fn run_all<A>(
        &self,
        inst: &Instance,
        algo: &A,
        config: &RunConfig,
    ) -> Result<EngineReport<A::Output>, EngineError>
    where
        A: QueryAlgorithm + Sync,
        A::Output: Send,
    {
        self.run_all_traced::<A, NoopTracer>(inst, algo, config)
            .map(|(report, _)| report)
    }

    /// Runs `algo` from every selected start node of `inst`, sharding the
    /// sweep over the engine's worker threads, with a [`MergeTracer`]
    /// aggregated across the sweep; returns the merged tracer next to the
    /// report. Every sweep, checkpointed or not, runs here.
    ///
    /// Outputs, records and the cost summary are bit-for-bit identical to
    /// `vc_model::run::run_all` for every thread count; only
    /// [`EngineReport::elapsed`] (and the throughput rates derived from it)
    /// varies between runs. Panicking chunks are retried and, failing that,
    /// abandoned (see [`EngineReport::aborted_chunks`]); quota and cancel
    /// limits skip chunks (see [`EngineReport::skipped_chunks`]).
    ///
    /// Each share of a chunk folds its events into a fresh `T::default()`;
    /// the partials are absorbed chunk by chunk in index order, so — like
    /// the cost summary — the merged tracer is bit-identical for every
    /// thread count. Per-share wall times (`ChunkTimed` events) are
    /// measured only when `T::TIMED` is set, and are inherently
    /// schedule-dependent: mergeable tracers must quarantine them away
    /// from their deterministic state (see `SweepMetrics`' query/sched
    /// split in `vc-trace`).
    ///
    /// # Errors
    ///
    /// [`EngineError::Start`] when the configured start selection is
    /// invalid (same as the serial runner), [`EngineError::Partition`]
    /// when a configured chunk set does not fit the sweep's plan, and,
    /// under [`Engine::with_checkpoint`], [`EngineError::Io`] when the
    /// file cannot be read or written and [`EngineError::BadCheckpoint`]
    /// when it is malformed or belongs to another sweep.
    pub fn run_all_traced<A, T>(
        &self,
        inst: &Instance,
        algo: &A,
        config: &RunConfig,
    ) -> Result<(EngineReport<A::Output>, T), EngineError>
    where
        A: QueryAlgorithm + Sync,
        A::Output: Send,
        T: MergeTracer,
    {
        let sw = Stopwatch::start();
        let starts = config.starts.starts(inst.n())?;
        let plan = plan_chunks(starts.len());
        if let Some(set) = &self.set {
            // A set cut from another plan would partition a sweep the
            // coordinator never cut.
            set.check_plan(plan.num_chunks)?;
        }
        let file = match &self.checkpoint {
            Some(path) => {
                let fold = || sweep_identity(inst, algo, config, &starts);
                let identity = self.identity.unwrap_or_else(fold);
                debug_assert_eq!(identity, fold(), "handed another sweep's identity");
                let set = self.set.as_ref();
                Some(OpenCheckpoint::open(path, identity, plan.num_chunks, set)?)
            }
            None => None,
        };
        let run = run_sharded::<A, T>(self, inst, algo, config, &starts, plan, file.as_ref());
        let (records, acc, completed_chunks) = match file {
            Some(file) => file.commit(plan, starts.len(), &run.executed, run.report.records)?,
            None => (run.report.records, run.acc, run.executed.len()),
        };
        let report = EngineReport {
            report: RunReport {
                outputs: run.report.outputs,
                records,
            },
            summary: acc.finish(),
            total_queries: acc.total_queries(),
            threads: run.workers,
            elapsed: sw.elapsed(),
            degraded: !run.aborted.is_empty() || !run.skipped.is_empty(),
            aborted_chunks: run.aborted,
            skipped_chunks: run.skipped,
            out_of_range_chunks: run.out_of_range,
            completed_chunks,
            num_chunks: plan.num_chunks,
        };
        Ok((report, run.tracer))
    }
}

/// One participant's share of a chunk: the starts it drew, tagged with
/// their index in the start set, plus its cost partial and its tracer
/// partial (a [`NoopTracer`] on the untraced path).
struct Share<O, T> {
    outs: Vec<(usize, O, ExecutionRecord)>,
    acc: CostAccumulator,
    tracer: T,
}

/// One chunk's shared state. Its participants — the worker that claimed
/// it and any idle worker helping — draw starts from `cursor` one at a
/// time and land their shares here.
struct ChunkCell<O, T> {
    /// Starts in the chunk.
    len: usize,
    /// Chunk-local offset of the next start to draw.
    cursor: AtomicUsize,
    /// Set by the first share that panics.
    poisoned: AtomicBool,
    /// The landed shares and the number of starts they cover.
    landed: Mutex<(usize, Vec<Share<O, T>>)>,
}

impl<O, T> ChunkCell<O, T> {
    /// Lands a share. An attempt-0 share of a poisoned chunk is dropped;
    /// a retry's outcome replaces every share (`None`: the chunk is
    /// aborted). The landing that completes the chunk commits its records
    /// to the live sink, so each chunk is committed once.
    fn land(
        &self,
        share: Option<Share<O, T>>,
        retry: bool,
        chunk: usize,
        sink: Option<&LiveCheckpointSink>,
    ) {
        // `poisoned` is only read under this lock, and the retrier swaps it
        // before it takes the lock, so `Relaxed` is enough: the lock orders
        // every landing against the retry's.
        let mut landed = self.landed.lock().unwrap_or_else(PoisonError::into_inner);
        if retry {
            *landed = (0, Vec::new());
        } else if self.poisoned.load(Ordering::Relaxed) {
            return;
        }
        let Some(share) = share else { return };
        let n = share.outs.len();
        landed.0 += n;
        landed.1.push(share);
        if let Some(sink) = sink.filter(|_| n > 0 && landed.0 == self.len) {
            let mut outs: Vec<_> = landed.1.iter().flat_map(|s| &s.outs).collect();
            outs.sort_unstable_by_key(|&&(i, _, _)| i);
            sink.commit(chunk, outs.iter().map(|(_, _, rec)| rec));
        }
    }
}

/// A merged sharded sweep, before packaging into an [`EngineReport`].
struct ShardedRun<O, T> {
    report: RunReport<O>,
    acc: CostAccumulator,
    tracer: T,
    /// Chunks abandoned after exhausting panic retries, ascending.
    aborted: Vec<usize>,
    /// Chunks never executed or cut short (quota/cancel), ascending.
    skipped: Vec<usize>,
    /// Chunks outside the configured chunk range, ascending.
    out_of_range: Vec<usize>,
    /// Chunks executed by *this* run, ascending: their records lie in
    /// `report.records` back to back, in this order.
    executed: Vec<usize>,
    workers: usize,
}

/// The sweep-wide immutable inputs every share reads: the instance, the
/// algorithm, the run configuration, the resolved start set, the chunk
/// plan over it and the per-start cancel flag. Shared by reference
/// across all workers.
struct SweepInputs<'a, A> {
    inst: &'a Instance,
    algo: &'a A,
    config: &'a RunConfig,
    starts: &'a [usize],
    plan: ChunkPlan,
    cancel: Option<&'a CancelFlag>,
}

/// Runs starts of `chunk` drawn one at a time from `cursor` until none is
/// left or the cancel flag is set, folding them into one [`Share`].
/// `claim` is `Some(attempt)` for the share that announces the chunk —
/// the claimer's (attempt 0) or a retry's — and `None` for a helper's.
/// The `catch_unwind` here is the only one in the workspace (see the
/// `centralized-panic-isolation` lint); it wraps exactly one share.
fn run_share<A, T>(
    sweep: &SweepInputs<'_, A>,
    chunk: usize,
    cursor: &AtomicUsize,
    claim: Option<u32>,
    scratch: &mut ExecScratch,
) -> std::thread::Result<Share<A::Output, T>>
where
    A: QueryAlgorithm + Sync,
    T: MergeTracer,
{
    let SweepInputs {
        inst,
        algo,
        config,
        starts,
        plan,
        cancel,
    } = *sweep;
    // `AssertUnwindSafe` is sound here: on panic the scratch (the only
    // state witnessed across the boundary) is discarded and rebuilt, the
    // share's partial results never leave the closure, and the chunk is
    // re-run whole from a private cursor.
    std::panic::catch_unwind(AssertUnwindSafe(|| {
        let (lo, hi) = plan.bounds(chunk, starts.len());
        // Room for every start not yet drawn: exact for a lone share.
        let undrawn = (hi - lo).saturating_sub(cursor.load(Ordering::Relaxed));
        let mut outs = Vec::with_capacity(undrawn);
        let mut acc = CostAccumulator::default();
        // Each share folds its events into a fresh tracer; `T::TIMED` is
        // a const, so the untraced instantiation reads no clock.
        let mut tracer = T::default();
        if let Some(attempt) = claim {
            tracer.event(TraceEvent::ChunkClaimed {
                chunk,
                starts: hi - lo,
            });
            if attempt > 0 {
                tracer.event(TraceEvent::ChunkRetried { chunk, attempt });
            }
        }
        let sw = T::TIMED.then(Stopwatch::start);
        // A cancel leaves the chunk short; the merge drops it.
        while !cancel.is_some_and(CancelFlag::is_cancelled) {
            let i = lo + cursor.fetch_add(1, Ordering::Relaxed);
            if i >= hi {
                break;
            }
            let (out, rec) = run_from_traced(inst, algo, starts[i], config, scratch, &mut tracer);
            acc.add(&rec);
            outs.push((i, out, rec));
        }
        if let Some(sw) = sw {
            tracer.event(TraceEvent::ChunkTimed {
                chunk,
                nanos: sw.elapsed_nanos(),
            });
        }
        Share { outs, acc, tracer }
    }))
}

/// Runs one share of `chunk` — the claimer's (`claim`) or a helper's —
/// and lands it. The first share to panic poisons the chunk, and its
/// worker re-runs the whole chunk from a fresh scratch through the same
/// runner with a private cursor; the outcome replaces every share.
fn participate<A, T>(
    sweep: &SweepInputs<'_, A>,
    cell: &ChunkCell<A::Output, T>,
    chunk: usize,
    claim: bool,
    scratch: &mut ExecScratch,
    sink: Option<&LiveCheckpointSink>,
) where
    A: QueryAlgorithm + Sync,
    T: MergeTracer,
{
    let mut result = run_share(sweep, chunk, &cell.cursor, claim.then_some(0), scratch);
    let retry = result.is_err();
    if retry {
        // A panicking share may leave the scratch mid-epoch; rebuild it.
        // The payload was already reported by the panic hook — loud,
        // never silent. Only the first worker to poison retries.
        *scratch = ExecScratch::new();
        if cell.poisoned.swap(true, Ordering::Relaxed) {
            return;
        }
        for attempt in 1..MAX_CHUNK_ATTEMPTS {
            result = run_share(sweep, chunk, &AtomicUsize::new(0), Some(attempt), scratch);
            if result.is_ok() {
                break;
            }
            *scratch = ExecScratch::new();
        }
    }
    cell.land(result.ok(), retry, chunk, sink);
}

/// Runs the sweep's claimable chunks on `engine`'s workers and merges
/// them in chunk order. Chunks `file` already holds are neither claimed
/// nor helped, and each completed chunk is committed to its sink.
fn run_sharded<A, T>(
    engine: &Engine,
    inst: &Instance,
    algo: &A,
    config: &RunConfig,
    starts: &[usize],
    plan: ChunkPlan,
    file: Option<&OpenCheckpoint<'_>>,
) -> ShardedRun<A::Output, T>
where
    A: QueryAlgorithm + Sync,
    A::Output: Send,
    T: MergeTracer,
{
    let num_chunks = plan.num_chunks;
    let is_done = |c: usize| file.is_some_and(|f| f.is_done(c));
    let sink = file.and_then(|f| f.sink.as_ref());
    // The claim sequence is the configured set's chunks in ascending
    // order (the full plan when unrestricted), further clamped by the
    // chunk quota — which counts within the sequence so a fleet worker
    // can be "killed" after k of *its* chunks.
    let claims: Vec<usize> = match &engine.set {
        Some(set) => set.chunks().collect(),
        None => (0..num_chunks).collect(),
    };
    let claim_limit = engine.quota.map_or(claims.len(), |q| q.min(claims.len()));
    // No more workers than chunks left to run: the resume of a sealed
    // file runs on the calling thread alone.
    let open = claims.iter().filter(|&&c| !is_done(c)).count();
    let workers = engine.threads.min(open.max(1));
    // A run that resumed a file lets its cancel flag act only at claim
    // boundaries after its first claim, so every resume completes a chunk.
    let resumed = file.is_some_and(|f| f.resumed);
    let cancel = engine.cancel.as_ref();
    let should_stop =
        |claimed: bool| (claimed || !resumed) && cancel.is_some_and(CancelFlag::is_cancelled);
    let next = AtomicUsize::new(0);
    let claimed = AtomicBool::new(false);
    let sweep = SweepInputs {
        inst,
        algo,
        config,
        starts,
        plan,
        cancel: cancel.filter(|_| !resumed),
    };
    let cells: Vec<ChunkCell<A::Output, T>> = (0..num_chunks)
        .map(|c| {
            let (lo, hi) = plan.bounds(c, starts.len());
            ChunkCell {
                len: hi - lo,
                // A checkpointed chunk starts exhausted: nobody helps it.
                cursor: AtomicUsize::new(if is_done(c) { hi - lo } else { 0 }),
                poisoned: AtomicBool::new(false),
                landed: Mutex::new((0, Vec::new())),
            }
        })
        .collect();

    let share = || {
        let mut scratch = ExecScratch::new();
        loop {
            // The claim boundary: the cooperative stop point for quotas,
            // whose claimed chunks run to completion. A cancel also stops
            // shares between starts; the merge drops what it cut.
            if should_stop(claimed.load(Ordering::Relaxed)) {
                break;
            }
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= claim_limit {
                break;
            }
            let c = claims[i];
            if !is_done(c) {
                claimed.store(true, Ordering::Relaxed);
                participate(&sweep, &cells[c], c, true, &mut scratch, sink);
            }
        }
        // No chunk is left to claim: rather than exit, help finish the
        // claimed chunks start by start.
        let claimed = next.load(Ordering::Relaxed).min(claim_limit);
        for &c in &claims[..claimed] {
            if cells[c].cursor.load(Ordering::Relaxed) < cells[c].len {
                participate(&sweep, &cells[c], c, false, &mut scratch, sink);
            }
        }
    };
    // The calling thread runs one share itself: a thread spawned only to
    // be joined costs a thread start per sweep, and the fresh thread may
    // land on the core of a thread the caller's request is waiting for.
    std::thread::scope(|s| {
        let helpers: Vec<_> = (1..workers).map(|_| s.spawn(share)).collect();
        share();
        for helper in helpers {
            // Shares only run algorithm code inside `catch_unwind`; a join
            // error means the harness itself failed, which must stay fatal.
            if let Err(payload) = helper.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });

    // Merge in chunk order: chunks partition `starts` contiguously, so this
    // reproduces the serial runner's start-order records exactly (modulo
    // the gaps left by aborted/skipped/checkpointed chunks).
    let mut outputs = vec![None; inst.n()];
    let mut records = Vec::with_capacity(starts.len());
    let mut total = CostAccumulator::default();
    let mut merged_tracer = T::default();
    // The plan is announced once, on the merged tracer (the merge loop is
    // serial), so the event count and its arguments are thread-invariant.
    merged_tracer.event(TraceEvent::ChunkPlanned {
        chunks: num_chunks,
        chunk_size: plan.chunk_size,
    });
    if let Some(set) = &engine.set {
        // One event per contiguous run, so a single-slice set announces
        // exactly its `lo..hi/total` spec.
        for &(lo, hi) in set.runs() {
            merged_tracer.event(TraceEvent::PartitionRestricted {
                lo,
                hi,
                total: set.total(),
            });
        }
    }
    let mut aborted = Vec::new();
    let mut skipped = Vec::new();
    let mut out_of_range = Vec::new();
    let mut executed = Vec::new();
    for (c, cell) in cells.into_iter().enumerate() {
        let (covered, shares) = cell
            .landed
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        if covered < cell.len {
            // Never run, or cut by a cancel (its shares are dropped).
            if shares.is_empty() && cell.poisoned.into_inner() {
                // The chunk's share tracers died with their attempts;
                // account for the claim and the abort on the merged
                // tracer, still in chunk order.
                merged_tracer.event(TraceEvent::ChunkClaimed {
                    chunk: c,
                    starts: cell.len,
                });
                merged_tracer.event(TraceEvent::ChunkAborted { chunk: c });
                aborted.push(c);
            } else if engine.set.as_ref().is_some_and(|s| !s.contains(c)) && !is_done(c) {
                // Another partition's work, deliberately left alone — not
                // degradation.
                out_of_range.push(c);
            } else if !is_done(c) {
                skipped.push(c);
            }
            continue;
        }
        // A lone share is moved as it is; helped chunks are put back in
        // start order.
        let helped = shares.len() > 1;
        let mut outs = Vec::new();
        for share in shares {
            total.merge(&share.acc);
            merged_tracer.absorb(share.tracer);
            if outs.is_empty() {
                outs = share.outs;
            } else {
                outs.extend(share.outs);
            }
        }
        if helped {
            outs.sort_unstable_by_key(|&(i, _, _)| i);
        }
        merged_tracer.event(TraceEvent::ChunkMerged { chunk: c });
        executed.push(c);
        for (i, out, rec) in outs {
            outputs[starts[i]] = Some(out);
            records.push(rec);
        }
    }
    ShardedRun {
        report: RunReport { outputs, records },
        acc: total,
        tracer: merged_tracer,
        aborted,
        skipped,
        out_of_range,
        executed,
        workers,
    }
}

/// The result of a sharded sweep: the serial-identical [`RunReport`] plus
/// aggregate costs, wall-clock throughput and the degradation ledgers. In
/// a checkpointed run ([`Engine::with_checkpoint`]) the records, summary,
/// query total and completed chunks cover every chunk in the file, loaded
/// ones included; the outputs cover this run's chunks only.
#[derive(Clone, Debug)]
pub struct EngineReport<O> {
    /// Per-node outputs and per-execution records, bit-identical to the
    /// serial runner's report (for the completed chunks).
    pub report: RunReport<O>,
    /// Aggregated costs (merged from per-chunk integral partials; identical
    /// to `report.summary()` for every thread count).
    pub summary: CostSummary,
    /// Worker threads actually used (after clamping to the chunks left to
    /// run).
    pub threads: usize,
    /// Wall-clock duration of the sweep. The only field that varies between
    /// runs.
    pub elapsed: Duration,
    /// Total queries across all executions.
    pub total_queries: u128,
    /// Chunks abandoned after exhausting their panic retries (ascending).
    /// Deterministic and thread-count-invariant: panics are a function of
    /// the chunk's inputs, not of scheduling.
    pub aborted_chunks: Vec<usize>,
    /// Chunks never executed, or cut short by a cancel, because a chunk
    /// quota or cancel flag stopped the sweep (ascending). A suffix of the
    /// claim window, except that a cancel with more than one worker can
    /// cut a chunk while a later one completes.
    pub skipped_chunks: Vec<usize>,
    /// Chunks outside the configured [`ChunkSet`] (ascending; empty for
    /// unrestricted runs). These belong to *other* partitions of the same
    /// sweep and deliberately carry no outputs here, so — unlike aborts
    /// and skips — they do not mark the report degraded.
    pub out_of_range_chunks: Vec<usize>,
    /// Chunks whose records the report holds.
    pub completed_chunks: usize,
    /// Chunks in the sweep's plan.
    pub num_chunks: usize,
    /// Whether any chunk was aborted or skipped. A degraded report's
    /// summary covers only the executed chunks — partial but valid.
    pub degraded: bool,
}

impl<O> EngineReport<O> {
    /// Whether the records cover every chunk of the sweep.
    pub fn is_complete(&self) -> bool {
        self.completed_chunks == self.num_chunks
    }

    /// Executions per wall-clock second (a resumed checkpointed run counts
    /// its loaded records too).
    pub fn starts_per_sec(&self) -> f64 {
        rate(self.report.records.len() as f64, self.elapsed)
    }

    /// Oracle queries per wall-clock second.
    pub fn queries_per_sec(&self) -> f64 {
        rate(self.total_queries as f64, self.elapsed)
    }
}

fn rate(count: f64, elapsed: Duration) -> f64 {
    let secs = elapsed.as_secs_f64();
    if secs > 0.0 {
        count / secs
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vc_graph::{gen, Color};
    use vc_model::oracle::{follow, Oracle, QueryError};
    use vc_model::run::{StartError, StartSelection};
    use vc_model::{Budget, SolverScratch};
    use vc_trace::SweepMetrics;

    /// Toy algorithm: walk left children until none remains.
    struct WalkLeft;

    impl QueryAlgorithm for WalkLeft {
        type Output = u32;

        fn name(&self) -> &'static str {
            "walk-left"
        }

        fn fallback(&self) -> u32 {
            u32::MAX
        }

        fn run(&self, oracle: &mut dyn Oracle, _: &mut SolverScratch) -> Result<u32, QueryError> {
            let mut cur = oracle.root();
            let mut steps = 0;
            while let Some(next) = follow(oracle, &cur, cur.label.left_child)? {
                cur = next;
                steps += 1;
            }
            Ok(steps)
        }
    }

    /// Every test sweep here is small enough (≲ 8192 starts) that the
    /// planner yields the minimum chunk size, so chunk indices can be
    /// computed as `root / CHUNK` like the historical fixed partition.
    const CHUNK: usize = MIN_CHUNK_STARTS;

    /// [`WalkLeft`] that panics when started from a root inside a poisoned
    /// chunk — deterministically, on every attempt.
    struct PanicOnChunk {
        chunk: usize,
    }

    impl QueryAlgorithm for PanicOnChunk {
        type Output = u32;

        fn fallback(&self) -> u32 {
            u32::MAX
        }

        fn run(
            &self,
            oracle: &mut dyn Oracle,
            scratch: &mut SolverScratch,
        ) -> Result<u32, QueryError> {
            let root = oracle.root().node;
            assert!(
                root / CHUNK != self.chunk,
                "injected panic in chunk {}",
                self.chunk
            );
            WalkLeft.run(oracle, scratch)
        }
    }

    /// How long start 0 of a waiting [`Skewed`] spins for a helper.
    const HELP_WAIT: Duration = Duration::from_secs(10);

    /// Start 0's output when no other start of chunk 0 began in time.
    const NOT_HELPED: u32 = u32::MAX - 1;

    /// [`WalkLeft`] over a skewed chunk 0. With `wait`, start 0 spins
    /// (bounded by [`HELP_WAIT`]) until another start of chunk 0 has
    /// begun: at two or more threads the worker holding start 0 cannot
    /// draw that start itself, so only a helper's share can release it.
    /// Root `panic_at` panics as long as `panics` lasts.
    struct Skewed {
        wait: bool,
        begun: AtomicBool,
        panic_at: usize,
        panics: std::sync::atomic::AtomicU32,
    }

    impl Skewed {
        fn new(wait: bool, panic_at: usize, panics: u32) -> Self {
            Self {
                wait,
                begun: AtomicBool::new(false),
                panic_at,
                panics: panics.into(),
            }
        }
    }

    impl QueryAlgorithm for Skewed {
        type Output = u32;

        fn fallback(&self) -> u32 {
            u32::MAX
        }

        fn run(
            &self,
            oracle: &mut dyn Oracle,
            scratch: &mut SolverScratch,
        ) -> Result<u32, QueryError> {
            let root = oracle.root().node;
            if root != 0 && root / CHUNK == 0 {
                self.begun.store(true, Ordering::Relaxed);
            }
            if root == 0 && self.wait {
                let sw = Stopwatch::start();
                while !self.begun.load(Ordering::Relaxed) {
                    if sw.elapsed() > HELP_WAIT {
                        return Ok(NOT_HELPED);
                    }
                    std::thread::yield_now();
                }
            }
            if root == self.panic_at {
                let left = |p: u32| p.checked_sub(1);
                let panics = &self.panics;
                if panics
                    .fetch_update(Ordering::Relaxed, Ordering::Relaxed, left)
                    .is_ok()
                {
                    panic!("injected panic at root {root}");
                }
            }
            WalkLeft.run(oracle, scratch)
        }
    }

    fn assert_equal_reports(a: &EngineReport<u32>, b: &RunReport<u32>) {
        assert_eq!(a.report.outputs, b.outputs);
        assert_eq!(a.report.records, b.records);
        assert_eq!(a.summary, b.summary());
        assert_eq!(a.report.truncated(), b.truncated());
        assert!(!a.degraded && a.is_complete());
        assert!(a.aborted_chunks.is_empty() && a.skipped_chunks.is_empty());
    }

    #[test]
    fn an_idle_worker_helps_finish_a_claimed_chunk() {
        let inst = gen::random_full_binary_tree(333, 5); // 6 chunks
        let config = RunConfig::default();
        let clean = vc_model::run::run_all(&inst, &WalkLeft, &config).unwrap();
        let report = Engine::with_threads(2)
            .run_all(&inst, &Skewed::new(true, usize::MAX, 0), &config)
            .unwrap();
        assert!(
            !report.report.outputs.contains(&Some(NOT_HELPED)),
            "no worker helped chunk 0"
        );
        assert_equal_reports(&report, &clean);
    }

    #[test]
    fn a_deterministic_panic_in_a_helped_chunk_is_thread_count_invariant() {
        let inst = gen::random_full_binary_tree(333, 5); // 6 chunks
        let config = RunConfig::default();
        let clean = vc_model::run::run_all(&inst, &WalkLeft, &config).unwrap();
        let mut per_thread = Vec::new();
        for threads in [1, 2, 8] {
            // Root 10 panics on every visit; at 2+ threads chunk 0 is
            // helped, so the panic lands in whichever share drew it.
            let algo = Skewed::new(threads > 1, 10, u32::MAX);
            let (report, m) = Engine::with_threads(threads)
                .run_all_traced::<_, SweepMetrics>(&inst, &algo, &config)
                .unwrap();
            assert_eq!(report.aborted_chunks, vec![0], "{threads} threads");
            assert!(report.report.outputs[..CHUNK].iter().all(Option::is_none));
            assert_eq!(report.report.records, clean.records[CHUNK..]);
            per_thread.push((report.aborted_chunks, m.query, report.report.records));
        }
        assert!(per_thread.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn a_transient_panic_in_a_helpers_share_is_retried() {
        let inst = gen::random_full_binary_tree(333, 5); // 6 chunks
        let config = RunConfig::default();
        let clean = vc_model::run::run_all(&inst, &WalkLeft, &config).unwrap();
        // Start 0 holds its worker until another start of chunk 0 begins,
        // so the other worker, helping, draws root 1 — which panics once.
        let (report, m) = Engine::with_threads(2)
            .run_all_traced::<_, SweepMetrics>(&inst, &Skewed::new(true, 1, 1), &config)
            .unwrap();
        assert_equal_reports(&report, &clean);
        assert_eq!(m.query.chunks_retried, 1);
        assert_eq!(m.query.chunks_aborted, 0);
        assert_eq!(m.query.chunks_claimed, m.query.chunks_merged);
    }

    #[test]
    fn quota_on_a_helped_sweep_executes_exactly_the_prefix() {
        let inst = gen::random_full_binary_tree(333, 5); // 6 chunks
        let config = RunConfig::default();
        let clean = vc_model::run::run_all(&inst, &WalkLeft, &config).unwrap();
        for threads in [2, 8] {
            // Workers past the quota help chunk 0 but claim nothing.
            let report = Engine::with_threads(threads)
                .with_chunk_quota(3)
                .run_all(&inst, &Skewed::new(true, usize::MAX, 0), &config)
                .unwrap();
            assert_eq!(report.skipped_chunks, vec![3, 4, 5], "{threads} threads");
            assert_eq!(report.report.records, clean.records[..3 * CHUNK]);
            assert_eq!(
                report.report.outputs[..3 * CHUNK],
                clean.outputs[..3 * CHUNK]
            );
            assert!(report.report.outputs[3 * CHUNK..]
                .iter()
                .all(Option::is_none));
        }
    }

    #[test]
    fn live_checkpoint_of_a_helped_sweep_matches_one_thread() {
        let inst = gen::random_full_binary_tree(333, 5); // 6 chunks
        let config = RunConfig::default();
        let dir = std::env::temp_dir().join("vc-engine-helping-tests");
        std::fs::create_dir_all(&dir).unwrap();
        // Restricted runs append each chunk's line as it lands.
        let run = |threads: usize, spec: &str, name: &str| {
            let path = dir.join(name);
            let _ = std::fs::remove_file(&path);
            Engine::with_threads(threads)
                .with_chunk_set(ChunkSet::parse(spec).unwrap())
                .with_checkpoint(&path)
                .run_all(&inst, &Skewed::new(threads > 1, usize::MAX, 0), &config)
                .unwrap();
            std::fs::read_to_string(&path).unwrap()
        };
        let one = run(1, "0..6/6", "one.json");
        assert_eq!(run(2, "0..6/6", "two.json"), one);
        // The sink's own appends, with no final write after them: every
        // chunk was committed once its last share landed, in start order.
        // Lines land in landing order, so the decoded records are compared.
        let appended = run(2, "0..5/6", "sink.json");
        let decode = |text: &str| SweepCheckpoint::from_json(text).unwrap().chunks;
        let mut want = decode(&one);
        want[5] = None;
        assert_eq!(decode(&appended), want);
    }

    #[test]
    fn one_thread_equals_serial_runner() {
        let inst = gen::random_full_binary_tree(301, 5);
        let config = RunConfig::default();
        let serial = vc_model::run::run_all(&inst, &WalkLeft, &config).unwrap();
        let engine = Engine::with_threads(1)
            .run_all(&inst, &WalkLeft, &config)
            .unwrap();
        assert_eq!(engine.threads, 1);
        assert_equal_reports(&engine, &serial);
    }

    #[test]
    fn many_threads_equal_serial_runner() {
        let inst = gen::random_full_binary_tree(777, 9);
        let config = RunConfig::default();
        let serial = vc_model::run::run_all(&inst, &WalkLeft, &config).unwrap();
        for threads in [2, 3, 8] {
            let engine = Engine::with_threads(threads)
                .run_all(&inst, &WalkLeft, &config)
                .unwrap();
            assert_equal_reports(&engine, &serial);
        }
    }

    #[test]
    fn truncation_is_thread_count_independent() {
        let inst = gen::complete_binary_tree(7, Color::R, Color::B);
        let config = RunConfig {
            budget: Budget::volume(3),
            ..RunConfig::default()
        };
        let serial = vc_model::run::run_all(&inst, &WalkLeft, &config).unwrap();
        assert!(serial.truncated() > 0);
        for threads in [1, 4] {
            let engine = Engine::with_threads(threads)
                .run_all(&inst, &WalkLeft, &config)
                .unwrap();
            assert_equal_reports(&engine, &serial);
        }
    }

    #[test]
    fn sampled_starts_merge_identically() {
        let inst = gen::random_full_binary_tree(900, 2);
        let config = RunConfig {
            starts: StartSelection::Sample {
                count: 300,
                seed: 42,
            },
            ..RunConfig::default()
        };
        let serial = vc_model::run::run_all(&inst, &WalkLeft, &config).unwrap();
        let engine = Engine::with_threads(8)
            .run_all(&inst, &WalkLeft, &config)
            .unwrap();
        assert_equal_reports(&engine, &serial);
    }

    #[test]
    fn start_errors_propagate() {
        let inst = gen::complete_binary_tree(2, Color::R, Color::B);
        let config = RunConfig {
            starts: StartSelection::Sample { count: 0, seed: 0 },
            ..RunConfig::default()
        };
        let err = Engine::with_threads(4)
            .run_all(&inst, &WalkLeft, &config)
            .unwrap_err();
        assert_eq!(err, EngineError::Start(StartError::EmptySample));
    }

    #[test]
    fn traced_sweep_matches_untraced_and_is_thread_invariant() {
        let inst = gen::random_full_binary_tree(777, 9);
        let config = RunConfig::default();
        let untraced = Engine::with_threads(1)
            .run_all(&inst, &WalkLeft, &config)
            .unwrap();
        let (r1, m1) = Engine::with_threads(1)
            .run_all_traced::<_, SweepMetrics>(&inst, &WalkLeft, &config)
            .unwrap();
        assert_equal_reports(&untraced, &r1.report);
        for threads in [2, 8] {
            let (r, m) = Engine::with_threads(threads)
                .run_all_traced::<_, SweepMetrics>(&inst, &WalkLeft, &config)
                .unwrap();
            assert_equal_reports(&untraced, &r.report);
            assert_eq!(
                m.query, m1.query,
                "deterministic metrics must not depend on the thread count"
            );
        }
        // The metrics cross-check the cost summary.
        assert_eq!(m1.query.executions, untraced.summary.runs as u64);
        assert_eq!(m1.query.volume.max(), untraced.summary.max_volume as u64);
        assert_eq!(m1.query.queries_per_start.sum(), untraced.total_queries);
        // Chunk counts are thread-count-invariant too.
        let chunks = inst.n().div_ceil(CHUNK) as u64;
        assert_eq!(m1.query.chunks_claimed, chunks);
        assert_eq!(m1.query.chunks_merged, chunks);
        assert_eq!(m1.query.chunks_retried, 0);
        assert_eq!(m1.query.chunks_aborted, 0);
        // The plan is announced once per sweep and its histogram covers
        // every start exactly once, regardless of thread count.
        assert_eq!(m1.query.chunks_planned, 1);
        assert_eq!(m1.query.planned_chunk_size, CHUNK as u64);
        assert_eq!(m1.query.chunk_starts.count(), chunks);
        assert_eq!(m1.query.chunk_starts.sum(), inst.n() as u128);
    }

    #[test]
    fn traced_start_errors_propagate() {
        let inst = gen::complete_binary_tree(2, Color::R, Color::B);
        let config = RunConfig {
            starts: StartSelection::Sample { count: 0, seed: 0 },
            ..RunConfig::default()
        };
        let err = Engine::with_threads(2)
            .run_all_traced::<_, SweepMetrics>(&inst, &WalkLeft, &config)
            .unwrap_err();
        assert_eq!(err, EngineError::Start(StartError::EmptySample));
    }

    #[test]
    fn worker_count_is_clamped() {
        assert_eq!(Engine::with_threads(0).threads(), 1);
        assert!(Engine::from_env().unwrap().threads() >= 1);
        // A tiny sweep cannot use more workers than chunks.
        let inst = gen::complete_binary_tree(2, Color::R, Color::B);
        let engine = Engine::with_threads(16)
            .run_all(&inst, &WalkLeft, &RunConfig::default())
            .unwrap();
        assert_eq!(engine.threads, 1);
        assert!(engine.starts_per_sec() >= 0.0);
        assert!(engine.queries_per_sec() >= 0.0);
    }

    #[test]
    fn panicking_chunk_is_aborted_and_the_rest_survives() {
        let inst = gen::random_full_binary_tree(333, 5); // 6 chunks
        let config = RunConfig::default();
        let algo = PanicOnChunk { chunk: 2 };
        let clean = Engine::with_threads(2)
            .run_all(&inst, &WalkLeft, &config)
            .unwrap();
        let mut per_thread = Vec::new();
        for threads in [1, 2, 8] {
            let report = Engine::with_threads(threads)
                .run_all(&inst, &algo, &config)
                .unwrap();
            assert_eq!(report.aborted_chunks, vec![2]);
            assert!(report.skipped_chunks.is_empty());
            assert!(report.degraded);
            // Surviving starts are bit-identical to the clean run.
            let lo = 2 * CHUNK;
            let hi = inst.n().min(lo + CHUNK);
            for v in 0..inst.n() {
                if (lo..hi).contains(&v) {
                    assert_eq!(report.report.outputs[v], None);
                } else {
                    assert_eq!(report.report.outputs[v], clean.report.outputs[v]);
                }
            }
            assert_eq!(report.summary.runs, inst.n() - (hi - lo));
            per_thread.push((report.summary.clone(), report.report.records.clone()));
        }
        // The degraded summary itself is thread-count-invariant.
        assert!(per_thread.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn aborted_chunks_are_counted_by_the_tracer() {
        let inst = gen::random_full_binary_tree(333, 5);
        let config = RunConfig::default();
        let algo = PanicOnChunk { chunk: 1 };
        let mut metrics = Vec::new();
        for threads in [1, 4] {
            let (report, m) = Engine::with_threads(threads)
                .run_all_traced::<_, SweepMetrics>(&inst, &algo, &config)
                .unwrap();
            assert_eq!(report.aborted_chunks, vec![1]);
            // Both attempts panicked; the merged tracer still accounts for
            // the claim and the abort exactly once, in chunk order.
            let chunks = inst.n().div_ceil(CHUNK) as u64;
            assert_eq!(m.query.chunks_claimed, chunks);
            assert_eq!(m.query.chunks_merged, chunks - 1);
            assert_eq!(m.query.chunks_aborted, 1);
            metrics.push(m.query.clone());
        }
        assert_eq!(metrics[0], metrics[1]);
    }

    #[test]
    fn transient_panic_is_retried_and_recovers() {
        use std::sync::atomic::AtomicBool;

        /// Panics on the first visit to chunk 0, then behaves — the retry
        /// must produce a complete, clean report.
        struct FlakyOnce {
            tripped: AtomicBool,
        }

        impl QueryAlgorithm for FlakyOnce {
            type Output = u32;

            fn fallback(&self) -> u32 {
                u32::MAX
            }

            fn run(
                &self,
                oracle: &mut dyn Oracle,
                scratch: &mut SolverScratch,
            ) -> Result<u32, QueryError> {
                let root = oracle.root().node;
                if root / CHUNK == 0 && !self.tripped.swap(true, Ordering::Relaxed) {
                    panic!("transient injected panic");
                }
                WalkLeft.run(oracle, scratch)
            }
        }

        let inst = gen::random_full_binary_tree(150, 3);
        let config = RunConfig::default();
        let clean = Engine::with_threads(1)
            .run_all(&inst, &WalkLeft, &config)
            .unwrap();
        let algo = FlakyOnce {
            tripped: AtomicBool::new(false),
        };
        let (report, m) = Engine::with_threads(1)
            .run_all_traced::<_, SweepMetrics>(&inst, &algo, &config)
            .unwrap();
        assert!(!report.degraded);
        assert_eq!(report.report.outputs, clean.report.outputs);
        assert_eq!(report.report.records, clean.report.records);
        assert_eq!(report.summary, clean.summary);
        assert_eq!(m.query.chunks_retried, 1);
        assert_eq!(m.query.chunks_aborted, 0);
    }

    #[test]
    fn chunk_quota_executes_exactly_the_prefix() {
        let inst = gen::random_full_binary_tree(333, 5); // 6 chunks
        let config = RunConfig::default();
        let clean = Engine::with_threads(2)
            .run_all(&inst, &WalkLeft, &config)
            .unwrap();
        for threads in [1, 2, 8] {
            let report = Engine::with_threads(threads)
                .with_chunk_quota(3)
                .run_all(&inst, &WalkLeft, &config)
                .unwrap();
            assert!(report.degraded);
            assert!(report.aborted_chunks.is_empty());
            assert_eq!(report.skipped_chunks, vec![3, 4, 5]);
            assert_eq!(report.report.records, clean.report.records[..3 * CHUNK]);
            assert_eq!(report.summary.runs, 3 * CHUNK);
        }
    }

    #[test]
    fn chunk_range_executes_exactly_the_slice() {
        let inst = gen::random_full_binary_tree(333, 5); // 6 chunks
        let config = RunConfig::default();
        let clean = Engine::with_threads(2)
            .run_all(&inst, &WalkLeft, &config)
            .unwrap();
        for threads in [1, 2, 8] {
            let report = Engine::with_threads(threads)
                .with_chunk_set(ChunkSet::parse("2..4/6").unwrap())
                .run_all(&inst, &WalkLeft, &config)
                .unwrap();
            // A finished partition is healthy: nothing aborted, nothing
            // skipped, the out-of-range chunks are the other partitions'.
            assert!(!report.degraded, "thread count {threads}");
            assert!(report.aborted_chunks.is_empty());
            assert!(report.skipped_chunks.is_empty());
            assert_eq!(report.out_of_range_chunks, vec![0, 1, 4, 5]);
            assert_eq!(
                report.report.records,
                clean.report.records[2 * CHUNK..4 * CHUNK]
            );
            for v in 0..inst.n() {
                if (2 * CHUNK..4 * CHUNK).contains(&v) {
                    assert_eq!(report.report.outputs[v], clean.report.outputs[v]);
                } else {
                    assert_eq!(report.report.outputs[v], None);
                }
            }
            assert_eq!(report.summary.runs, 2 * CHUNK);
        }
    }

    #[test]
    fn quota_counts_within_the_chunk_range() {
        let inst = gen::random_full_binary_tree(333, 5); // 6 chunks
        let config = RunConfig::default();
        let clean = Engine::with_threads(2)
            .run_all(&inst, &WalkLeft, &config)
            .unwrap();
        let report = Engine::with_threads(2)
            .with_chunk_set(ChunkSet::parse("2..5/6").unwrap())
            .with_chunk_quota(1)
            .run_all(&inst, &WalkLeft, &config)
            .unwrap();
        // One chunk of the slice ran; the rest of the slice was skipped
        // (degradation), everything outside is merely out of range.
        assert!(report.degraded);
        assert_eq!(report.skipped_chunks, vec![3, 4]);
        assert_eq!(report.out_of_range_chunks, vec![0, 1, 5]);
        assert_eq!(
            report.report.records,
            clean.report.records[2 * CHUNK..3 * CHUNK]
        );
    }

    #[test]
    fn chunk_set_executes_exactly_the_non_contiguous_claim() {
        let inst = gen::random_full_binary_tree(333, 5); // 6 chunks
        let config = RunConfig::default();
        let clean = Engine::with_threads(2)
            .run_all(&inst, &WalkLeft, &config)
            .unwrap();
        let set = ChunkSet::parse("0..2,4/6").unwrap();
        for threads in [1, 2, 8] {
            let report = Engine::with_threads(threads)
                .with_chunk_set(set.clone())
                .run_all(&inst, &WalkLeft, &config)
                .unwrap();
            // A finished reassignment claim is healthy; the gap chunks
            // belong to other workers.
            assert!(!report.degraded, "thread count {threads}");
            assert!(report.aborted_chunks.is_empty());
            assert!(report.skipped_chunks.is_empty());
            assert_eq!(report.out_of_range_chunks, vec![2, 3, 5]);
            // Records are the concatenation of the set's chunks in
            // ascending chunk order, exactly as the splice expects.
            let mut expect = clean.report.records[..2 * CHUNK].to_vec();
            expect.extend_from_slice(&clean.report.records[4 * CHUNK..5 * CHUNK]);
            assert_eq!(report.report.records, expect);
            assert_eq!(report.summary.runs, 3 * CHUNK);
        }
    }

    #[test]
    fn quota_counts_within_the_chunk_set() {
        let inst = gen::random_full_binary_tree(333, 5); // 6 chunks
        let config = RunConfig::default();
        let clean = Engine::with_threads(2)
            .run_all(&inst, &WalkLeft, &config)
            .unwrap();
        let report = Engine::with_threads(2)
            .with_chunk_set(ChunkSet::parse("1,3..5/6").unwrap())
            .with_chunk_quota(2)
            .run_all(&inst, &WalkLeft, &config)
            .unwrap();
        // Quota 2 executes the set's first two chunks (1 and 3); the
        // rest of the set is skipped (degradation), everything outside
        // is merely out of range.
        assert!(report.degraded);
        assert_eq!(report.skipped_chunks, vec![4]);
        assert_eq!(report.out_of_range_chunks, vec![0, 2, 5]);
        let mut expect = clean.report.records[CHUNK..2 * CHUNK].to_vec();
        expect.extend_from_slice(&clean.report.records[3 * CHUNK..4 * CHUNK]);
        assert_eq!(report.report.records, expect);
    }

    #[test]
    fn mismatched_chunk_range_is_refused() {
        let inst = gen::random_full_binary_tree(333, 5); // 6 chunks
        let err = Engine::with_threads(2)
            .with_chunk_set(ChunkSet::parse("0..4/8").unwrap())
            .run_all(&inst, &WalkLeft, &RunConfig::default())
            .unwrap_err();
        assert_eq!(
            err,
            EngineError::Partition(partition::RangeError::PlanMismatch {
                total: 8,
                num_chunks: 6
            })
        );
    }

    #[test]
    fn range_partitions_merge_to_the_serial_sweep() {
        let inst = gen::random_full_binary_tree(777, 9); // 13 chunks
        let config = RunConfig::default();
        let clean = Engine::with_threads(2)
            .run_all(&inst, &WalkLeft, &config)
            .unwrap();
        let total = plan_chunks(inst.n()).num_chunks;
        let mut merged: Vec<ExecutionRecord> = Vec::new();
        for set in ChunkSet::split(total, 4) {
            let part = Engine::with_threads(3)
                .with_chunk_set(set)
                .run_all(&inst, &WalkLeft, &config)
                .unwrap();
            merged.extend(part.report.records);
        }
        // Contiguous ranges in order: concatenation is the serial sweep.
        assert_eq!(merged, clean.report.records);
    }

    #[test]
    fn pre_cancelled_flag_stops_before_any_chunk() {
        let inst = gen::random_full_binary_tree(200, 5);
        let flag = CancelFlag::new();
        flag.cancel();
        assert!(flag.is_cancelled());
        let report = Engine::with_threads(4)
            .with_cancel_flag(flag)
            .run_all(&inst, &WalkLeft, &RunConfig::default())
            .unwrap();
        assert!(report.degraded);
        assert_eq!(report.summary.runs, 0);
        assert_eq!(report.skipped_chunks.len(), inst.n().div_ceil(CHUNK));
        assert!(report.report.records.is_empty());
        assert!(report.report.outputs.iter().all(Option::is_none));
    }

    // The env variables themselves are process-global (mutating them
    // races parallel tests), so the strict parsing is exercised through
    // the pure helpers `from_env` delegates to.

    #[test]
    fn thread_env_values_parse_strictly() {
        assert_eq!(parse_threads("4"), Ok(4));
        assert_eq!(parse_threads(" 2 "), Ok(2));
        let zero = parse_threads("0").unwrap_err();
        assert_eq!(zero.var, THREADS_ENV);
        assert!(zero.to_string().contains("0 workers"), "{zero}");
        let garbage = parse_threads("abc").unwrap_err();
        assert_eq!(garbage.var, THREADS_ENV);
        assert!(garbage.to_string().contains("abc"), "{garbage}");
        assert!(parse_threads("-3").is_err());
    }

    #[test]
    fn planner_keeps_small_sweeps_on_the_historical_chunk_size() {
        // Every sweep of at most TARGET_CHUNKS * MIN_CHUNK_STARTS starts
        // partitions exactly like the fixed CHUNK = 64 engine did, so old
        // sweep identities and checkpoints are preserved.
        for n in [1, 63, 64, 65, 301, 777, 1201, 8192] {
            let plan = plan_chunks(n);
            assert_eq!(plan.chunk_size, MIN_CHUNK_STARTS, "n = {n}");
            assert_eq!(plan.num_chunks, n.div_ceil(MIN_CHUNK_STARTS), "n = {n}");
        }
    }

    #[test]
    fn planner_scales_and_clamps_on_large_sweeps() {
        // Above the small-sweep regime the chunk size grows toward
        // TARGET_CHUNKS chunks …
        let plan = plan_chunks(100_000);
        assert_eq!(plan.chunk_size, 782);
        assert_eq!(plan.num_chunks, 128);
        // … until the per-chunk latency cap kicks in.
        let plan = plan_chunks(1_000_000);
        assert_eq!(plan.chunk_size, MAX_CHUNK_STARTS);
        assert_eq!(plan.num_chunks, 245);
        // Degenerate inputs stay sane: zero starts need zero chunks.
        assert_eq!(plan_chunks(0).num_chunks, 0);
    }

    #[test]
    fn planner_chunks_cover_the_start_set_exactly() {
        for n in [1, 64, 65, 8193, 100_000, 1_000_000] {
            let plan = plan_chunks(n);
            let mut next = 0;
            for c in 0..plan.num_chunks {
                let (lo, hi) = plan.bounds(c, n);
                assert_eq!(lo, next, "chunk {c} of n = {n} leaves a gap");
                assert!(hi > lo, "chunk {c} of n = {n} is empty");
                assert!(hi - lo <= plan.chunk_size);
                next = hi;
            }
            assert_eq!(next, n, "chunks must cover all {n} starts");
        }
    }

    #[test]
    fn retired_deadline_env_is_refused() {
        assert_eq!(refuse_retired_deadline(""), Ok(()));
        assert_eq!(refuse_retired_deadline(" "), Ok(()));
        for raw in ["500", "0", "1s"] {
            let err = refuse_retired_deadline(raw).unwrap_err();
            assert_eq!(err.var, "VC_DEADLINE_MS");
            let msg = err.to_string();
            assert!(msg.contains(raw) && msg.contains("retired"), "{msg}");
            assert!(msg.contains("CancelFlag"), "{msg}");
        }
    }
}
