//! # vc-fleet
//!
//! The deterministic fleet supervisor (DESIGN.md §16): one function,
//! [`supervise`], spawns sweep workers, watches their progress
//! heartbeats, declares the dead dead, and reassigns **exactly their
//! missing chunks** — never whole slices — until the sweep's checkpoint
//! coverage is complete or every missing chunk has exhausted its retry
//! cap.
//!
//! ## Why supervision cannot perturb determinism
//!
//! The engine's invariant is that a chunk's records are a pure function
//! of (instance, algorithm, config, chunk index) — scheduling decides
//! only *who* runs a chunk, never what the chunk produces. The
//! supervisor operates entirely at that scheduling layer:
//!
//! * **Heartbeats are read-only.** Workers run checkpointed sweeps
//!   restricted to their chunk sets, so the engine appends one line to
//!   their part files as each chunk completes (DESIGN.md §16.1). The
//!   supervisor reads only the bytes appended since its last poll,
//!   counts the complete lines of assigned chunks, times the gaps
//!   through the single sanctioned clock
//!   ([`vc_trace::time::Stopwatch`], honoring the VC006
//!   no-hidden-clocks invariant) and writes nothing back.
//! * **Kill-before-read.** A worker that makes no progress for a full
//!   liveness deadline is killed *first* and its part file read
//!   *afterwards*, so the file can no longer change under the
//!   supervisor. Whatever chunks landed are final and valid; the
//!   reassignment covers exactly the complement. A *falsely* suspected
//!   worker (slow, not dead) therefore costs only wasted work — its
//!   completed chunks are kept, its unfinished ones rerun elsewhere,
//!   and the records are identical either way.
//! * **Backoff is counter-driven.** Relaunch delays are a pure function
//!   of the per-chunk attempt counters (exponential in the attempt
//!   number, capped), never of any time measurement — so the retry
//!   *schedule* is reproducible even though wall-clock timings are not.
//!
//! The result: for any kill schedule, [`vc_engine::splice_partial`] over every
//! part file the fleet wrote merges into a checkpoint byte-identical to
//! an unbroken single-process run — the chaos drill in
//! `examples/fleet_sweep.rs` machine-checks exactly this, and the
//! [`FleetReport`] it returns is the one record of every death and
//! reassignment along the way.
//!
//! The supervisor is backend-agnostic: [`WorkerBackend`] abstracts
//! launch/poll/kill, so the in-crate tests drive it with a scripted
//! in-process backend while `examples/fleet_sweep.rs` supplies a real
//! process spawner.

#![deny(missing_docs)]

pub mod report;
pub mod supervisor;

pub use report::{FleetReport, WorkerReport, FLEET_REPORT_SCHEMA};
pub use supervisor::{supervise, FleetOutcome};

use std::path::PathBuf;
use std::time::Duration;
use vc_engine::{ChunkSet, SpliceError};

/// Configuration of a [`supervise`] run.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Initial worker count; the planned chunks are split into this many
    /// contiguous slices (clamped to at least 1).
    pub workers: usize,
    /// How long a worker may go without heartbeat progress (a new chunk
    /// in its part file) before it is declared dead and killed.
    pub liveness_deadline: Duration,
    /// How often the supervisor polls worker status and part files.
    pub poll_interval: Duration,
    /// Launch cap per chunk: a chunk that `max_chunk_attempts` launches
    /// have been asked to run without completing is abandoned
    /// (degraded), never retried forever.
    pub max_chunk_attempts: u32,
    /// Base relaunch delay. A launch at per-chunk attempt `a` waits
    /// `backoff_base × 2^(a−2)` (so the first reassignment waits one
    /// base unit), capped at [`FleetConfig::backoff_cap`].
    pub backoff_base: Duration,
    /// Upper bound on the relaunch delay.
    pub backoff_cap: Duration,
}

/// Everything a backend needs to start one worker launch.
#[derive(Clone, Debug)]
pub struct LaunchSpec {
    /// The worker slot this launch belongs to (stable across relaunches;
    /// recovery launches inherit the dead launch's slot for report
    /// attribution).
    pub worker: usize,
    /// Globally unique launch index, in launch order.
    pub launch: usize,
    /// The chunks this launch must execute — contiguous for initial
    /// slices, possibly gappy for reassignments. Pass to the worker as
    /// `VC_CHUNKS={chunks}` (or `Engine::with_chunk_set`).
    pub chunks: ChunkSet,
    /// The part checkpoint file this launch writes: the worker's
    /// `Engine::with_checkpoint` path. A run restricted to `chunks`
    /// appends each chunk's line as it lands, which is the heartbeat the
    /// supervisor reads.
    pub part_path: PathBuf,
}

/// What a poll of one launch observes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkerStatus {
    /// The worker is (apparently) still running.
    Running,
    /// The worker exited; `success` is its exit status. Coverage is
    /// judged from the part file either way — a "successful" worker
    /// that did not finish its claim is still missing chunks.
    Exited {
        /// Whether the process exited cleanly.
        success: bool,
    },
}

/// How the supervisor starts, observes and stops workers. Implementors
/// decide what a worker *is* (an OS process, a thread, a test script);
/// the supervisor only requires that after [`WorkerBackend::kill`]
/// returns, the launch's part file can no longer change.
pub trait WorkerBackend {
    /// The per-launch state the backend tracks.
    type Handle;

    /// Starts one worker for `spec`.
    ///
    /// # Errors
    ///
    /// [`FleetError::Launch`] when the worker cannot be started — fatal
    /// for the whole fleet run (a supervisor that cannot spawn cannot
    /// recover anything).
    fn launch(&mut self, spec: &LaunchSpec) -> Result<Self::Handle, FleetError>;

    /// Observes the launch's current status. Must not block.
    fn poll(&mut self, handle: &mut Self::Handle) -> WorkerStatus;

    /// Forcibly stops the launch. Must be synchronous: when this
    /// returns, the worker no longer writes its part file
    /// (kill-before-read is what keeps reassignments disjoint).
    fn kill(&mut self, handle: &mut Self::Handle);
}

/// Failures of a supervised fleet run. Always loud — the supervisor
/// degrades (abandoned chunks, partial merges) rather than erroring
/// wherever a partial result is still sound, so every variant here is a
/// real stop-the-fleet condition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FleetError {
    /// The sweep plans zero chunks; there is nothing to supervise.
    EmptySweep,
    /// The backend could not start a worker.
    Launch {
        /// The worker slot that failed to start.
        worker: usize,
        /// The backend's description of the failure.
        message: String,
    },
    /// A part file existed but could not be read or parsed at final
    /// merge time. Heartbeat reads are advisory and swallow errors;
    /// this is the authoritative read, so it is loud.
    Part {
        /// The offending part file.
        path: PathBuf,
        /// What was wrong with it.
        message: String,
    },
    /// The final [`splice_partial`](vc_engine::splice_partial) over the
    /// fleet's part files was rejected (overlap, identity mismatch, …) —
    /// an assignment bug, not a worker death.
    Splice(SpliceError),
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::EmptySweep => write!(f, "the sweep plans zero chunks"),
            FleetError::Launch { worker, message } => {
                write!(f, "worker {worker} failed to launch: {message}")
            }
            FleetError::Part { path, message } => {
                write!(f, "part file {} is unusable: {message}", path.display())
            }
            FleetError::Splice(e) => write!(f, "fleet parts cannot be merged: {e}"),
        }
    }
}

impl std::error::Error for FleetError {}

impl From<SpliceError> for FleetError {
    fn from(e: SpliceError) -> Self {
        FleetError::Splice(e)
    }
}
