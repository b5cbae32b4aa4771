//! The sweep service: one shared worker pool, a deterministic
//! FIFO-with-priority queue, SweepId dedup and checkpoint preemption.
//!
//! ## Scheduling discipline
//!
//! A single scheduler thread owns the engine. It always runs the
//! highest-priority queued job, breaking ties by admission order
//! (job ids are monotonic). When an [`Priority::Interactive`] job is
//! admitted while a [`Priority::Batch`] job runs, the service trips the
//! running job's [`CancelFlag`]; the engine, which runs on the identity
//! `submit` folded, stops between starts, drops the chunks it cut short
//! and writes its partial checkpoint — the *parked* state. The preempted
//! job re-enters the queue and resumes from that checkpoint after the
//! interactive work drains; each resume completes a chunk, so a batch
//! preempted whenever it runs still finishes. As the checkpoint path is
//! the engine's kill-and-resume path, the final checkpoint of a preempted
//! job is byte-identical to an uninterrupted run at any thread count.
//!
//! ## Dedup
//!
//! Submission resolves the spec to a [`SweepId`] first. A stored result
//! is a cache hit (no execution, `CacheHit` trace event); an in-flight
//! job with the same id is returned as-is (same job id, no second
//! execution); only genuinely new work is admitted (`JobAdmitted`).
//!
//! ## Memo
//!
//! A spec is resolved once per process: the service keeps the last
//! 1,024 specs it resolved, priority cleared, with their
//! [`SweepIdentity`]. A hit or a dedup on a remembered spec builds no
//! instance and folds nothing; one whose entry was evicted builds the
//! instance its run needs and reuses the identity. The memo lives in
//! memory only, so a rebuilt binary starts with it empty.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use vc_engine::{CancelFlag, Engine, SweepCheckpoint, SweepId, SweepIdentity};
use vc_graph::Instance;
use vc_json::{obj, Json};
use vc_model::run::{RunConfig, StartError};
use vc_trace::{RecordingTracer, TraceEvent, Tracer};

use crate::spec::{Priority, SpecError, SweepSpec};
use crate::store::{ResultStore, StoreError};

/// Schema tag of the service stats document.
pub const REPORT_SCHEMA: &str = "vc-serve-report/v1";

/// Cap on retained trace events (oldest kept; beyond this the recorder
/// counts drops instead of growing).
const TRACE_CAP: usize = 65_536;

/// Specs the memo remembers, oldest dropped first.
const MEMO_CAP: usize = 1024;

/// Finished (done or failed) job records the service keeps, oldest dropped
/// first: a job id stays valid for the next 1,024 jobs to finish, and past
/// that `status` and `result` answer [`ServeError::UnknownJob`]. Queued,
/// running and parked records are never dropped.
pub const MAX_FINISHED_JOBS: usize = 1024;

/// Service configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Engine worker threads for the shared pool.
    pub threads: usize,
    /// Directory of the content-addressed result store.
    pub store_dir: PathBuf,
    /// Directory for in-flight (and parked) sweep checkpoints. A finished
    /// one is renamed into `store_dir`, so the two directories share a
    /// filesystem; across filesystems the rename, and so the job, fails.
    pub spool_dir: PathBuf,
    /// Optional result-store entry cap (FIFO eviction past it).
    pub max_store_entries: Option<usize>,
}

/// Lifecycle of one submitted job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobState {
    /// Waiting in the run queue.
    Queued,
    /// Executing on the shared pool.
    Running,
    /// Preempted; checkpoint parked, re-queued.
    Parked,
    /// Finished; result available from the store.
    Done {
        /// Whether the submission was answered from the store without
        /// any execution.
        cache_hit: bool,
    },
    /// Execution failed; see [`JobStatus::error`].
    Failed,
}

impl JobState {
    /// Stable lower-case wire name.
    pub fn name(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Parked => "parked",
            JobState::Done { .. } => "done",
            JobState::Failed => "failed",
        }
    }
}

/// A point-in-time view of one job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobStatus {
    /// Service-assigned job id (monotonic; doubles as admission order).
    pub job: u64,
    /// The sweep identity the spec resolved to.
    pub sweep_id: SweepId,
    /// Current lifecycle state.
    pub state: JobState,
    /// Scheduling priority.
    pub priority: Priority,
    /// Times this job was preempted.
    pub preemptions: u64,
    /// Chunks complete at the last observation.
    pub completed_chunks: usize,
    /// Chunks in the sweep's plan (0 until first observed).
    pub num_chunks: usize,
    /// Failure message, if [`JobState::Failed`].
    pub error: Option<String>,
}

/// What a submission resolved to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Submission {
    /// The job id to poll (an existing id when deduplicated).
    pub job: u64,
    /// The sweep identity the spec resolved to.
    pub sweep_id: SweepId,
    /// The submission was answered from the result store.
    pub cache_hit: bool,
    /// The submission matched an in-flight job and returned its id.
    pub deduped: bool,
}

/// Integral service counters (the `vc-serve-report/v1` numbers).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Specs submitted (including hits and dedups).
    pub submissions: u64,
    /// Submissions answered from the store without execution.
    pub hits: u64,
    /// Submissions that scheduled new work.
    pub misses: u64,
    /// Submissions folded into an in-flight job.
    pub deduped: u64,
    /// Submissions whose identity came from the spec memo, with no
    /// identity fold and, on a hit or a dedup, no instance build.
    pub memo_hits: u64,
    /// Preemptions (parked runs).
    pub preemptions: u64,
    /// Parked jobs that re-entered execution.
    pub resumes: u64,
    /// Jobs that finished and stored a result.
    pub completed: u64,
    /// Jobs that failed.
    pub failed: u64,
    /// Result-store evictions.
    pub evictions: u64,
    /// Deepest run queue observed.
    pub max_queue_depth: usize,
    /// Live result-store entries.
    pub store_entries: usize,
}

/// Why a service call failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// The spec could not be decoded.
    Spec(SpecError),
    /// The spec's start selection is invalid for its instance.
    Start(StartError),
    /// The result store refused an operation.
    Store(StoreError),
    /// No job with the given id.
    UnknownJob(u64),
    /// The job has not finished, so it has no result yet.
    NotDone(u64),
    /// The job failed; message attached.
    JobFailed(String),
    /// Waiting for a state change timed out.
    Timeout,
    /// The service is shutting down and no longer accepts work.
    ShuttingDown,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Spec(e) => write!(f, "bad spec: {e}"),
            ServeError::Start(e) => write!(f, "bad start selection: {e}"),
            ServeError::Store(e) => write!(f, "store error: {e}"),
            ServeError::UnknownJob(job) => write!(f, "unknown job {job}"),
            ServeError::NotDone(job) => write!(f, "job {job} has no result yet"),
            ServeError::JobFailed(msg) => write!(f, "job failed: {msg}"),
            ServeError::Timeout => write!(f, "timed out waiting for a state change"),
            ServeError::ShuttingDown => write!(f, "service is shutting down"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<SpecError> for ServeError {
    fn from(e: SpecError) -> Self {
        ServeError::Spec(e)
    }
}

impl From<StoreError> for ServeError {
    fn from(e: StoreError) -> Self {
        ServeError::Store(e)
    }
}

/// Everything the scheduler needs to (re)run one job, resolved at
/// submission time so the run loop never re-parses anything.
struct PreparedSweep {
    spec: SweepSpec,
    config: RunConfig,
    instance: Instance,
    identity: SweepIdentity,
}

struct JobRecord {
    status: JobStatus,
    /// The prepared sweep of a queued, running or parked job; dropped
    /// once the job is done or failed, so the job table does not keep
    /// every instance it ever ran.
    work: Option<Arc<PreparedSweep>>,
}

struct Inner {
    jobs: BTreeMap<u64, JobRecord>,
    /// Finished job ids, oldest first, at most `MAX_FINISHED_JOBS` long.
    finished: VecDeque<u64>,
    /// In-flight dedup index: raw SweepId -> job id.
    by_sweep: BTreeMap<u64, u64>,
    /// Spec (priority cleared) -> identity, oldest first, at most
    /// `MEMO_CAP` long; never written to disk.
    memo: VecDeque<(SweepSpec, SweepIdentity)>,
    /// Queued job ids (scheduler picks by priority, then id).
    queue: Vec<u64>,
    running: Option<(u64, CancelFlag)>,
    store: ResultStore,
    tracer: RecordingTracer,
    stats: ServeStats,
    next_job: u64,
    shutdown: bool,
}

struct Shared {
    inner: Mutex<Inner>,
    /// Signaled when the queue gains work or shutdown is requested.
    work: Condvar,
    /// Signaled on any job state change (pollers wait here).
    change: Condvar,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The sweep service: owns the result store, the run queue and the
/// scheduler thread driving the shared engine pool.
pub struct SweepService {
    shared: Arc<Shared>,
    scheduler: Option<std::thread::JoinHandle<()>>,
    threads: usize,
    spool_dir: PathBuf,
}

impl SweepService {
    /// Starts the service: opens the store, creates the spool, deletes
    /// the spool files that do not decode (an earlier checkpoint schema's
    /// would refuse every resubmission of its spec) and spawns the
    /// scheduler thread. A decodable spool file an earlier process left
    /// is resumed when its spec is submitted again.
    pub fn start(config: &ServeConfig) -> Result<Self, ServeError> {
        let io = |e: std::io::Error| ServeError::Store(StoreError::Io(e.to_string()));
        let store = ResultStore::open(&config.store_dir, config.max_store_entries)?;
        std::fs::create_dir_all(&config.spool_dir).map_err(io)?;
        for entry in std::fs::read_dir(&config.spool_dir).map_err(io)? {
            let path = entry.map_err(io)?.path();
            if !path.to_str().is_some_and(|p| p.ends_with(".ckpt.json")) {
                continue;
            }
            let text = std::fs::read_to_string(&path).unwrap_or_default();
            if SweepCheckpoint::from_json(&text).is_err() {
                std::fs::remove_file(&path).map_err(io)?;
            }
        }
        let store_entries = store.len();
        let shared = Arc::new(Shared {
            inner: Mutex::new(Inner {
                jobs: BTreeMap::new(),
                finished: VecDeque::new(),
                by_sweep: BTreeMap::new(),
                memo: VecDeque::new(),
                queue: Vec::new(),
                running: None,
                store,
                tracer: RecordingTracer {
                    cap: Some(TRACE_CAP),
                    ..RecordingTracer::default()
                },
                stats: ServeStats {
                    store_entries,
                    ..ServeStats::default()
                },
                next_job: 1,
                shutdown: false,
            }),
            work: Condvar::new(),
            change: Condvar::new(),
        });
        let threads = config.threads.max(1);
        let spool_dir = config.spool_dir.clone();
        let scheduler = {
            let shared = Arc::clone(&shared);
            let spool_dir = spool_dir.clone();
            std::thread::spawn(move || scheduler_loop(&shared, threads, &spool_dir))
        };
        Ok(Self {
            shared,
            scheduler: Some(scheduler),
            threads,
            spool_dir,
        })
    }

    /// Submits a spec. Refuses a recipe [`InstanceRef::check`] refuses,
    /// then resolves the sweep identity and answers from the store (cache
    /// hit), an in-flight job (dedup) or a fresh admission — in that
    /// order. A spec resolved before comes from the memo: a hit or a dedup
    /// on it builds no instance, resolves no starts and folds nothing, and
    /// an admission of it builds the instance the run needs but folds
    /// nothing. The memo is sound because [`InstanceRef::build`] is a pure
    /// function of the spec within one binary.
    ///
    /// [`InstanceRef::check`]: crate::InstanceRef::check
    /// [`InstanceRef::build`]: crate::InstanceRef::build
    pub fn submit(&self, spec: &SweepSpec) -> Result<Submission, ServeError> {
        spec.instance.check()?;
        let key = SweepSpec {
            priority: Priority::Batch,
            ..*spec
        };
        let memoized = {
            let mut g = self.open_lock()?;
            let memoized = g.memo.iter().find(|(s, _)| *s == key).map(|&(_, id)| id);
            if let Some(identity) = memoized {
                if let Some(answer) = self.answer(&mut g, identity.sweep_id, spec.priority) {
                    g.stats.memo_hits += 1;
                    return Ok(answer);
                }
            }
            memoized
        };
        // Instance construction and identity folding happen outside the
        // service lock; both are pure.
        let instance = spec.instance.build();
        let config = spec.run_config();
        let identity = match memoized {
            Some(identity) => identity,
            None => {
                let starts = config
                    .starts
                    .starts(instance.n())
                    .map_err(ServeError::Start)?;
                spec.algorithm.identity(&instance, &config, &starts)
            }
        };
        let sweep_id = identity.sweep_id;

        let mut g = self.open_lock()?;
        if memoized.is_some() {
            g.stats.memo_hits += 1;
        } else if !g.memo.iter().any(|(s, _)| *s == key) {
            if g.memo.len() == MEMO_CAP {
                g.memo.pop_front();
            }
            g.memo.push_back((key, identity));
        }
        // The lock was dropped for the build: the sweep may have been
        // stored or admitted since, and two jobs must not share its spool.
        if let Some(answer) = self.answer(&mut g, sweep_id, spec.priority) {
            return Ok(answer);
        }
        g.stats.submissions += 1;
        let job = g.next_job;
        g.next_job += 1;
        g.stats.misses += 1;
        g.jobs.insert(
            job,
            JobRecord {
                status: JobStatus {
                    job,
                    sweep_id,
                    state: JobState::Queued,
                    priority: spec.priority,
                    preemptions: 0,
                    completed_chunks: 0,
                    num_chunks: 0,
                    error: None,
                },
                work: Some(Arc::new(PreparedSweep {
                    spec: *spec,
                    config,
                    instance,
                    identity,
                })),
            },
        );
        g.by_sweep.insert(sweep_id.raw(), job);
        g.queue.push(job);
        let depth = g.queue.len();
        g.stats.max_queue_depth = g.stats.max_queue_depth.max(depth);
        g.tracer.event(TraceEvent::JobAdmitted {
            job,
            queue_depth: depth,
        });
        // An interactive arrival preempts a running batch job between its
        // starts: trip the flag, the engine parks itself.
        if spec.priority == Priority::Interactive {
            if let Some((running_id, flag)) = &g.running {
                let running_batch = g
                    .jobs
                    .get(running_id)
                    .is_some_and(|r| r.status.priority == Priority::Batch);
                if running_batch {
                    flag.cancel();
                }
            }
        }
        self.shared.work.notify_all();
        self.shared.change.notify_all();
        Ok(Submission {
            job,
            sweep_id,
            cache_hit: false,
            deduped: false,
        })
    }

    /// The service lock, or [`ServeError::ShuttingDown`].
    fn open_lock(&self) -> Result<MutexGuard<'_, Inner>, ServeError> {
        let g = self.shared.lock();
        if g.shutdown {
            return Err(ServeError::ShuttingDown);
        }
        Ok(g)
    }

    /// Answers a submission of `sweep_id` from the store (a hit, under a
    /// job id of its own) or from its in-flight job (a dedup), and counts
    /// it; `None` when the sweep is neither, and must be admitted.
    fn answer(&self, g: &mut Inner, sweep_id: SweepId, priority: Priority) -> Option<Submission> {
        if g.store.contains(sweep_id) {
            let job = g.next_job;
            g.next_job += 1;
            g.stats.submissions += 1;
            g.stats.hits += 1;
            g.tracer.event(TraceEvent::CacheHit { job });
            g.jobs.insert(
                job,
                JobRecord {
                    status: JobStatus {
                        job,
                        sweep_id,
                        state: JobState::Done { cache_hit: true },
                        priority,
                        preemptions: 0,
                        completed_chunks: 0,
                        num_chunks: 0,
                        error: None,
                    },
                    work: None,
                },
            );
            retire(g, job);
            self.shared.change.notify_all();
            return Some(Submission {
                job,
                sweep_id,
                cache_hit: true,
                deduped: false,
            });
        }
        let &job = g.by_sweep.get(&sweep_id.raw())?;
        g.stats.submissions += 1;
        g.stats.deduped += 1;
        Some(Submission {
            job,
            sweep_id,
            cache_hit: false,
            deduped: true,
        })
    }

    /// The current status of `job`.
    pub fn status(&self, job: u64) -> Result<JobStatus, ServeError> {
        let g = self.shared.lock();
        g.jobs
            .get(&job)
            .map(|r| r.status.clone())
            .ok_or(ServeError::UnknownJob(job))
    }

    /// Blocks until `pred` holds for `job`'s status, or `timeout`
    /// elapses ([`ServeError::Timeout`]).
    pub fn wait_job(
        &self,
        job: u64,
        timeout: Duration,
        pred: impl Fn(&JobStatus) -> bool,
    ) -> Result<JobStatus, ServeError> {
        let mut g = self.shared.lock();
        loop {
            let status = g
                .jobs
                .get(&job)
                .map(|r| r.status.clone())
                .ok_or(ServeError::UnknownJob(job))?;
            if pred(&status) {
                return Ok(status);
            }
            let (guard, wait) = self
                .shared
                .change
                .wait_timeout(g, timeout)
                .unwrap_or_else(PoisonError::into_inner);
            g = guard;
            if wait.timed_out() {
                return Err(ServeError::Timeout);
            }
        }
    }

    /// Blocks until `job` is done and returns its stored result payload
    /// (the sweep's sealed checkpoint file).
    pub fn wait_result(&self, job: u64, timeout: Duration) -> Result<String, ServeError> {
        let status = self.wait_job(job, timeout, |s| {
            matches!(s.state, JobState::Done { .. } | JobState::Failed)
        })?;
        self.result_of(&status)
    }

    /// Returns the stored result payload of a finished `job`; the service
    /// keeps the last [`MAX_FINISHED_JOBS`] finished jobs, and an older one
    /// is [`ServeError::UnknownJob`].
    pub fn result(&self, job: u64) -> Result<String, ServeError> {
        let status = self.status(job)?;
        self.result_of(&status)
    }

    fn result_of(&self, status: &JobStatus) -> Result<String, ServeError> {
        match status.state {
            JobState::Done { .. } => {
                // Only the path is taken under the lock; the file read and
                // the seal check run outside it. Entries appear by a
                // rename, so this sees a whole file or none.
                let path = self.shared.lock().store.entry_path(status.sweep_id);
                ResultStore::load_entry(&path, status.sweep_id).map_err(|e| {
                    // An entry the load refuses would answer every later
                    // submission of its sweep with the same refusal: drop
                    // it, so the next one recomputes the sweep.
                    if !matches!(e, StoreError::Io(_)) {
                        self.shared.lock().store.remove(status.sweep_id);
                    }
                    e.into()
                })
            }
            JobState::Failed => Err(ServeError::JobFailed(
                status
                    .error
                    .clone()
                    .unwrap_or_else(|| "unknown".to_string()),
            )),
            _ => Err(ServeError::NotDone(status.job)),
        }
    }

    /// A snapshot of the service counters.
    pub fn stats(&self) -> ServeStats {
        let g = self.shared.lock();
        self.stats_of(&g)
    }

    fn stats_of(&self, g: &Inner) -> ServeStats {
        ServeStats {
            evictions: g.store.evictions(),
            store_entries: g.store.len(),
            ..g.stats
        }
    }

    /// The trace events recorded so far (scheduling transitions).
    pub fn events(&self) -> Vec<TraceEvent> {
        self.shared.lock().tracer.events.clone()
    }

    /// Emits the `vc-serve-report/v1` stats document as compact JSON
    /// (single line, so it can double as a protocol payload).
    pub fn report_json(&self) -> String {
        let g = self.shared.lock();
        let stats = self.stats_of(&g);
        vc_json::line(&obj! {
            "schema": REPORT_SCHEMA, "threads": self.threads, "submissions": stats.submissions,
            "hits": stats.hits, "misses": stats.misses, "deduped": stats.deduped,
            "memo_hits": stats.memo_hits,
            "preemptions": stats.preemptions, "resumes": stats.resumes,
            "completed": stats.completed, "failed": stats.failed, "evictions": stats.evictions,
            "queue_depth": g.queue.len(), "max_queue_depth": stats.max_queue_depth,
            "store_entries": stats.store_entries,
            "jobs": Json::arr(g.jobs.values().map(|JobRecord { status: s, .. }| obj! {
                "job": s.job, "sweep_id": s.sweep_id.to_string(), "state": s.state.name(),
                "cache_hit": matches!(s.state, JobState::Done { cache_hit: true }),
                "preemptions": s.preemptions, "completed_chunks": s.completed_chunks,
                "num_chunks": s.num_chunks,
            })),
        })
    }

    /// Stops accepting work, cancels any running job (it parks like any
    /// other preemption), joins the scheduler and returns final stats.
    /// Queued jobs stay queued and are reported as such.
    pub fn shutdown(mut self) -> ServeStats {
        {
            let mut g = self.shared.lock();
            g.shutdown = true;
            if let Some((_, flag)) = &g.running {
                flag.cancel();
            }
            self.shared.work.notify_all();
            self.shared.change.notify_all();
        }
        if let Some(handle) = self.scheduler.take() {
            let _ = handle.join();
        }
        self.stats()
    }

    /// The spool path for a sweep's in-flight checkpoint.
    pub fn spool_path(&self, sweep_id: SweepId) -> PathBuf {
        spool_path(&self.spool_dir, sweep_id)
    }
}

impl Drop for SweepService {
    fn drop(&mut self) {
        let mut g = self.shared.lock();
        g.shutdown = true;
        if let Some((_, flag)) = &g.running {
            flag.cancel();
        }
        self.shared.work.notify_all();
        drop(g);
        if let Some(handle) = self.scheduler.take() {
            let _ = handle.join();
        }
    }
}

fn spool_path(spool_dir: &std::path::Path, sweep_id: SweepId) -> PathBuf {
    spool_dir.join(format!("{sweep_id}.ckpt.json"))
}

/// Records `job` as finished; past `MAX_FINISHED_JOBS` the oldest
/// finished record leaves the table.
fn retire(g: &mut Inner, job: u64) {
    g.finished.push_back(job);
    if g.finished.len() > MAX_FINISHED_JOBS {
        if let Some(oldest) = g.finished.pop_front() {
            g.jobs.remove(&oldest);
        }
    }
}

/// Picks the queue index to run next: highest priority first, then
/// lowest job id (admission order). Returns `None` on an empty queue.
fn pick_next(g: &Inner) -> Option<usize> {
    let mut best: Option<(usize, Priority, u64)> = None;
    for (idx, &job) in g.queue.iter().enumerate() {
        let priority = g
            .jobs
            .get(&job)
            .map(|r| r.status.priority)
            .unwrap_or(Priority::Batch);
        let better = match best {
            None => true,
            Some((_, bp, bj)) => priority > bp || (priority == bp && job < bj),
        };
        if better {
            best = Some((idx, priority, job));
        }
    }
    best.map(|(idx, _, _)| idx)
}

fn scheduler_loop(shared: &Shared, threads: usize, spool_dir: &std::path::Path) {
    loop {
        // Claim the next job (or exit on shutdown).
        let (job, work, flag) = {
            let mut g = shared.lock();
            let claimed = loop {
                if g.shutdown {
                    return;
                }
                if let Some(idx) = pick_next(&g) {
                    break g.queue.remove(idx);
                }
                g = shared.work.wait(g).unwrap_or_else(PoisonError::into_inner);
            };
            let flag = CancelFlag::new();
            let inner = &mut *g;
            let Some(record) = inner.jobs.get_mut(&claimed) else {
                continue;
            };
            let Some(work) = record.work.clone() else {
                continue;
            };
            if record.status.state == JobState::Parked {
                inner.stats.resumes += 1;
                inner.tracer.event(TraceEvent::JobResumed {
                    job: claimed,
                    completed_chunks: record.status.completed_chunks,
                });
            }
            record.status.state = JobState::Running;
            inner.running = Some((claimed, flag.clone()));
            shared.change.notify_all();
            (claimed, work, flag)
        };
        // The run below keeps this core busy. A waiter the notify woke may
        // be queued on this core, and would wait out a time slice before it
        // sees the job running; yield so that it runs first.
        std::thread::yield_now();

        // Run outside the lock, on the identity `submit` folded (`work` is
        // immutable). A tripped flag stops the run between starts; the
        // engine still writes the (partial) checkpoint file.
        let ckpt = spool_path(spool_dir, work.identity.sweep_id);
        let engine = Engine::with_threads(threads).with_cancel_flag(flag);
        let outcome =
            work.spec
                .algorithm
                .run_as(&engine, &work.instance, &work.config, work.identity, &ckpt);

        let mut g = shared.lock();
        let inner = &mut *g;
        inner.running = None;
        let Some(record) = inner.jobs.get_mut(&job) else {
            shared.change.notify_all();
            continue;
        };
        match outcome {
            Ok(report) => {
                record.status.completed_chunks = report.completed_chunks;
                record.status.num_chunks = report.num_chunks;
                if report.is_complete() {
                    // The sealed spool file becomes the entry as it is.
                    match inner.store.store_file(work.identity.sweep_id, &ckpt) {
                        Ok(()) => {
                            record.status.state = JobState::Done { cache_hit: false };
                            inner.stats.completed += 1;
                        }
                        Err(e) => {
                            record.status.state = JobState::Failed;
                            record.status.error = Some(e.to_string());
                            inner.stats.failed += 1;
                        }
                    }
                    inner.by_sweep.remove(&work.identity.sweep_id.raw());
                    record.work = None;
                    retire(inner, job);
                } else {
                    // Preempted: park and re-queue.
                    record.status.state = JobState::Parked;
                    record.status.preemptions += 1;
                    inner.stats.preemptions += 1;
                    inner.tracer.event(TraceEvent::JobPreempted {
                        job,
                        completed_chunks: report.completed_chunks,
                    });
                    inner.queue.push(job);
                    inner.stats.max_queue_depth =
                        inner.stats.max_queue_depth.max(inner.queue.len());
                }
            }
            Err(e) => {
                record.status.state = JobState::Failed;
                record.status.error = Some(e.to_string());
                inner.stats.failed += 1;
                inner.by_sweep.remove(&work.identity.sweep_id.raw());
                record.work = None;
                retire(inner, job);
            }
        }
        shared.change.notify_all();
        shared.work.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{AlgorithmRef, InstanceRef, MAX_NODES};

    const WAIT: Duration = Duration::from_secs(120);

    fn temp_config(tag: &str, threads: usize) -> ServeConfig {
        let root =
            std::env::temp_dir().join(format!("vc-serve-sched-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        ServeConfig {
            threads,
            store_dir: root.join("store"),
            spool_dir: root.join("spool"),
            max_store_entries: None,
        }
    }

    fn small_spec(seed: u64) -> SweepSpec {
        SweepSpec::new(
            InstanceRef::FullBinaryTree { n: 255, seed },
            AlgorithmRef::LeafDistance,
        )
    }

    #[test]
    fn miss_then_hit_is_byte_identical() {
        let config = temp_config("hit", 2);
        let service = SweepService::start(&config).expect("start");
        let spec = small_spec(5);
        let cold = service.submit(&spec).expect("submit");
        assert!(!cold.cache_hit && !cold.deduped);
        let cold_bytes = service.wait_result(cold.job, WAIT).expect("cold result");
        let warm = service.submit(&spec).expect("resubmit");
        assert!(warm.cache_hit);
        assert_ne!(warm.job, cold.job);
        let warm_bytes = service.wait_result(warm.job, WAIT).expect("warm result");
        assert_eq!(cold_bytes, warm_bytes);
        let stats = service.shutdown();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.completed, 1);
        let _ = std::fs::remove_dir_all(config.store_dir.parent().unwrap_or(&config.store_dir));
    }

    #[test]
    fn finished_jobs_release_their_prepared_work() {
        let config = temp_config("release", 1);
        let service = SweepService::start(&config).expect("start");
        let spec = small_spec(6);
        let cold = service.submit(&spec).expect("submit");
        service.wait_result(cold.job, WAIT).expect("cold result");
        let holds_work = |s: &SweepService| s.shared.lock().jobs.values().any(|r| r.work.is_some());
        assert!(!holds_work(&service), "a done job kept its instance");
        let warm = service.submit(&spec).expect("resubmit");
        assert!(warm.cache_hit);
        assert!(!holds_work(&service));
        drop(service);
        let _ = std::fs::remove_dir_all(config.store_dir.parent().unwrap_or(&config.store_dir));
    }

    #[test]
    fn duplicate_inflight_submission_returns_the_same_job() {
        let config = temp_config("dedup", 1);
        let service = SweepService::start(&config).expect("start");
        // Park a long blocker on the (single) scheduler first, so the
        // job under test stays queued while its duplicate arrives.
        let blocker = SweepSpec {
            tape_seed: Some(3),
            ..SweepSpec::new(
                InstanceRef::FullBinaryTree { n: 65535, seed: 2 },
                AlgorithmRef::LeafRandomWalk { step_factor: 32 },
            )
        };
        let blocking = service.submit(&blocker).expect("submit blocker");
        service
            .wait_job(blocking.job, WAIT, |s| s.state == JobState::Running)
            .expect("blocker runs");
        let spec = small_spec(8);
        let first = service.submit(&spec).expect("submit");
        let second = service.submit(&spec).expect("duplicate");
        assert!(second.deduped);
        assert_eq!(second.job, first.job);
        service.wait_result(first.job, WAIT).expect("result");
        let stats = service.shutdown();
        assert_eq!(stats.deduped, 1);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.completed, 2);
        let _ = std::fs::remove_dir_all(config.store_dir.parent().unwrap_or(&config.store_dir));
    }

    #[test]
    fn a_parked_job_still_dedups() {
        let config = temp_config("parked-dedup", 1);
        let mut service = SweepService::start(&config).expect("start");
        let spec = SweepSpec {
            tape_seed: Some(3),
            ..SweepSpec::new(
                InstanceRef::FullBinaryTree { n: 65535, seed: 2 },
                AlgorithmRef::LeafRandomWalk { step_factor: 32 },
            )
        };
        let victim = service.submit(&spec).expect("submit");
        service
            .wait_job(victim.job, WAIT, |s| s.state == JobState::Running)
            .expect("victim runs");
        // Cancel the run and stop the scheduler: the victim parks, and
        // nothing resumes it while its duplicate is submitted.
        {
            let mut g = service.shared.lock();
            let Some((job, flag)) = &g.running else {
                panic!("the victim finished before its cancel");
            };
            assert_eq!(*job, victim.job);
            flag.cancel();
            g.shutdown = true;
            service.shared.work.notify_all();
        }
        if let Some(scheduler) = service.scheduler.take() {
            scheduler.join().expect("scheduler exits");
        }
        let status = service.status(victim.job).expect("status");
        assert_eq!((status.state, status.preemptions), (JobState::Parked, 1));
        service.shared.lock().shutdown = false;
        let duplicate = service.submit(&spec).expect("duplicate");
        assert!(duplicate.deduped, "the parked job lost its dedup entry");
        assert_eq!(duplicate.job, victim.job);
        drop(service);
        let _ = std::fs::remove_dir_all(config.store_dir.parent().unwrap_or(&config.store_dir));
    }

    #[test]
    fn interactive_preempts_batch_and_resume_is_byte_identical() {
        let config = temp_config("preempt", 2);
        let service = SweepService::start(&config).expect("start");
        let batch = SweepSpec {
            tape_seed: Some(7),
            ..SweepSpec::new(
                InstanceRef::FullBinaryTree { n: 65535, seed: 9 },
                AlgorithmRef::LeafRandomWalk { step_factor: 32 },
            )
        };
        let victim = service.submit(&batch).expect("submit batch");
        service
            .wait_job(victim.job, WAIT, |s| s.state == JobState::Running)
            .expect("batch runs");
        let interactive = SweepSpec {
            priority: Priority::Interactive,
            ..small_spec(1)
        };
        let urgent = service.submit(&interactive).expect("submit interactive");
        service.wait_result(urgent.job, WAIT).expect("urgent done");
        let preempted_bytes = service.wait_result(victim.job, WAIT).expect("victim done");
        let status = service.status(victim.job).expect("status");
        assert!(status.preemptions >= 1, "batch job was never preempted");
        let stats = service.stats();
        assert!(stats.preemptions >= 1);
        assert!(stats.resumes >= 1);
        let events = service.events();
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::JobPreempted { job, .. } if *job == victim.job)));
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::JobResumed { job, .. } if *job == victim.job)));
        drop(service);

        // Reference: the same sweep, uninterrupted, fresh store.
        let reference = temp_config("preempt-ref", 2);
        let ref_service = SweepService::start(&reference).expect("start ref");
        let sub = ref_service.submit(&batch).expect("submit ref");
        let clean_bytes = ref_service.wait_result(sub.job, WAIT).expect("ref done");
        assert_eq!(
            preempted_bytes, clean_bytes,
            "preempted+resumed checkpoint diverged from the uninterrupted run"
        );
        drop(ref_service);
        let _ = std::fs::remove_dir_all(config.store_dir.parent().unwrap_or(&config.store_dir));
        let _ =
            std::fs::remove_dir_all(reference.store_dir.parent().unwrap_or(&reference.store_dir));
    }

    #[test]
    fn report_is_valid_compact_json() {
        let config = temp_config("report", 1);
        let mut service = SweepService::start(&config).expect("start");
        let sub = service.submit(&small_spec(2)).expect("submit");
        service.wait_result(sub.job, WAIT).expect("result");
        let report = service.report_json();
        assert_eq!(
            report,
            "{\"schema\":\"vc-serve-report/v1\",\"threads\":1,\"submissions\":1,\"hits\":0,\
             \"misses\":1,\"deduped\":0,\"memo_hits\":0,\"preemptions\":0,\"resumes\":0,\
             \"completed\":1,\"failed\":0,\"evictions\":0,\"queue_depth\":0,\
             \"max_queue_depth\":1,\"store_entries\":1,\"jobs\":[{\"job\":1,\
             \"sweep_id\":\"a45ca82c4087bb41\",\"state\":\"done\",\"cache_hit\":false,\
             \"preemptions\":0,\"completed_chunks\":4,\"num_chunks\":4}]}"
        );
        assert!(!report.contains('\n'));
        let doc = vc_json::parse(&report).expect("report parses");
        assert_eq!(
            doc.get("schema").and_then(vc_json::Value::as_str),
            Some(REPORT_SCHEMA)
        );
        assert_eq!(doc.get("misses").and_then(vc_json::Value::as_u64), Some(1));
        let jobs = doc
            .get("jobs")
            .and_then(vc_json::Value::as_arr)
            .expect("jobs");
        assert_eq!(jobs.len(), 1);
        assert_eq!(
            jobs[0].get("state").and_then(vc_json::Value::as_str),
            Some("done")
        );

        // A hit, then a dedup on a stopped scheduler: both come from the
        // memo, and the duplicate's job stays queued.
        assert!(service.submit(&small_spec(2)).expect("hit").cache_hit);
        stop_scheduler(&mut service);
        let queued = service.submit(&small_spec(3)).expect("submit");
        let duplicate = service.submit(&small_spec(3)).expect("duplicate");
        assert!(duplicate.deduped && duplicate.job == queued.job);
        assert_eq!(
            service.report_json(),
            "{\"schema\":\"vc-serve-report/v1\",\"threads\":1,\"submissions\":4,\"hits\":1,\
             \"misses\":2,\"deduped\":1,\"memo_hits\":2,\"preemptions\":0,\"resumes\":0,\
             \"completed\":1,\"failed\":0,\"evictions\":0,\"queue_depth\":1,\
             \"max_queue_depth\":1,\"store_entries\":1,\"jobs\":[{\"job\":1,\
             \"sweep_id\":\"a45ca82c4087bb41\",\"state\":\"done\",\"cache_hit\":false,\
             \"preemptions\":0,\"completed_chunks\":4,\"num_chunks\":4},{\"job\":2,\
             \"sweep_id\":\"a45ca82c4087bb41\",\"state\":\"done\",\"cache_hit\":true,\
             \"preemptions\":0,\"completed_chunks\":0,\"num_chunks\":0},{\"job\":3,\
             \"sweep_id\":\"2603a3eb56c69a7a\",\"state\":\"queued\",\"cache_hit\":false,\
             \"preemptions\":0,\"completed_chunks\":0,\"num_chunks\":0}]}"
        );
        drop(service);
        let _ = std::fs::remove_dir_all(config.store_dir.parent().unwrap_or(&config.store_dir));
    }

    /// Stops the scheduler thread while the service keeps taking
    /// submissions: what is admitted from here on stays queued.
    fn stop_scheduler(service: &mut SweepService) {
        {
            let mut g = service.shared.lock();
            g.shutdown = true;
            service.shared.work.notify_all();
        }
        if let Some(scheduler) = service.scheduler.take() {
            scheduler.join().expect("scheduler exits");
        }
        service.shared.lock().shutdown = false;
    }

    /// The identity a fresh build and fold give `spec`.
    fn folded(spec: &SweepSpec) -> SweepId {
        let inst = spec.instance.build();
        let config = spec.run_config();
        let starts = config.starts.starts(inst.n()).expect("starts");
        spec.algorithm.identity(&inst, &config, &starts).sweep_id
    }

    #[test]
    fn a_memo_hit_resolves_to_the_identity_a_fresh_fold_gives() {
        let config = temp_config("memo", 1);
        let service = SweepService::start(&config).expect("start");
        let instances = [
            InstanceRef::FullBinaryTree { n: 63, seed: 4 },
            InstanceRef::PseudoTree {
                n: 63,
                cycle: 5,
                seed: 4,
            },
        ];
        let algorithms = [
            AlgorithmRef::LeafDistance,
            AlgorithmRef::LeafRandomWalk { step_factor: 8 },
        ];
        let mut memo_hits = 0;
        for instance in instances {
            for algorithm in algorithms {
                let spec = SweepSpec {
                    tape_seed: Some(3),
                    ..SweepSpec::new(instance, algorithm)
                };
                let cold = service.submit(&spec).expect("submit");
                service.wait_result(cold.job, WAIT).expect("result");
                assert_eq!(service.stats().memo_hits, memo_hits);
                // Priority is not part of the key: the flipped spec hits.
                let flipped = SweepSpec {
                    priority: Priority::Interactive,
                    ..spec
                };
                let warm = service.submit(&flipped).expect("resubmit");
                memo_hits += 1;
                assert!(warm.cache_hit, "{spec:?}");
                assert_eq!(service.stats().memo_hits, memo_hits, "{spec:?}");
                assert_eq!(warm.sweep_id, folded(&spec), "{spec:?}");
            }
        }
        drop(service);
        let _ = std::fs::remove_dir_all(config.store_dir.parent().unwrap_or(&config.store_dir));
    }

    #[test]
    fn past_its_cap_the_memo_folds_its_oldest_spec_again() {
        let config = temp_config("memo-cap", 1);
        let service = SweepService::start(&config).expect("start");
        // Three-node trees: the specs are distinct but few of their sweeps
        // are, so most submissions are hits and few sweeps run.
        let spec = |seed| {
            SweepSpec::new(
                InstanceRef::FullBinaryTree { n: 3, seed },
                AlgorithmRef::LeafDistance,
            )
        };
        let first = service.submit(&spec(0)).expect("first");
        for seed in 1..=MEMO_CAP as u64 {
            service.submit(&spec(seed)).expect("submit");
        }
        assert_eq!(service.stats().memo_hits, 0);
        let again = service.submit(&spec(0)).expect("again");
        assert_eq!(service.stats().memo_hits, 0, "the oldest spec stayed");
        assert_eq!(again.sweep_id, first.sweep_id);
        assert_eq!(again.sweep_id, folded(&spec(0)));
        // The newest spec is still remembered.
        service.submit(&spec(MEMO_CAP as u64)).expect("newest");
        assert_eq!(service.stats().memo_hits, 1);
        drop(service);
        let _ = std::fs::remove_dir_all(config.store_dir.parent().unwrap_or(&config.store_dir));
    }

    #[test]
    fn an_evicted_memoized_spec_recomputes_its_bytes() {
        let config = ServeConfig {
            max_store_entries: Some(1),
            ..temp_config("memo-evict", 1)
        };
        let service = SweepService::start(&config).expect("start");
        let first = service.submit(&small_spec(10)).expect("first");
        let first_bytes = service.wait_result(first.job, WAIT).expect("first result");
        let second = service.submit(&small_spec(11)).expect("second");
        service
            .wait_result(second.job, WAIT)
            .expect("second result");
        let again = service.submit(&small_spec(10)).expect("again");
        assert!(!again.cache_hit && !again.deduped);
        assert_eq!(again.sweep_id, first.sweep_id);
        let again_bytes = service.wait_result(again.job, WAIT).expect("recomputed");
        assert_eq!(again_bytes, first_bytes);
        let stats = service.shutdown();
        assert_eq!((stats.memo_hits, stats.misses, stats.evictions), (1, 3, 2));
        let _ = std::fs::remove_dir_all(config.store_dir.parent().unwrap_or(&config.store_dir));
    }

    #[test]
    fn a_memoized_unstored_spec_submitted_twice_admits_one_job() {
        let config = ServeConfig {
            max_store_entries: Some(1),
            ..temp_config("memo-dedup", 1)
        };
        let mut service = SweepService::start(&config).expect("start");
        for seed in [12, 13] {
            let sub = service.submit(&small_spec(seed)).expect("submit");
            service.wait_result(sub.job, WAIT).expect("result");
        }
        // small_spec(12) is evicted but remembered.
        stop_scheduler(&mut service);
        let first = service.submit(&small_spec(12)).expect("first");
        let second = service.submit(&small_spec(12)).expect("second");
        assert!(!first.cache_hit && !first.deduped);
        assert!(second.deduped);
        assert_eq!(second.job, first.job);
        let stats = service.stats();
        assert_eq!((stats.misses, stats.deduped, stats.memo_hits), (3, 1, 2));
        assert_eq!(service.shared.lock().queue, [first.job]);
        drop(service);
        let _ = std::fs::remove_dir_all(config.store_dir.parent().unwrap_or(&config.store_dir));
    }

    #[test]
    fn past_its_cap_the_job_table_drops_its_oldest_finished_records() {
        let config = temp_config("job-cap", 1);
        let mut service = SweepService::start(&config).expect("start");
        let cold = service.submit(&small_spec(14)).expect("submit");
        let stored = service.wait_result(cold.job, WAIT).expect("result");
        stop_scheduler(&mut service);
        let queued = service.submit(&small_spec(15)).expect("queued").job;
        let hits: Vec<u64> = (0..MAX_FINISHED_JOBS + 8)
            .map(|_| service.submit(&small_spec(14)).expect("hit"))
            .inspect(|hit| assert!(hit.cache_hit))
            .map(|hit| hit.job)
            .collect();
        let finished = |s: &JobStatus| matches!(s.state, JobState::Done { .. } | JobState::Failed);
        {
            let g = service.shared.lock();
            let kept = g.jobs.values().filter(|r| finished(&r.status)).count();
            assert_eq!(
                (g.jobs.len(), kept),
                (MAX_FINISHED_JOBS + 1, MAX_FINISHED_JOBS)
            );
        }
        assert_eq!(
            service.status(queued).expect("queued").state,
            JobState::Queued
        );
        assert_eq!(
            service.status(hits[0]),
            Err(ServeError::UnknownJob(hits[0]))
        );
        let last = hits[hits.len() - 1];
        assert_eq!(service.result(last).expect("last hit"), stored);
        drop(service);
        let _ = std::fs::remove_dir_all(config.store_dir.parent().unwrap_or(&config.store_dir));
    }

    #[test]
    fn a_recipe_the_generator_would_panic_on_is_refused() {
        let config = temp_config("refused", 1);
        let service = SweepService::start(&config).expect("start");
        let cycle_two = SweepSpec::new(
            InstanceRef::PseudoTree {
                n: 10,
                cycle: 2,
                seed: 1,
            },
            AlgorithmRef::LeafDistance,
        );
        let refused = service.submit(&cycle_two);
        assert!(
            matches!(
                refused,
                Err(ServeError::Spec(SpecError::OutOfRange {
                    field: "instance.cycle",
                    value: 2,
                    ..
                }))
            ),
            "{refused:?}"
        );
        let huge = SweepSpec::new(
            InstanceRef::FullBinaryTree {
                n: MAX_NODES + 1,
                seed: 1,
            },
            AlgorithmRef::LeafDistance,
        );
        let refused = service.submit(&huge);
        assert!(
            matches!(
                refused,
                Err(ServeError::Spec(SpecError::OutOfRange {
                    field: "instance.n",
                    ..
                }))
            ),
            "{refused:?}"
        );
        // A refused spec enters neither the counters nor the memo.
        assert!(service.shared.lock().memo.is_empty());
        assert_eq!(service.shutdown().submissions, 0);
        let _ = std::fs::remove_dir_all(config.store_dir.parent().unwrap_or(&config.store_dir));
    }
}
