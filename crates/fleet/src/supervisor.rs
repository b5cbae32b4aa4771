//! The [`supervise`] loop: poll, suspect, kill, reassign, merge.
//!
//! This module is the workspace's **only** sanctioned sleep site (rule
//! VC015): the supervisor's poll cadence and counter-driven
//! relaunch backoff are the one place the codebase may voluntarily wait
//! on wall-clock time. Deadlines themselves are measured through
//! [`Stopwatch`], the single sanctioned clock (VC006) — the supervisor
//! adds no hidden `Instant::now` sites.

use crate::report::{FleetReport, WorkerReport};
use crate::{FleetConfig, FleetError, LaunchSpec, WorkerBackend, WorkerStatus};
use std::collections::BTreeSet;
use std::io::{Read as _, Seek as _, SeekFrom};
use std::path::{Path, PathBuf};
use vc_engine::{line_chunk, splice_partial, ChunkSet, SweepCheckpoint};
use vc_trace::time::Stopwatch;

/// What a supervised fleet run produced.
#[derive(Clone, Debug)]
pub struct FleetOutcome {
    /// The merged checkpoint over every part file the fleet wrote —
    /// complete unless chunks were abandoned. Carries no partition
    /// stamp, so a complete merge is byte-identical to an unbroken
    /// single-process run, and an incomplete one resumes directly.
    pub checkpoint: SweepCheckpoint,
    /// Chunks absent from the merged checkpoint (the abandoned ones),
    /// ascending. Empty for a converged fleet.
    pub missing: Vec<usize>,
    /// The full supervision ledger.
    pub report: FleetReport,
}

/// One tracked launch: its assignment, its part file, and the
/// progress/liveness state the poll loop updates.
struct Active<H> {
    worker: usize,
    assigned: Vec<usize>,
    path: PathBuf,
    handle: H,
    /// Bytes of the part file the heartbeat has read: every poll reads
    /// only what was appended since.
    offset: u64,
    /// Assigned chunks whose lines the heartbeat has seen.
    seen: BTreeSet<usize>,
    /// Restarted on every progress observation; when it outlives the
    /// liveness deadline, the launch is suspected dead.
    sw: Stopwatch,
    /// Whether the supervisor killed this launch (deadline suspicion).
    suspected: bool,
    /// Whether the launch's own exit reported failure.
    exit_failed: bool,
}

/// Runs one supervised fleet sweep over a plan of `num_chunks` chunks,
/// writing part files into `part_dir` (initial slices as
/// `part{w}.json`, recovery launches as `part{w}_r{launch}.json`). See
/// the crate docs for the supervision model and [`FleetConfig`] for the
/// knobs.
///
/// The loop: launch one worker per initial slice; poll every
/// [`FleetConfig::poll_interval`]; on heartbeat silence past
/// [`FleetConfig::liveness_deadline`] kill the launch
/// (kill-before-read), then compute its missing chunks from its part
/// file and relaunch exactly those as a [`ChunkSet`] — after a
/// counter-driven backoff, with chunks over the launch cap abandoned
/// instead. When no launch remains, every part file is merged with
/// [`splice_partial`]. The returned [`FleetReport`] is the run's only
/// record of its suspicions, reassignments and abandonments.
///
/// # Errors
///
/// [`FleetError::EmptySweep`] for a zero-chunk plan,
/// [`FleetError::Launch`] when the backend cannot start a worker,
/// [`FleetError::Part`] when a part file is unreadable at merge time,
/// and [`FleetError::Splice`] when the parts overlap or mismatch — each
/// an assignment/infrastructure failure, never a recoverable worker
/// death (those degrade instead).
#[expect(
    clippy::disallowed_methods,
    reason = "VC015: the poll cadence and the relaunch backoff are the workspace's only sleeps"
)]
pub fn supervise<B: WorkerBackend>(
    config: &FleetConfig,
    backend: &mut B,
    num_chunks: usize,
    part_dir: &Path,
) -> Result<FleetOutcome, FleetError> {
    if num_chunks == 0 {
        return Err(FleetError::EmptySweep);
    }
    let workers = config.workers.max(1).min(num_chunks);
    let mut report = FleetReport {
        num_chunks,
        chunk_attempts: vec![0; num_chunks],
        workers: vec![WorkerReport::default(); workers],
        ..FleetReport::default()
    };
    let mut part_paths: Vec<PathBuf> = Vec::new();
    let mut active: Vec<Active<B::Handle>> = Vec::new();
    let mut abandoned: Vec<usize> = Vec::new();
    let mut next_launch = 0usize;

    let start = |chunks: ChunkSet,
                 worker: usize,
                 path: PathBuf,
                 next_launch: &mut usize,
                 report: &mut FleetReport,
                 part_paths: &mut Vec<PathBuf>,
                 backend: &mut B|
     -> Result<Active<B::Handle>, FleetError> {
        let assigned: Vec<usize> = chunks.chunks().collect();
        for &c in &assigned {
            report.chunk_attempts[c] += 1;
        }
        let spec = LaunchSpec {
            worker,
            launch: *next_launch,
            chunks,
            part_path: path.clone(),
        };
        *next_launch += 1;
        report.launches += 1;
        report.workers[worker].launches += 1;
        part_paths.push(path.clone());
        let handle = backend.launch(&spec)?;
        Ok(Active {
            worker,
            assigned,
            path,
            handle,
            offset: 0,
            seen: BTreeSet::new(),
            sw: Stopwatch::start(),
            suspected: false,
            exit_failed: false,
        })
    };

    for (w, slice) in ChunkSet::split(num_chunks, workers).into_iter().enumerate() {
        if slice.is_empty() {
            continue;
        }
        let path = part_dir.join(format!("part{w}.json"));
        active.push(start(
            slice,
            w,
            path,
            &mut next_launch,
            &mut report,
            &mut part_paths,
            backend,
        )?);
    }

    while !active.is_empty() {
        std::thread::sleep(config.poll_interval);
        // Collect indices of launches that ended this tick (exited,
        // or suspected and killed), then finalize them outside the
        // poll loop.
        let mut ended: Vec<usize> = Vec::new();
        for (i, a) in active.iter_mut().enumerate() {
            match backend.poll(&mut a.handle) {
                WorkerStatus::Exited { success } => {
                    a.exit_failed = !success;
                    ended.push(i);
                }
                WorkerStatus::Running => {
                    if a.heartbeat() {
                        a.sw = Stopwatch::start();
                    } else if a.sw.elapsed() >= config.liveness_deadline {
                        report.suspected += 1;
                        report.workers[a.worker].suspected += 1;
                        a.suspected = true;
                        // Kill-before-read: after this the part file
                        // is frozen, so the reassignment computed
                        // below cannot overlap late writes.
                        backend.kill(&mut a.handle);
                        ended.push(i);
                    }
                }
            }
        }
        // Highest index first so swap_remove leaves earlier ones
        // valid.
        while let Some(i) = ended.pop() {
            let a = active.swap_remove(i);
            let done = read_completed_set(&a.path, &a.assigned);
            report.workers[a.worker].completed_chunks += done.len();
            let missing: Vec<usize> = a
                .assigned
                .iter()
                .copied()
                .filter(|c| !done.contains(c))
                .collect();
            if missing.is_empty() {
                continue; // a healthy completion
            }
            if a.exit_failed || a.suspected {
                report.workers[a.worker].failed += u32::from(a.exit_failed);
            } else {
                // A clean exit that did not finish its claim is
                // still a death for accounting purposes.
                report.workers[a.worker].failed += 1;
            }
            let mut retry: Vec<usize> = Vec::new();
            for &c in &missing {
                if report.chunk_attempts[c] >= config.max_chunk_attempts {
                    abandoned.push(c);
                } else {
                    retry.push(c);
                }
            }
            if retry.is_empty() {
                // Every missing chunk is over the attempt cap: the
                // launch is abandoned wholesale, nothing will be
                // relaunched, and the relaunch backoff must not run —
                // sleeping here would stall the final merge for a
                // retry that never happens. The sleep below is
                // structurally reachable only when a relaunch
                // follows it.
                continue;
            }
            let Ok(chunks) = ChunkSet::from_chunks(&retry, num_chunks) else {
                continue; // unreachable: retry chunks came from the plan
            };
            // Counter-driven backoff: exponential in the highest
            // attempt number about to be retried, never in any
            // measured time.
            let attempt = retry
                .iter()
                .map(|&c| report.chunk_attempts[c] + 1)
                .max()
                .unwrap_or(2);
            let exp = attempt.saturating_sub(2).min(16);
            let backoff = config
                .backoff_base
                .saturating_mul(1 << exp)
                .min(config.backoff_cap);
            std::thread::sleep(backoff);
            report.reassigned += retry.len() as u32;
            let path = part_dir.join(format!("part{}_r{next_launch}.json", a.worker));
            active.push(start(
                chunks,
                a.worker,
                path,
                &mut next_launch,
                &mut report,
                &mut part_paths,
                backend,
            )?);
        }
    }

    // The authoritative merge: every part file that exists is read
    // loudly (a launch killed before its first commit legitimately
    // never created its file).
    let mut parts: Vec<SweepCheckpoint> = Vec::new();
    for path in &part_paths {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
            Err(e) => {
                return Err(FleetError::Part {
                    path: path.clone(),
                    message: e.to_string(),
                })
            }
        };
        parts.push(
            SweepCheckpoint::from_json(&text).map_err(|message| FleetError::Part {
                path: path.clone(),
                message,
            })?,
        );
    }
    let (checkpoint, missing) = splice_partial(&parts)?;
    abandoned.sort_unstable();
    abandoned.dedup();
    report.abandoned_chunks = abandoned;
    report.degraded = !missing.is_empty();
    Ok(FleetOutcome {
        checkpoint,
        missing,
        report,
    })
}

impl<H> Active<H> {
    /// Advisory heartbeat read: adds the assigned chunks whose complete
    /// lines were appended to the part file since the last poll, and says
    /// whether any was new. A torn last line is read again next time; a
    /// file that shrank was rewritten and is read from its start.
    /// Unreadable files add nothing — a worker whose heartbeat cannot be
    /// read looks dead, which is the safe direction (kill-before-read
    /// keeps a false positive harmless).
    fn heartbeat(&mut self) -> bool {
        let mut appended = Vec::new();
        let read = std::fs::File::open(&self.path).and_then(|mut f| {
            if f.metadata()?.len() < self.offset {
                self.offset = 0;
            }
            f.seek(SeekFrom::Start(self.offset))?;
            f.read_to_end(&mut appended)
        });
        let Some(end) = read.ok().and(appended.iter().rposition(|&b| b == b'\n')) else {
            return false;
        };
        self.offset += end as u64 + 1;
        let before = self.seen.len();
        for line in appended[..end].split(|&b| b == b'\n') {
            let chunk = std::str::from_utf8(line).ok().and_then(line_chunk);
            if let Some(c) = chunk.filter(|c| self.assigned.contains(c)) {
                self.seen.insert(c);
            }
        }
        self.seen.len() > before
    }
}

/// The assigned chunks that are complete in the part file at `path`,
/// read whole and authoritatively when a launch ends (empty on any
/// read/parse failure, like [`Active::heartbeat`]).
fn read_completed_set(path: &Path, assigned: &[usize]) -> Vec<usize> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    let Ok(ckpt) = SweepCheckpoint::from_json(&text) else {
        return Vec::new();
    };
    assigned
        .iter()
        .copied()
        .filter(|&c| ckpt.chunks.get(c).is_some_and(Option::is_some))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FleetConfig;
    use std::time::Duration;
    use vc_engine::SweepIdentity;
    use vc_ident::{InstanceId, SweepId};
    use vc_model::cost::ExecutionRecord;

    fn identity() -> SweepIdentity {
        SweepIdentity {
            instance_id: InstanceId::from_raw(7),
            sweep_id: SweepId::from_raw(1),
        }
    }

    fn rec(root: usize) -> ExecutionRecord {
        ExecutionRecord {
            root,
            volume: 3,
            distance: Some(1),
            distance_upper: 2,
            queries: 5,
            random_bits: 0,
            completed: true,
        }
    }

    /// The serial ground truth: every chunk present, no partition stamp.
    fn full_checkpoint(num_chunks: usize) -> SweepCheckpoint {
        let mut ckpt = SweepCheckpoint::fresh(identity(), num_chunks);
        for c in 0..num_chunks {
            ckpt.chunks[c] = Some(vec![rec(c)]);
        }
        ckpt
    }

    /// What one scripted launch does: complete its first `complete`
    /// assigned chunks immediately, then either exit (`Some(success)`)
    /// or stall forever (`None`, until the supervisor kills it).
    #[derive(Clone, Copy)]
    struct Script {
        complete: usize,
        exit: Option<bool>,
    }

    const HEALTHY: Script = Script {
        complete: usize::MAX,
        exit: Some(true),
    };

    struct Handle {
        exit: Option<bool>,
    }

    /// An in-process backend: launch `n` consumes script `n` (launch
    /// order is deterministic), writes the part file up front, and
    /// reports the scripted status on every poll.
    struct ScriptedBackend {
        scripts: Vec<Script>,
        launched: usize,
        kills: usize,
    }

    impl ScriptedBackend {
        fn new(scripts: Vec<Script>) -> Self {
            Self {
                scripts,
                launched: 0,
                kills: 0,
            }
        }
    }

    impl WorkerBackend for ScriptedBackend {
        type Handle = Handle;

        fn launch(&mut self, spec: &LaunchSpec) -> Result<Handle, FleetError> {
            let script = self.scripts.get(self.launched).copied().unwrap_or(HEALTHY);
            self.launched += 1;
            assert_eq!(spec.launch, self.launched - 1);
            let mut part = SweepCheckpoint::fresh(identity(), spec.chunks.total());
            part.partition = Some(spec.chunks.clone());
            for c in spec.chunks.chunks().take(script.complete) {
                part.chunks[c] = Some(vec![rec(c)]);
            }
            std::fs::write(&spec.part_path, part.to_json()).map_err(|e| FleetError::Launch {
                worker: spec.worker,
                message: e.to_string(),
            })?;
            Ok(Handle { exit: script.exit })
        }

        fn poll(&mut self, handle: &mut Handle) -> WorkerStatus {
            match handle.exit {
                Some(success) => WorkerStatus::Exited { success },
                None => WorkerStatus::Running,
            }
        }

        fn kill(&mut self, _handle: &mut Handle) {
            self.kills += 1;
        }
    }

    fn fast_config(workers: usize) -> FleetConfig {
        FleetConfig {
            workers,
            liveness_deadline: Duration::from_millis(40),
            poll_interval: Duration::from_millis(2),
            max_chunk_attempts: 3,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(4),
        }
    }

    fn part_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("vc-fleet-tests").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn healthy_fleet_merges_byte_identically_to_serial() {
        let dir = part_dir("healthy");
        let mut backend = ScriptedBackend::new(vec![HEALTHY; 4]);
        let out = supervise(&fast_config(4), &mut backend, 10, &dir).unwrap();
        assert!(out.missing.is_empty());
        assert!(!out.report.degraded);
        assert_eq!(out.report.launches, 4);
        assert_eq!(out.report.deaths(), 0);
        assert_eq!(out.report.reassigned, 0);
        assert_eq!(out.report.chunk_attempts, vec![1; 10]);
        assert_eq!(out.checkpoint.to_json(), full_checkpoint(10).to_json());
        assert_eq!(backend.kills, 0);
    }

    #[test]
    fn crashed_workers_missing_chunks_are_reassigned_and_recovered() {
        let dir = part_dir("crash");
        // Worker 1 (chunks 3..6) crashes after 1 chunk; worker 2
        // (chunks 6..8) exits "cleanly" having done nothing. Recovery
        // launches are healthy.
        let scripts = vec![
            HEALTHY,
            Script {
                complete: 1,
                exit: Some(false),
            },
            Script {
                complete: 0,
                exit: Some(true),
            },
            HEALTHY,
        ];
        let mut backend = ScriptedBackend::new(scripts);
        let out = supervise(&fast_config(4), &mut backend, 10, &dir).unwrap();
        assert!(out.missing.is_empty(), "recovered fleet: {:?}", out.missing);
        assert!(!out.report.degraded);
        assert_eq!(out.report.deaths(), 2);
        assert_eq!(out.report.reassigned, 4); // chunks 4,5 and 6,7
        assert_eq!(out.report.launches, 6);
        assert_eq!(out.checkpoint.to_json(), full_checkpoint(10).to_json());
        // Exactly the missing chunks 4..8 were run a second time.
        assert_eq!(out.report.chunk_attempts, [1, 1, 1, 1, 2, 2, 2, 2, 1, 1]);
    }

    #[test]
    fn stalled_worker_is_suspected_killed_and_its_chunks_rerun() {
        let dir = part_dir("stall");
        // Worker 0 (chunks 0..3) completes 2 chunks then stalls forever.
        let scripts = vec![
            Script {
                complete: 2,
                exit: None,
            },
            HEALTHY,
        ];
        let mut backend = ScriptedBackend::new(scripts);
        let out = supervise(&fast_config(1), &mut backend, 3, &dir).unwrap();
        assert!(out.missing.is_empty());
        assert_eq!(out.report.suspected, 1);
        assert_eq!(out.report.workers[0].suspected, 1);
        assert_eq!(backend.kills, 1, "suspected worker must be killed");
        assert_eq!(out.checkpoint.to_json(), full_checkpoint(3).to_json());
        // Its two completed chunks were kept; only chunk 2 was rerun.
        assert_eq!(out.report.chunk_attempts, [1, 1, 2]);
    }

    #[test]
    fn chunks_over_the_attempt_cap_are_abandoned_loudly() {
        let dir = part_dir("abandon");
        // One worker, one chunk, and every launch stalls with nothing
        // done: attempts 1, 2, 3 all fail, then the chunk is abandoned.
        let stall = Script {
            complete: 0,
            exit: None,
        };
        let mut backend = ScriptedBackend::new(vec![stall; 8]);
        let out = supervise(&fast_config(1), &mut backend, 1, &dir).unwrap();
        assert_eq!(out.missing, vec![0]);
        assert!(out.report.degraded);
        assert_eq!(out.report.abandoned_chunks, vec![0]);
        assert_eq!(out.report.launches, 3);
        assert_eq!(out.report.chunk_attempts, vec![3]);
        assert_eq!(out.report.suspected, 3);
        assert_eq!(out.checkpoint.completed_chunks(), 0);
    }

    #[test]
    fn abandoning_pass_takes_no_backoff_sleep() {
        let dir = part_dir("no-futile-backoff");
        // One chunk, an attempt cap of 1 and a prohibitive backoff: the
        // single launch stalls, is suspected and killed, and its chunk is
        // immediately over the cap. The old flow computed and slept the
        // relaunch backoff even on this abandoning pass; with a
        // 30-second base that would stall the merge for half a minute.
        // The run must instead finish in roughly one liveness deadline.
        let stall = Script {
            complete: 0,
            exit: None,
        };
        let mut backend = ScriptedBackend::new(vec![stall]);
        let config = FleetConfig {
            max_chunk_attempts: 1,
            backoff_base: Duration::from_secs(30),
            backoff_cap: Duration::from_secs(30),
            ..fast_config(1)
        };
        let sw = Stopwatch::start();
        let out = supervise(&config, &mut backend, 1, &dir).unwrap();
        assert!(
            sw.elapsed() < Duration::from_secs(10),
            "abandoning pass slept the futile backoff ({:?} elapsed)",
            sw.elapsed()
        );
        assert_eq!(out.report.launches, 1, "no relaunch after abandonment");
        assert_eq!(out.report.abandoned_chunks, vec![0]);
        assert_eq!(out.missing, vec![0]);
        assert!(out.report.degraded);
    }

    #[test]
    fn empty_sweeps_are_refused() {
        let dir = part_dir("empty");
        let mut backend = ScriptedBackend::new(Vec::new());
        let err = supervise(&fast_config(2), &mut backend, 0, &dir).unwrap_err();
        assert_eq!(err, FleetError::EmptySweep);
    }

    #[test]
    fn heartbeats_count_only_the_complete_lines_appended_since_the_last_poll() {
        let dir = part_dir("heartbeat");
        let path = dir.join("part.json");
        let mut part = SweepCheckpoint::fresh(identity(), 4);
        std::fs::write(&path, part.to_json()).unwrap();
        let mut active = Active {
            worker: 0,
            assigned: vec![1, 2],
            path: path.clone(),
            handle: (),
            offset: 0,
            seen: BTreeSet::new(),
            sw: Stopwatch::start(),
            suspected: false,
            exit_failed: false,
        };
        assert!(!active.heartbeat(), "a header is no progress");
        let header_len = std::fs::metadata(&path).unwrap().len();
        assert_eq!(active.offset, header_len);
        part.chunks[2] = Some(vec![rec(2)]);
        part.chunks[3] = Some(vec![rec(3)]);
        let lines = part.to_json()[usize::try_from(header_len).unwrap()..].to_string();
        let (c2, c3) = lines.split_at(lines.find('\n').unwrap() + 1);
        let append = |text: &str| {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            f.write_all(text.as_bytes()).unwrap();
        };
        // A torn line is not progress until its newline lands.
        append(&c2[..c2.len() - 1]);
        assert!(!active.heartbeat());
        append("\n");
        assert!(active.heartbeat());
        assert_eq!(active.seen, BTreeSet::from([2]));
        // Chunk 3 is not this launch's.
        append(c3);
        assert!(!active.heartbeat());
        assert_eq!(active.offset, std::fs::metadata(&path).unwrap().len());
        // A rewritten, shorter file is read again from its start.
        part.chunks[2] = None;
        part.chunks[1] = Some(vec![rec(1)]);
        let rewritten = part.to_json();
        std::fs::write(
            &path,
            &rewritten[..rewritten.find("\"chunk\": 3").unwrap() - 1],
        )
        .unwrap();
        assert!(active.heartbeat());
        assert_eq!(active.seen, BTreeSet::from([1, 2]));
    }
}
