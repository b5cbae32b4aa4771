//! Fleet execution end to end: one sweep sharded across worker
//! *processes* under the `vc-fleet` supervisor, spliced back together
//! byte-identically — including after workers are murdered mid-sweep
//! (DESIGN.md §15–16).
//!
//! ```text
//! cargo run --example fleet_sweep
//! ```
//!
//! The coordinator (the default mode) drives [`vc_fleet::supervise`]
//! against a serial reference checkpoint:
//!
//! 1. **Healthy fleet.** Four worker processes (this same binary
//!    re-executed with `--worker`) each run one contiguous
//!    `VC_CHUNKS` slice, appending to its part file; the supervisor merges
//!    their part files (`target/fleet/part0..3.json`) into a checkpoint
//!    asserted byte-identical to the serial run.
//! 2. **Chaos matrix.** For each seeded [`vc_faults::KillPlan`], the
//!    plan's victims are given a deterministic crash: a *clean exit*
//!    mid-slice (the chunk quota) or a *mid-sweep stall* (commit some
//!    chunks, then park forever until the liveness deadline kills the
//!    process). The supervisor detects every death through part-file
//!    heartbeats, reassigns exactly the missing chunks as `ChunkSet`
//!    recovery launches, and the final merge is asserted byte-identical
//!    to the serial checkpoint — for every (seed, plan) in the matrix.
//!
//! Every drill's [`vc_fleet::FleetReport`] is accumulated into the
//! machine-readable `target/fleet/FLEET_report.json`
//! (`vc-fleet-drill/v1`), which CI validates with `check-json` and
//! uploads as an artifact. Workers read their assignment from the
//! `VC_CHUNKS` variable the backend sets on the child process — the same ambient interface a real fleet launcher (or
//! a human with four shells) would use.

use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::time::Duration;

use vc_core::problems::leaf_coloring::DistanceSolver;
use vc_engine::Engine;
use vc_faults::{CrashStyle, KillPlan};
use vc_fleet::{
    supervise, FleetConfig, FleetError, FleetOutcome, LaunchSpec, WorkerBackend, WorkerStatus,
};
use vc_graph::{gen, load_instance, save_instance};
use vc_json::{obj, Json};
use vc_model::run::RunConfig;

/// Worker processes in the fleet.
const WORKERS: usize = 4;
/// Threads per worker (and for the serial reference run).
const THREADS: usize = 2;
/// The chaos matrix: (kill-plan seed, victims per drill). Same seeds,
/// same murders, every run.
const CHAOS: &[(u64, usize)] = &[(11, 1), (42, 2), (1870, 2)];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--worker") {
        run_worker(&args[1..]);
    } else {
        run_coordinator();
    }
}

/// Fleet-worker mode: load the instance, run the `VC_CHUNKS` slice of
/// the sweep against the given checkpoint file, exit. `--quota N` caps
/// the worker at `N` chunks (a deterministic clean-exit crash);
/// `--park` additionally stalls the process forever after the quota
/// instead of exiting, so the supervisor's liveness deadline has to
/// murder it.
fn run_worker(args: &[String]) {
    let usage = || -> ! {
        eprintln!("usage: fleet_sweep --worker <instance> <checkpoint> [--quota N] [--park]");
        std::process::exit(2);
    };
    let (instance_path, ckpt_path) = match (args.first(), args.get(1)) {
        (Some(i), Some(c)) => (i, c),
        _ => usage(),
    };
    let mut quota = None;
    let mut park = false;
    let mut rest = args[2..].iter();
    while let Some(flag) = rest.next() {
        match flag.as_str() {
            "--quota" => match rest.next().map(|n| n.parse::<usize>()) {
                Some(Ok(n)) => quota = Some(n),
                _ => usage(),
            },
            "--park" => park = true,
            _ => usage(),
        }
    }
    let inst = load_instance(Path::new(instance_path)).unwrap_or_else(|e| {
        eprintln!("worker: cannot load {instance_path}: {e}");
        std::process::exit(2);
    });
    // `from_env` picks up the supervisor-set `VC_CHUNKS` and `VC_THREADS`
    // — the worker binary itself has no assignment flags. A restricted
    // checkpointed run appends each chunk's line as it lands: the
    // heartbeat the supervisor reads.
    let mut engine = Engine::from_env().unwrap_or_else(|e| {
        eprintln!("worker: {e}");
        std::process::exit(2);
    });
    if let Some(q) = quota {
        engine = engine.with_chunk_quota(q);
    }
    let engine = engine.with_checkpoint(ckpt_path);
    let report = engine
        .run_all(&inst, &DistanceSolver, &RunConfig::default())
        .unwrap_or_else(|e| {
            eprintln!("worker: {e}");
            std::process::exit(1);
        });
    println!(
        "worker {}: {}/{} chunks on disk",
        engine
            .chunk_set()
            .map_or_else(|| "unrestricted".to_string(), ToString::to_string),
        report.completed_chunks,
        report.num_chunks
    );
    if park {
        // A mid-sweep stall: the part file stops growing but the process
        // never exits. Only the supervisor's kill ends this worker.
        // (`park` can wake spuriously, hence the loop.)
        loop {
            std::thread::park();
        }
    }
}

/// One deterministic fault to inject into a worker slot's *first*
/// launch: crash after `after` chunks, in the plan's chosen style.
#[derive(Clone, Copy)]
struct Fault {
    after: usize,
    style: CrashStyle,
}

/// The real-process [`WorkerBackend`]: every launch is this binary
/// re-executed in `--worker` mode with its assignment on the child
/// environment. Faults are consumed on a slot's first launch only, so
/// recovery launches are always healthy.
struct ProcessBackend {
    instance: PathBuf,
    faults: Vec<Option<Fault>>,
}

impl ProcessBackend {
    /// A healthy backend for `workers` slots.
    fn healthy(instance: PathBuf) -> Self {
        Self {
            instance,
            faults: vec![None; WORKERS],
        }
    }
}

impl WorkerBackend for ProcessBackend {
    type Handle = Child;

    fn launch(&mut self, spec: &LaunchSpec) -> Result<Child, FleetError> {
        let fault = self.faults.get_mut(spec.worker).and_then(Option::take);
        let launch_err = |message: String| FleetError::Launch {
            worker: spec.worker,
            message,
        };
        let exe = std::env::current_exe().map_err(|e| launch_err(e.to_string()))?;
        let mut cmd = Command::new(exe);
        cmd.arg("--worker")
            .arg(&self.instance)
            .arg(&spec.part_path)
            .env("VC_CHUNKS", spec.chunks.to_string())
            .env("VC_THREADS", THREADS.to_string())
            .env_remove("VC_FAULTS");
        if let Some(Fault { after, style }) = fault {
            cmd.arg("--quota").arg(after.to_string());
            if style == CrashStyle::MidChunkStall {
                cmd.arg("--park");
            }
        }
        cmd.spawn().map_err(|e| launch_err(e.to_string()))
    }

    fn poll(&mut self, child: &mut Child) -> WorkerStatus {
        match child.try_wait() {
            Ok(Some(status)) => WorkerStatus::Exited {
                success: status.success(),
            },
            Ok(None) => WorkerStatus::Running,
            Err(_) => WorkerStatus::Exited { success: false },
        }
    }

    fn kill(&mut self, child: &mut Child) {
        // Synchronous by contract: after the wait the child can no
        // longer write its part file.
        let _ = child.kill();
        let _ = child.wait();
    }
}

/// The supervisor configuration for process drills: a generous liveness
/// deadline (workers commit chunks in well under a second, so five
/// silent seconds really is a death), a fast poll, and the default
/// retry cap.
fn drill_config() -> FleetConfig {
    FleetConfig {
        workers: WORKERS,
        liveness_deadline: Duration::from_secs(5),
        poll_interval: Duration::from_millis(50),
        max_chunk_attempts: 3,
        backoff_base: Duration::from_millis(50),
        backoff_cap: Duration::from_millis(500),
    }
}

/// One accumulated drill row for the `vc-fleet-drill/v1` document.
struct DrillRow {
    label: String,
    seed: Option<u64>,
    victims: Vec<usize>,
    styles: Vec<&'static str>,
    report_json: String,
}

/// Renders the aggregate `vc-fleet-drill/v1` document.
fn drill_doc(rows: &[DrillRow]) -> String {
    vc_json::document(&obj! {
        "schema": "vc-fleet-drill/v1",
        "drills": Json::arr(rows.iter().map(|r| obj! {
            "label": &r.label, "seed": r.seed, "victims": Json::arr(r.victims.clone()),
            "styles": Json::arr(r.styles.clone()), "byte_identical": true,
            "report": Json::Raw(r.report_json.trim_end().to_string()),
        })),
    })
}

/// Runs one supervised drill and asserts the fleet invariant: the
/// supervisor converges with no abandoned chunks and the merged
/// checkpoint is byte-identical to the serial reference.
fn run_drill(
    label: &str,
    backend: &mut ProcessBackend,
    num_chunks: usize,
    part_dir: &Path,
    serial_bytes: &[u8],
) -> FleetOutcome {
    std::fs::create_dir_all(part_dir).expect("part dir is writable");
    let outcome = supervise(&drill_config(), backend, num_chunks, part_dir)
        .unwrap_or_else(|e| panic!("{label}: supervisor failed: {e}"));
    assert!(
        outcome.missing.is_empty(),
        "{label}: supervisor must converge without abandoned chunks, missing {:?}",
        outcome.missing
    );
    assert!(!outcome.report.degraded, "{label}: degraded fleet");
    let merged_path = part_dir.join("merged.json");
    vc_engine::write_atomically(&merged_path, outcome.checkpoint.to_json())
        .expect("write merged checkpoint");
    let merged_bytes = std::fs::read(&merged_path).expect("read merged checkpoint");
    assert!(
        merged_bytes == serial_bytes,
        "{label}: fleet merge must be byte-identical to the serial checkpoint"
    );
    outcome
}

fn run_coordinator() {
    let dir = PathBuf::from("target/fleet");
    std::fs::create_dir_all(&dir).expect("target/fleet is writable");

    // One instance, saved once, loaded by every worker through the
    // identity-checked binary store.
    let inst = gen::random_full_binary_tree(777, 5);
    let instance_path = dir.join("instance.vci");
    save_instance(&inst, &instance_path).expect("save instance");

    // The serial reference: one unpartitioned process, one checkpoint.
    let config = RunConfig::default();
    let serial_path = dir.join("serial.json");
    let _ = std::fs::remove_file(&serial_path);
    let serial = Engine::with_threads(THREADS)
        .with_checkpoint(&serial_path)
        .run_all(&inst, &DistanceSolver, &config)
        .expect("serial reference sweep");
    assert!(serial.is_complete());
    let serial_bytes = std::fs::read(&serial_path).expect("read serial checkpoint");
    let num_chunks = serial.num_chunks;
    println!(
        "serial reference: n={} starts, {num_chunks} chunks, {} records",
        inst.n(),
        serial.report.records.len()
    );
    let mut rows: Vec<DrillRow> = Vec::new();

    // ---- Drill 1: healthy fleet, supervised, byte-identical ----------
    for w in 0..WORKERS {
        let _ = std::fs::remove_file(dir.join(format!("part{w}.json")));
    }
    let mut backend = ProcessBackend::healthy(instance_path.clone());
    let outcome = run_drill("healthy", &mut backend, num_chunks, &dir, &serial_bytes);
    assert_eq!(outcome.report.deaths(), 0, "healthy fleet must stay alive");
    assert_eq!(outcome.report.launches, WORKERS as u32);
    println!("drill 1 OK: {WORKERS} supervised workers spliced byte-identically to the serial run");
    rows.push(DrillRow {
        label: "healthy".to_string(),
        seed: None,
        victims: Vec::new(),
        styles: Vec::new(),
        report_json: outcome.report.to_json(),
    });

    // ---- Chaos matrix: murder victims, supervise, byte-identity ------
    for &(seed, count) in CHAOS {
        let plan = KillPlan::new(seed);
        let victims = plan.victims(WORKERS, count);
        let slices = vc_engine::ChunkSet::split(num_chunks, WORKERS);
        let mut backend = ProcessBackend::healthy(instance_path.clone());
        let mut styles: Vec<&'static str> = Vec::new();
        for &v in &victims {
            let style = plan.crash_style(v);
            let after = plan.kill_after_chunks_for(v, slices[v].len());
            styles.push(match style {
                CrashStyle::CleanExit => "clean-exit",
                CrashStyle::MidChunkStall => "mid-chunk-stall",
            });
            println!(
                "chaos seed {seed}: worker {v} (slice {}) dies {} after {after} chunk(s)",
                slices[v],
                styles.last().expect("style just pushed"),
            );
            backend.faults[v] = Some(Fault { after, style });
        }
        let label = format!("chaos-{seed}");
        let chaos_dir = dir.join(&label);
        // Like drill 1's, an earlier run's part files must not be resumed.
        let _ = std::fs::remove_dir_all(&chaos_dir);
        let outcome = run_drill(&label, &mut backend, num_chunks, &chaos_dir, &serial_bytes);
        // The report must account for every injected death: each victim
        // slot shows a suspicion or a failed exit, and chunks really
        // were reassigned.
        for &v in &victims {
            let slot = &outcome.report.workers[v];
            assert!(
                slot.suspected + slot.failed >= 1,
                "{label}: victim {v} left no trace in the report"
            );
        }
        assert!(
            outcome.report.deaths() >= victims.len() as u32,
            "{label}: {} deaths reported for {} victims",
            outcome.report.deaths(),
            victims.len()
        );
        assert!(
            outcome.report.reassigned > 0,
            "{label}: every victim dies mid-slice, so chunks must be reassigned"
        );
        println!(
            "{label} OK: victims {victims:?} ({}), {} reassignment(s), byte-identical merge",
            styles.join("/"),
            outcome.report.reassigned,
        );
        rows.push(DrillRow {
            label,
            seed: Some(seed),
            victims,
            styles,
            report_json: outcome.report.to_json(),
        });
    }

    let report_path = dir.join("FLEET_report.json");
    std::fs::write(&report_path, drill_doc(&rows)).expect("write FLEET_report.json");
    println!(
        "fleet drills OK: {} supervised run(s) accounted in {}",
        rows.len(),
        report_path.display()
    );
}
