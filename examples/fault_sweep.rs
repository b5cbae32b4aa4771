//! Demonstrates the robustness surface end to end: a Table-1 sweep run
//! under a deterministic fault plan, with graceful degradation, ambient
//! configuration and checkpoint/resume.
//!
//! ```text
//! cargo run --example fault_sweep -- [spec]
//! VC_FAULTS="seed=7,refuse=64,crash=256" cargo run --example fault_sweep
//! VC_THREADS=2 cargo run --example fault_sweep
//! ```
//!
//! The fault spec comes from the first CLI argument, else the `VC_FAULTS`
//! environment variable, else a demo default. The engine picks up
//! `VC_THREADS` as usual. The summary line counts `incomplete` executions
//! (a fault or budget ended them) and `flagged` ones (they completed but
//! saw faults); under the demo default plan their sum must be positive,
//! so a faulted sweep is checked to degrade loudly. The same faulted sweep is
//! then run twice through a checkpoint file — first killed after two
//! chunks (a chunk quota stands in for the kill), then resumed — and the
//! resumed summary is asserted identical to the unbroken one: faults,
//! kills and resumes all compose deterministically.

use vc_core::problems::hierarchical::DeterministicSolver;
use vc_engine::Engine;
use vc_faults::{FaultPlan, FaultedAlgorithm};
use vc_graph::gen;
use vc_model::run::RunConfig;

fn main() {
    let demo = FaultPlan::none(7)
        .with_refusals(64)
        .with_crashes(256)
        .with_query_squeeze(5_000);
    let plan = match std::env::args().nth(1) {
        Some(spec) => FaultPlan::from_spec(&spec),
        None => FaultPlan::from_env().map(|p| p.unwrap_or(demo)),
    }
    .unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    println!("fault plan: {plan:?}");

    let inst = gen::hierarchical_for_size(2, 1200, 7);
    let algo = FaultedAlgorithm::new(DeterministicSolver { k: 2 }, plan);
    let config = RunConfig::default();
    let engine = Engine::from_env().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });

    // One faulted sweep, ambient threads.
    let report = engine
        .run_all(&inst, &algo, &config)
        .expect("all-starts sweeps have valid starts");
    // An execution a fault ended returns the fallback output, whose
    // `injected` is 0, so it is counted in `incomplete`, not here.
    let flagged = report
        .report
        .outputs
        .iter()
        .flatten()
        .filter(|f| f.injected > 0)
        .count();
    println!(
        "n={} threads={} runs={} incomplete={} flagged={} degraded={}",
        inst.n(),
        report.threads,
        report.summary.runs,
        report.summary.incomplete,
        flagged,
        report.degraded,
    );
    if plan == demo {
        assert!(
            report.summary.incomplete + flagged > 0,
            "the demo plan's faults must show in the summary"
        );
    }
    if !report.aborted_chunks.is_empty() || !report.skipped_chunks.is_empty() {
        println!(
            "aborted_chunks={:?} skipped_chunks={:?} (partial but valid)",
            report.aborted_chunks, report.skipped_chunks
        );
    }

    // Checkpoint/resume: kill after two chunks, resume, compare.
    let dir = std::env::temp_dir().join("vc-fault-sweep-example");
    std::fs::create_dir_all(&dir).expect("temp dir is writable");
    let unbroken_path = dir.join("unbroken.json");
    let resumed_path = dir.join("resumed.json");
    let _ = std::fs::remove_file(&unbroken_path);
    let _ = std::fs::remove_file(&resumed_path);
    let checkpointed = |engine: Engine, path| {
        let report = engine.with_checkpoint(path).run_all(&inst, &algo, &config);
        report.expect("checkpointed sweep runs")
    };
    let unbroken = checkpointed(engine.clone(), &unbroken_path);
    let killed = checkpointed(engine.clone().with_chunk_quota(2), &resumed_path);
    println!(
        "killed after {}/{} chunks; resuming…",
        killed.completed_chunks, killed.num_chunks
    );
    let resumed = checkpointed(engine, &resumed_path);
    assert!(resumed.is_complete() && unbroken.is_complete());
    assert_eq!(resumed.summary, unbroken.summary, "resume must be lossless");
    assert_eq!(resumed.report.records, unbroken.report.records);
    println!(
        "resume OK: {} records, max_volume={}, byte-identical to the unbroken run",
        resumed.report.records.len(),
        resumed.summary.max_volume
    );
}
