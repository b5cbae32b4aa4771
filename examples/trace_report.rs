//! Emits a `vc-trace-report/v1` document: the structured observability
//! report of the baseline sweep cases (counters and log2 histograms of
//! volume / distance / queries-per-start, plus chunk scheduling stats),
//! gathered by threading a `SweepMetrics` tracer through the sharded
//! engine.
//!
//! The deterministic half of every case (`executions`, `queries_issued`,
//! the histograms, …) is bit-identical for any engine thread count; the
//! throughput and `sched` fields are wall-clock observations. CI validates
//! the emitted file with `cargo run -p xtask -- check-json`.
//!
//! Run with `cargo run --release --example trace_report [output-path]`.

use vc_bench::{trace_case, TraceReport};
use vc_core::problems::hierarchical::DeterministicSolver;
use vc_core::problems::leaf_coloring::{DistanceSolver, RwToLeaf};
use vc_engine::Engine;
use vc_graph::gen;
use vc_model::run::RunConfig;
use vc_model::{Budget, RandomTape};
use vc_trace::RecordingTracer;

fn main() {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "TRACE_report.json".to_string());
    let engine = Engine::from_env().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let mut cases = Vec::new();

    // The same solver/instance pairs as the engine baseline, so the two
    // reports describe the same workload from the throughput and the
    // observability angle respectively.
    let lc = gen::random_full_binary_tree(1201, 5);
    cases.push(trace_case(
        &engine,
        "leaf-coloring/det",
        &lc,
        &DistanceSolver,
        &RunConfig::default(),
    ));
    let rand_config = RunConfig {
        tape: Some(RandomTape::private(11)),
        ..RunConfig::default()
    };
    cases.push(trace_case(
        &engine,
        "leaf-coloring/rw",
        &lc,
        &RwToLeaf::default(),
        &rand_config,
    ));
    for k in [2u32, 3] {
        let inst = gen::hierarchical_for_size(k, 1200, 7);
        let case = match k {
            2 => "hierarchical-thc/k2",
            _ => "hierarchical-thc/k3",
        };
        cases.push(trace_case(
            &engine,
            case,
            &inst,
            &DeterministicSolver { k },
            &RunConfig::default(),
        ));
    }

    let report = TraceReport::new(cases);
    let json = report.to_json();
    std::fs::write(&path, &json).expect("trace report file is writable");
    println!("wrote {} cases to {path}", report.cases.len());
    for c in &report.cases {
        println!(
            "  {}: {} executions, {} queries, volume p99 <= {}, {} chunks",
            c.case,
            c.metrics.query.executions,
            c.metrics.query.queries_issued,
            c.metrics.query.volume.quantile_upper(0.99),
            c.metrics.query.chunks_claimed,
        );
    }

    // Bonus: a full typed event log of one execution, demonstrating the
    // per-problem query-trace view that `RecordingTracer` provides.
    let mut recorder = RecordingTracer::with_capacity_limit(16);
    let mut scratch = vc_model::ExecScratch::new();
    let config = RunConfig {
        budget: Budget::unlimited(),
        ..RunConfig::default()
    };
    vc_model::run_from_traced(
        &lc,
        &DistanceSolver,
        0,
        &config,
        &mut scratch,
        &mut recorder,
    );
    println!("\nsample event log (root 0, leaf-coloring/det):");
    for e in &recorder.events {
        println!("  {e}");
    }
    if recorder.dropped > 0 {
        println!(
            "  … {} further events dropped by the recorder cap",
            recorder.dropped
        );
    }
}
