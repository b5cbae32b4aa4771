//! Integration: tracing is observationally free and deterministic.
//!
//! Two guarantees are asserted over the Table 1 solvers:
//!
//! * **Tracer transparency** — a traced sweep produces byte-identical
//!   outputs, execution records and cost summaries to the untraced engine
//!   and to the serial `vc-model` runner. Tracer hooks observe the query
//!   stream but cannot influence it (DESIGN.md §10).
//! * **Merged-metrics determinism** — the deterministic half of
//!   `SweepMetrics` (`metrics.query`: counters and the volume / distance /
//!   queries-per-start histograms) is what the serial runner's tracer
//!   folds, at 1, 2 and 8 worker threads, and cross-checks the engine's
//!   own cost summary. The chunk counts are the `EngineReport`'s.
//!
//! `scripts/ci.sh` re-runs this file with `VC_THREADS=2` alongside the
//! engine determinism suite.

use vc_core::problems::hierarchical::DeterministicSolver;
use vc_core::problems::leaf_coloring::{DistanceSolver, RwToLeaf};
use vc_engine::Engine;
use vc_graph::{gen, Color, Instance};
use vc_model::run::{run_all, run_all_traced, QueryAlgorithm, RunConfig, StartSelection};
use vc_model::{Budget, RandomTape};
use vc_trace::{QueryStats, RecordingTracer, SweepMetrics};

/// Runs one case through the serial runner, the untraced engine and the
/// traced engine at 1/2/8 threads, asserting transparency, metric
/// determinism and a complete chunk ledger; returns the
/// (thread-count-invariant) query stats.
fn assert_tracing_invariant<A>(
    name: &str,
    inst: &Instance,
    algo: &A,
    config: &RunConfig,
) -> QueryStats
where
    A: QueryAlgorithm + Sync,
    A::Output: Clone + PartialEq + std::fmt::Debug + Send,
{
    let serial = run_all(inst, algo, config).expect("valid start selection");
    let mut serial_metrics = SweepMetrics::new();
    let serial_traced =
        run_all_traced(inst, algo, config, &mut serial_metrics).expect("valid start selection");
    assert_eq!(
        serial_traced.outputs, serial.outputs,
        "{name}: serial tracing changed outputs"
    );
    assert_eq!(
        serial_traced.records, serial.records,
        "{name}: serial tracing changed records"
    );

    let starts = config
        .starts
        .starts(inst.n())
        .expect("valid start selection");
    let planned = vc_engine::plan_chunks(starts.len()).num_chunks;
    for threads in [1usize, 2, 8] {
        let untraced = Engine::with_threads(threads)
            .run_all(inst, algo, config)
            .expect("valid start selection");
        let (traced, metrics) = Engine::with_threads(threads)
            .run_all_traced::<A, SweepMetrics>(inst, algo, config)
            .expect("valid start selection");
        assert_eq!(
            traced.report.outputs, serial.outputs,
            "{name}: traced outputs differ at {threads} threads"
        );
        assert_eq!(
            traced.report.records, serial.records,
            "{name}: traced records differ at {threads} threads"
        );
        assert_eq!(
            traced.summary, untraced.summary,
            "{name}: traced summary differs at {threads} threads"
        );
        assert_eq!(
            traced.summary,
            serial.summary(),
            "{name}: traced summary differs from the serial runner"
        );
        assert_eq!(
            metrics.query, serial_metrics.query,
            "{name}: engine metrics differ from the serial runner's at {threads} threads"
        );
        // Every planned chunk merged, none aborted.
        assert_eq!(
            (traced.completed_chunks, traced.num_chunks),
            (planned, planned),
            "{name}: chunk ledger at {threads} threads"
        );
        assert!(traced.aborted_chunks.is_empty(), "{name}: aborted chunks");
    }
    let query = serial_metrics.query;

    // The per-execution event stream aggregates to the cost summary.
    let summary = serial.summary();
    assert_eq!(query.executions, summary.runs as u64, "{name}: executions");
    assert_eq!(
        query.truncated, summary.incomplete as u64,
        "{name}: truncated"
    );
    assert_eq!(
        query.volume.count(),
        summary.runs as u64,
        "{name}: volume histogram covers every run"
    );
    assert_eq!(
        query.volume.max(),
        summary.max_volume as u64,
        "{name}: max volume"
    );
    assert_eq!(
        query.queries_per_start.sum(),
        serial
            .records
            .iter()
            .map(|r| u128::from(r.queries))
            .sum::<u128>(),
        "{name}: total queries"
    );
    query
}

fn rand_config(seed: u64) -> RunConfig {
    RunConfig {
        tape: Some(RandomTape::private(seed)),
        ..RunConfig::default()
    }
}

#[test]
fn leaf_coloring_tracing_is_transparent_and_deterministic() {
    // The complete tree is the skewed case: chunk 0 holds about half the
    // work, so at 2 and 8 threads several shares finish it. Their tracer
    // partials must still merge to the serial runner's metrics, with
    // every chunk merged.
    let skewed = gen::complete_binary_tree(12, Color::R, Color::B);
    for inst in [gen::random_full_binary_tree(401, 5), skewed] {
        let q = assert_tracing_invariant(
            "leaf-coloring/det",
            &inst,
            &DistanceSolver,
            &RunConfig::default(),
        );
        assert!(q.queries_issued > 0);
        assert!(q.nodes_revealed > 0);
        assert!(q.frontier_advances <= q.nodes_revealed);
    }
}

#[test]
fn randomized_tracing_is_transparent_and_deterministic() {
    let inst = gen::pseudo_tree(350, 6, 3);
    assert_tracing_invariant(
        "leaf-coloring/rw",
        &inst,
        &RwToLeaf::default(),
        &rand_config(11),
    );
}

#[test]
fn hierarchical_tracing_is_transparent_and_deterministic() {
    for k in [2u32, 3] {
        let inst = gen::hierarchical_for_size(k, 300, 7);
        assert_tracing_invariant(
            "hierarchical/det",
            &inst,
            &DeterministicSolver { k },
            &RunConfig::default(),
        );
    }
}

#[test]
fn truncated_tracing_counts_budget_hits() {
    let inst = gen::random_full_binary_tree(401, 2);
    let config = RunConfig {
        budget: Budget::volume(6),
        ..RunConfig::default()
    };
    let q = assert_tracing_invariant("leaf-coloring/truncated", &inst, &DistanceSolver, &config);
    assert!(q.truncated > 0, "budget must actually truncate");
    assert!(
        q.volume.max() <= 6,
        "volume histogram must respect the budget"
    );
}

#[test]
fn sampled_tracing_is_transparent_and_deterministic() {
    let inst = gen::random_full_binary_tree(2001, 4);
    let config = RunConfig {
        starts: StartSelection::Sample {
            count: 192,
            seed: 0xC0FFEE,
        },
        ..RunConfig::default()
    };
    let q = assert_tracing_invariant("leaf-coloring/sampled", &inst, &DistanceSolver, &config);
    assert_eq!(q.executions, 192);
}

#[test]
fn recorded_event_streams_are_reproducible() {
    // Two serial traced sweeps of the same case record the exact same
    // typed event log — the replay property debugging tools rely on.
    let inst = gen::random_full_binary_tree(151, 3);
    let config = RunConfig::default();
    let mut a = RecordingTracer::new();
    let mut b = RecordingTracer::new();
    run_all_traced(&inst, &DistanceSolver, &config, &mut a).expect("valid start selection");
    run_all_traced(&inst, &DistanceSolver, &config, &mut b).expect("valid start selection");
    assert!(!a.events.is_empty());
    assert_eq!(a, b);
}
