//! Emits `BENCH_engine.json`: a machine-readable throughput baseline for the
//! sharded sweep engine on the Figure 2 (volume landscape) solver/instance
//! pairs, at 1, 2 and 8 worker threads.
//!
//! The combinatorial costs in the file (max volume/distance, truncation) are
//! exact and must be identical across thread counts — this binary asserts
//! that equality row by row before writing, and `scripts/ci.sh` diffs a
//! freshly generated file against the committed baseline with `cargo run -p
//! xtask -- compare-bench` (count fields exact, throughput fields within a
//! tolerance). The `*_per_sec` rates are wall-clock and machine-dependent,
//! recorded for trend-watching only.
//!
//! Run with `cargo run --release --example engine_baseline [output-path]`.

use vc_core::problems::hierarchical::DeterministicSolver;
use vc_core::problems::leaf_coloring::{DistanceSolver, RwToLeaf};
use vc_engine::{Engine, EngineReport};
use vc_faults::{FaultPlan, FaultedAlgorithm};
use vc_graph::{gen, Instance};
use vc_json::{obj, Json};
use vc_model::run::{QueryAlgorithm, RunConfig};
use vc_model::RandomTape;

/// One emitted baseline row.
struct Row {
    case: &'static str,
    n: usize,
    instance_id: String,
    threads: usize,
    max_volume: usize,
    max_distance: u32,
    runs: usize,
    incomplete: usize,
    total_queries: u128,
    starts_per_sec: f64,
    queries_per_sec: f64,
}

fn row<O>(case: &'static str, inst: &Instance, report: &EngineReport<O>) -> Row {
    Row {
        case,
        n: inst.n(),
        instance_id: inst.instance_id().to_string(),
        threads: report.threads,
        max_volume: report.summary.max_volume,
        max_distance: report.summary.max_distance,
        runs: report.summary.runs,
        incomplete: report.summary.incomplete,
        total_queries: report.total_queries,
        starts_per_sec: report.starts_per_sec(),
        queries_per_sec: report.queries_per_sec(),
    }
}

/// Worker counts every case is swept at. The serial row anchors the count
/// fields; the multi-thread rows must reproduce them exactly.
const THREAD_GRID: [usize; 3] = [1, 2, 8];

fn sweep<A>(rows: &mut Vec<Row>, case: &'static str, inst: &Instance, algo: &A, config: &RunConfig)
where
    A: QueryAlgorithm + Sync,
    A::Output: Send,
{
    let first = rows.len();
    for threads in THREAD_GRID {
        let report = Engine::with_threads(threads)
            .run_all(inst, algo, config)
            .expect("baseline sweeps start from every node");
        rows.push(row(case, inst, &report));
    }
    // The count fields are combinatorial, so the multi-thread rows must
    // match the serial row bit for bit; a mismatch is an engine
    // determinism bug and must never reach the committed baseline.
    let serial = &rows[first];
    for r in &rows[first + 1..] {
        assert_eq!(
            r.max_volume, serial.max_volume,
            "{case}: max_volume drifted"
        );
        assert_eq!(
            r.max_distance, serial.max_distance,
            "{case}: max_distance drifted"
        );
        assert_eq!(r.runs, serial.runs, "{case}: runs drifted");
        assert_eq!(
            r.incomplete, serial.incomplete,
            "{case}: incomplete drifted"
        );
        assert_eq!(
            r.total_queries, serial.total_queries,
            "{case}: total_queries drifted"
        );
    }
}

/// The `vc-engine-baseline/v1` document: one row a line.
fn to_json(rows: &[Row]) -> String {
    vc_json::document(&obj! {
        "schema": "vc-engine-baseline/v1",
        "rows": Json::arr(rows.iter().map(|r| obj! {
            "case": r.case, "n": r.n, "instance_id": &r.instance_id, "threads": r.threads,
            "max_volume": r.max_volume, "max_distance": r.max_distance, "runs": r.runs,
            "incomplete": r.incomplete, "total_queries": r.total_queries,
            "starts_per_sec": Json::Raw(format!("{:.1}", r.starts_per_sec)),
            "queries_per_sec": Json::Raw(format!("{:.1}", r.queries_per_sec)),
        })),
    })
}

fn main() {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_engine.json".to_string());
    let mut rows = Vec::new();

    // Figure 2's volume landscape, smallest three rungs: Θ(1) leaf coloring
    // (deterministic and randomized) and Θ(n^{1/k}) Hierarchical-THC.
    let lc = gen::random_full_binary_tree(1201, 5);
    sweep(
        &mut rows,
        "leaf-coloring/det",
        &lc,
        &DistanceSolver,
        &RunConfig::default(),
    );
    let rand_config = RunConfig {
        tape: Some(RandomTape::private(11)),
        ..RunConfig::default()
    };
    sweep(
        &mut rows,
        "leaf-coloring/rw",
        &lc,
        &RwToLeaf::default(),
        &rand_config,
    );
    for k in [2u32, 3] {
        let inst = gen::hierarchical_for_size(k, 1200, 7);
        let case: &'static str = match k {
            2 => "hierarchical-thc/k2",
            _ => "hierarchical-thc/k3",
        };
        sweep(
            &mut rows,
            case,
            &inst,
            &DeterministicSolver { k },
            &RunConfig::default(),
        );
    }

    // Large-n rungs (n ≥ 10⁵): the depth-17 complete binary tree of the
    // Θ-classifier ladder, swept from every node. Exact distance
    // measurement is disabled — at this size the per-execution truncated
    // BFS ball is the whole tree — so `max_distance` reads 0 here; the
    // count fields still pin the adaptive chunk planner (2048-start
    // chunks, 128 chunks) to thread-invariant totals via the same serial
    // anchor asserts as the small rows.
    let big = gen::complete_binary_tree(17, vc_graph::Color::R, vc_graph::Color::B);
    let big_det = RunConfig {
        exact_distance: false,
        ..RunConfig::default()
    };
    sweep(
        &mut rows,
        "leaf-coloring/det-large",
        &big,
        &DistanceSolver,
        &big_det,
    );
    let big_rand = RunConfig {
        tape: Some(RandomTape::private(11)),
        exact_distance: false,
        ..RunConfig::default()
    };
    sweep(
        &mut rows,
        "leaf-coloring/rw-large",
        &big,
        &RwToLeaf::default(),
        &big_rand,
    );

    // The zero-fault-plan row: the same deterministic leaf-coloring sweep
    // wrapped in an all-pass `vc-faults` plan. Every count field must match
    // the bare `leaf-coloring/det` rows exactly — the fault layer's
    // overhead contract is *zero* model-level behavior, and CI's
    // compare-bench keeps it pinned through the committed baseline.
    let first = rows.len();
    sweep(
        &mut rows,
        "leaf-coloring/det+faultplan-none",
        &lc,
        &FaultedAlgorithm::new(DistanceSolver, FaultPlan::none(0)),
        &RunConfig::default(),
    );
    for (bare, wrapped) in rows[..THREAD_GRID.len()].iter().zip(&rows[first..]) {
        assert_eq!(wrapped.max_volume, bare.max_volume, "fault wrap overhead");
        assert_eq!(
            wrapped.max_distance, bare.max_distance,
            "fault wrap overhead"
        );
        assert_eq!(wrapped.runs, bare.runs, "fault wrap overhead");
        assert_eq!(wrapped.incomplete, bare.incomplete, "fault wrap overhead");
        assert_eq!(
            wrapped.total_queries, bare.total_queries,
            "fault wrap overhead"
        );
    }

    let json = to_json(&rows);
    std::fs::write(&path, &json).expect("baseline file is writable");
    println!("wrote {} rows to {path}", rows.len());
    println!("{json}");
}
