//! # vc-bench
//!
//! Shared harness for the paper-reproduction experiments. The Table 1
//! report (`examples/table1_report.rs`) measures every cell of the
//! paper's Table 1 and the checks of Figures 1–5 and 8, Observations
//! 7.4–7.5, Example 7.6 and ablations A1–A2 on top of this library's
//! sweep/measure machinery and its [`gate`]s.
//!
//! Volume and distance are *combinatorial* quantities (Definitions 2.1–2.2)
//! measured exactly by the query-model runner — the experiments do not
//! depend on wall-clock noise.
//!
//! [`CaseRng`] feeds the seeded property loops of the repository's
//! integration tests.
//!
//! The [`report`] module holds the `vc-trace-report/v1` document:
//! [`trace_case`] runs a traced sweep into a [`CaseTrace`], and a
//! [`TraceReport`] of cases writes it through the `vc-json` writer.

pub mod gate;
pub mod report;

pub use report::{trace_case, CaseTrace, TraceReport, TRACE_REPORT_SCHEMA};

use vc_core::lcl::{count_violations, Lcl};
use vc_engine::Engine;
use vc_graph::{Color, GraphBuilder, Instance, NodeLabel};
use vc_model::run::{run_from, QueryAlgorithm, RunConfig};
use vc_model::{Budget, RandomTape, StartSelection};

/// One measured point of a sweep.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Instance size.
    pub n: usize,
    /// Worst-case volume over the started executions (`VOL_n` estimate).
    pub max_volume: usize,
    /// Worst-case exact distance (`DIST_n` estimate).
    pub max_distance: u32,
    /// Worst-case queries over the started executions.
    pub max_queries: u64,
    /// Executions truncated by a budget.
    pub truncated: usize,
    /// Local-constraint violations of the produced labeling (`None` when
    /// start nodes were sampled and the labeling is incomplete).
    pub violations: Option<usize>,
}

/// How many executions to start per instance before switching from
/// exhaustive to sampled starts.
pub const EXHAUSTIVE_LIMIT: usize = 1500;

/// Number of sampled start nodes on large instances.
pub const SAMPLE_STARTS: usize = 192;

/// A [`RunConfig`] suitable for an `n`-node sweep point: exhaustive starts
/// (and validity checking) on small instances, deterministic sampling on
/// large ones, exact distances always.
pub fn sweep_config(n: usize, tape: Option<RandomTape>) -> RunConfig {
    RunConfig {
        tape,
        budget: Budget::unlimited(),
        starts: if n <= EXHAUSTIVE_LIMIT {
            StartSelection::All
        } else {
            StartSelection::Sample {
                count: SAMPLE_STARTS,
                seed: 0xC0FFEE,
            }
        },
        exact_distance: true,
    }
}

/// Runs `algo` on `inst` under `config` and aggregates a [`Measurement`];
/// when the start set is exhaustive and a `problem` is supplied, the output
/// labeling is checked and violations counted.
pub fn measure<P, A>(
    problem: Option<&P>,
    inst: &Instance,
    algo: &A,
    config: &RunConfig,
) -> Measurement
where
    P: Lcl<Output = A::Output>,
    A: QueryAlgorithm + Sync,
    A::Output: Send,
{
    measure_with_roots(problem, inst, algo, config, &[])
}

/// [`measure`] that additionally starts executions from `extra_roots` —
/// the known-extremal initiating nodes (tree roots, component heads) that
/// deterministic sampling would otherwise miss, so sampled sweeps still
/// estimate the worst case `VOL_n` / `DIST_n` faithfully.
pub fn measure_with_roots<P, A>(
    problem: Option<&P>,
    inst: &Instance,
    algo: &A,
    config: &RunConfig,
    extra_roots: &[usize],
) -> Measurement
where
    P: Lcl<Output = A::Output>,
    A: QueryAlgorithm + Sync,
    A::Output: Send,
{
    let engine_report = Engine::from_env()
        .expect("ambient VC_* engine settings must parse")
        .run_all(inst, algo, config)
        .expect("sweep configs always select at least one start");
    finish_measurement(problem, inst, algo, config, engine_report, extra_roots)
}

/// Checks the engine sweep's outputs against `problem` when they cover
/// every node, appends the serially-run `extra_roots` (the known-extremal
/// initiating nodes deterministic sampling would miss) and folds
/// everything into a [`Measurement`].
///
/// # Panics
///
/// Panics when the sweep did not run every chunk: a panic aborted some, a
/// quota or cancel flag skipped some, or an ambient chunk set left some
/// to other partitions. A measurement of part of the start set would fit
/// a different curve without a word.
fn finish_measurement<P, A>(
    problem: Option<&P>,
    inst: &Instance,
    algo: &A,
    config: &RunConfig,
    engine_report: vc_engine::EngineReport<A::Output>,
    extra_roots: &[usize],
) -> Measurement
where
    P: Lcl<Output = A::Output>,
    A: QueryAlgorithm + Sync,
    A::Output: Send,
{
    assert!(
        engine_report.is_complete(),
        "partial sweep of {} on n = {}: chunks skipped {:?}, aborted {:?}, \
         left to other partitions {:?}",
        algo.name(),
        inst.n(),
        engine_report.skipped_chunks,
        engine_report.aborted_chunks,
        engine_report.out_of_range_chunks
    );
    let violations = match (problem, engine_report.report.complete_outputs()) {
        (Some(p), Some(outputs)) => Some(count_violations(p, inst, &outputs)),
        _ => None,
    };
    let mut records = engine_report.report.records;
    let covered: std::collections::BTreeSet<usize> = records.iter().map(|r| r.root).collect();
    for &root in extra_roots {
        if !covered.contains(&root) {
            let (_, rec) = run_from(inst, algo, root, config);
            records.push(rec);
        }
    }
    let summary = vc_model::CostSummary::from_records(&records);
    Measurement {
        n: inst.n(),
        max_volume: summary.max_volume,
        max_distance: summary.max_distance,
        max_queries: summary.max_queries,
        truncated: records.iter().filter(|r| !r.completed).count(),
        violations,
    }
}

/// `(n, max volume)` series of a sweep.
pub fn volume_series(points: &[Measurement]) -> Vec<(f64, f64)> {
    points
        .iter()
        .map(|m| (m.n as f64, m.max_volume as f64))
        .collect()
}

/// `(n, max distance)` series of a sweep.
pub fn distance_series(points: &[Measurement]) -> Vec<(f64, f64)> {
    points
        .iter()
        .map(|m| (m.n as f64, f64::from(m.max_distance)))
        .collect()
}

/// The default size grid for the sweeps (powers of two).
pub fn size_grid(min_exp: u32, max_exp: u32) -> Vec<usize> {
    (min_exp..=max_exp).map(|e| 1usize << e).collect()
}

/// A skewed Hierarchical-THC(2) instance on `2·len` nodes: a level-2
/// backbone of `len` nodes whose RC components are single level-1 nodes.
/// Every backbone node needs a light way-point within the `2·n^{1/2}`
/// threshold window to become exempt, so this is the family on which the
/// way-point density of Proposition 5.14 decides validity and volume. On
/// the balanced and heavy-component families the lottery changes neither.
pub fn skewed_hierarchical(len: usize) -> Instance {
    let mut b = GraphBuilder::new();
    let mut labels = Vec::new();
    let mut prev: Option<usize> = None;
    for i in 0..len {
        let v = b.add_node_with_id((2 * i + 1) as u64);
        labels.push(NodeLabel::empty().with_color(if i % 3 == 0 { Color::R } else { Color::B }));
        let c = b.add_node_with_id((2 * i + 2) as u64);
        labels.push(NodeLabel::empty().with_color(Color::B));
        let (pv, pc) = b.connect_auto(v, c).expect("fresh nodes have free ports");
        labels[v].right_child = Some(pv);
        labels[c].parent = Some(pc);
        if let Some(p) = prev {
            let (pp, pv2) = b.connect_auto(p, v).expect("a path node has a free port");
            labels[p].left_child = Some(pp);
            labels[v].parent = Some(pv2);
        }
        prev = Some(v);
    }
    Instance::new(b.build().expect("a caterpillar is a valid graph"), labels)
}

/// Splitmix64's increment and finalizer multipliers.
#[rustfmt::skip]
// vc-lint: allow(VC008, reason = "a test-input stream generator like the allowlisted random and fault tapes; it never mints an identity")
const SPLITMIX: [u64; 3] = [0x9E37_79B9_7F4A_7C15, 0xBF58_476D_1CE4_E5B9, 0x94D0_49BB_1331_11EB];

/// The input stream of one case of a seeded property loop: case `i` of
/// every property draws from one fixed splitmix64 stream, so a failing
/// case reproduces exactly on any machine. A property draws its inputs
/// in the order it names them.
#[derive(Debug)]
pub struct CaseRng {
    state: u64,
}

impl CaseRng {
    /// The stream of case number `case`.
    fn for_case(case: u64) -> Self {
        Self {
            state: case.wrapping_mul(SPLITMIX[0]) ^ 0xC001_D00D_5EED_5EED,
        }
    }

    /// The next 64-bit word.
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(SPLITMIX[0]);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(SPLITMIX[1]);
        z = (z ^ (z >> 27)).wrapping_mul(SPLITMIX[2]);
        z ^ (z >> 31)
    }

    /// A draw from the non-empty `range`: `start + next % span`.
    pub fn pick(&mut self, range: std::ops::Range<u64>) -> u64 {
        range.start + self.next_u64() % (range.end - range.start)
    }

    /// A coin flip: the low bit of the next word.
    pub fn coin(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }
}

/// Runs `property` on the streams of cases `0..cases`, in order.
pub fn for_cases(cases: u64, mut property: impl FnMut(&mut CaseRng)) {
    for case in 0..cases {
        property(&mut CaseRng::for_case(case));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vc_core::problems::leaf_coloring::{DistanceSolver, LeafColoring};
    use vc_graph::gen;

    #[test]
    fn measure_checks_validity_on_exhaustive_runs() {
        let inst = gen::random_full_binary_tree(120, 1);
        let m = measure(
            Some(&LeafColoring),
            &inst,
            &DistanceSolver,
            &sweep_config(inst.n(), None),
        );
        assert_eq!(m.violations, Some(0));
        assert_eq!(m.truncated, 0);
        assert!(m.max_volume >= 1);
    }

    #[test]
    fn sampled_runs_skip_validity() {
        let inst = gen::random_full_binary_tree(EXHAUSTIVE_LIMIT * 2, 1);
        let m = measure(
            Some(&LeafColoring),
            &inst,
            &DistanceSolver,
            &sweep_config(inst.n(), None),
        );
        assert_eq!(m.violations, None);
    }

    #[test]
    #[should_panic(expected = "partial sweep")]
    fn a_partial_sweep_is_refused() {
        let inst = gen::random_full_binary_tree(200, 1);
        let config = sweep_config(inst.n(), None);
        let report = Engine::with_threads(1)
            .with_chunk_quota(1)
            .run_all(&inst, &DistanceSolver, &config)
            .expect("a valid start set");
        assert!(
            report.degraded,
            "a quota-1 sweep of several chunks degrades"
        );
        let lc = Some(&LeafColoring);
        let _ = finish_measurement(lc, &inst, &DistanceSolver, &config, report, &[]);
    }

    #[test]
    fn skewed_family_is_valid_for_the_way_point_solver() {
        use vc_core::problems::hierarchical::{HierarchicalThc, RandomizedSolver};
        let inst = skewed_hierarchical(300);
        let (problem, solver) = (HierarchicalThc::new(2), RandomizedSolver::new(2));
        let config = sweep_config(inst.n(), Some(RandomTape::private(3)));
        let m = measure(Some(&problem), &inst, &solver, &config);
        assert_eq!((m.n, m.violations), (600, Some(0)));
    }

    #[test]
    fn grids_and_series_shape() {
        assert_eq!(size_grid(3, 5), vec![8, 16, 32]);
        let ms = vec![Measurement {
            n: 8,
            max_volume: 4,
            max_distance: 3,
            max_queries: 5,
            truncated: 0,
            violations: Some(0),
        }];
        assert_eq!(volume_series(&ms), vec![(8.0, 4.0)]);
        assert_eq!(distance_series(&ms), vec![(8.0, 3.0)]);
    }
}
