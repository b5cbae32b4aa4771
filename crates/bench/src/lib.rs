//! # vc-bench
//!
//! Shared harness for the paper-reproduction experiments. Each bench target
//! under `benches/` regenerates one table or figure of the paper (see
//! `DESIGN.md` §4 for the experiment index); this library provides the
//! common sweep/measure/fit/print machinery they build on.
//!
//! Volume and distance are *combinatorial* quantities (Definitions 2.1–2.2)
//! measured exactly by the query-model runner — the experiments do not
//! depend on wall-clock noise.
//!
//! [`CaseRng`] feeds the seeded property loops of the repository's
//! integration tests.

use vc_core::lcl::{count_violations, Lcl};
use vc_engine::Engine;
use vc_graph::Instance;
use vc_model::run::{run_from, QueryAlgorithm, RunConfig};
use vc_model::{Budget, RandomTape, StartSelection};
use vc_stats::fit::{fit_complexity, FitResult};
use vc_trace::{CaseTrace, SweepMetrics};

/// One measured point of a sweep.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Instance size.
    pub n: usize,
    /// Worst-case volume over the started executions (`VOL_n` estimate).
    pub max_volume: usize,
    /// Mean volume.
    pub mean_volume: f64,
    /// Worst-case exact distance (`DIST_n` estimate).
    pub max_distance: u32,
    /// Mean exact distance.
    pub mean_distance: f64,
    /// Executions truncated by a budget.
    pub truncated: usize,
    /// Local-constraint violations of the produced labeling (`None` when
    /// start nodes were sampled and the labeling is incomplete).
    pub violations: Option<usize>,
    /// Executions per wall-clock second of the engine sweep (excludes the
    /// serially-run `extra_roots`; indicative only — combinatorial costs
    /// above are exact and machine-independent).
    pub starts_per_sec: f64,
    /// Oracle queries per wall-clock second of the engine sweep.
    pub queries_per_sec: f64,
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
        .expect("ambient VC_THREADS/VC_DEADLINE_MS must be valid")
        .run_all(inst, algo, config)
        .expect("sweep configs always select at least one start");
    let violations = match (problem, engine_report.report.complete_outputs()) {
        (Some(p), Some(outputs)) => Some(count_violations(p, inst, &outputs)),
        _ => None,
    };
    let mut m = finish_measurement(inst, algo, config, engine_report, extra_roots);
    m.violations = violations;
    m
}

/// [`measure`] without validity checking — for cost-only sweeps where the
/// solver's output type differs from the reference problem's — with
/// always-included extremal start nodes.
pub fn measure_costs_with_roots<A>(
    inst: &Instance,
    algo: &A,
    config: &RunConfig,
    extra_roots: &[usize],
) -> Measurement
where
    A: QueryAlgorithm + Sync,
    A::Output: Send,
{
    let engine_report = Engine::from_env()
        .expect("ambient VC_THREADS/VC_DEADLINE_MS must be valid")
        .run_all(inst, algo, config)
        .expect("sweep configs always select at least one start");
    finish_measurement(inst, algo, config, engine_report, extra_roots)
}

/// Appends the serially-run `extra_roots` (the known-extremal initiating
/// nodes deterministic sampling would miss) to an engine sweep and folds
/// everything into a [`Measurement`].
fn finish_measurement<A>(
    inst: &Instance,
    algo: &A,
    config: &RunConfig,
    engine_report: vc_engine::EngineReport<A::Output>,
    extra_roots: &[usize],
) -> Measurement
where
    A: QueryAlgorithm + Sync,
    A::Output: Send,
{
    let starts_per_sec = engine_report.starts_per_sec();
    let queries_per_sec = engine_report.queries_per_sec();
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
        mean_volume: summary.mean_volume,
        max_distance: summary.max_distance,
        mean_distance: summary.mean_distance,
        truncated: records.iter().filter(|r| !r.completed).count(),
        violations: None,
        starts_per_sec,
        queries_per_sec,
    }
}

/// Runs a traced engine sweep and packages it as a named [`CaseTrace`]
/// for a `vc-trace-report/v1` document (see `examples/trace_report.rs`).
///
/// The deterministic half of the metrics (`metrics.query`) is identical
/// for every engine thread count; throughput and `metrics.sched` are
/// wall-clock observations that vary between runs.
pub fn trace_case<A>(
    engine: &Engine,
    case: &str,
    inst: &Instance,
    algo: &A,
    config: &RunConfig,
) -> CaseTrace
where
    A: QueryAlgorithm + Sync,
    A::Output: Send,
{
    let starts = config
        .starts
        .starts(inst.n())
        .expect("sweep configs always select at least one start");
    let identity = vc_engine::sweep_identity(inst, algo, config, &starts);
    let (report, metrics) = engine
        .run_all_traced::<A, SweepMetrics>(inst, algo, config)
        .expect("sweep configs always select at least one start");
    CaseTrace {
        case: case.to_string(),
        n: inst.n(),
        instance_id: identity.instance_id.to_string(),
        sweep_id: identity.sweep_id.to_string(),
        threads: report.threads,
        elapsed_nanos: u64::try_from(report.elapsed.as_nanos()).unwrap_or(u64::MAX),
        starts_per_sec: report.starts_per_sec(),
        queries_per_sec: report.queries_per_sec(),
        metrics,
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

/// Fits a series against the candidate complexity classes.
pub fn fit(series: &[(f64, f64)]) -> FitResult {
    fit_complexity(series)
}

/// The default size grid for the sweeps (powers of two).
pub fn size_grid(min_exp: u32, max_exp: u32) -> Vec<usize> {
    (min_exp..=max_exp).map(|e| 1usize << e).collect()
}

/// A denser grid with two points per octave (`2^e` and `3·2^{e-1}`).
pub fn size_grid_dense(min_exp: u32, max_exp: u32) -> Vec<usize> {
    let mut out = Vec::new();
    for e in min_exp..=max_exp {
        out.push(1usize << e);
        if e < max_exp {
            out.push(3 * (1usize << (e - 1)));
        }
    }
    out.sort_unstable();
    out
}

/// Log–log slope of a series — a robust growth-exponent estimate used by
/// the hierarchy-theorem checks (defined even when the best-fitting class
/// is not polynomial).
pub fn loglog_exponent(series: &[(f64, f64)]) -> f64 {
    let pts: Vec<(f64, f64)> = series
        .iter()
        .filter(|&&(n, y)| n > 1.0 && y > 0.0)
        .map(|&(n, y)| (n.ln(), y.ln()))
        .collect();
    let m = pts.len() as f64;
    let sx: f64 = pts.iter().map(|p| p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.1).sum();
    let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
    let denom = m * sxx - sx * sx;
    if denom.abs() < f64::EPSILON {
        return 0.0;
    }
    (m * sxy - sx * sy) / denom
}

/// Prints a Markdown-style table row.
pub fn print_row(cells: &[String]) {
    println!("| {} |", cells.join(" | "));
}

/// Prints a Markdown-style table header.
pub fn print_header(cells: &[&str]) {
    print_row(&cells.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    print_row(&cells.iter().map(|_| "---".to_string()).collect::<Vec<_>>());
}

/// Prints a section heading for an experiment.
pub fn print_heading(title: &str) {
    println!("\n## {title}\n");
}

/// Formats a sweep as `n→cost` pairs for figure-style output.
pub fn format_series(series: &[(f64, f64)]) -> String {
    series
        .iter()
        .map(|(n, c)| format!("({n:.0}, {c:.1})"))
        .collect::<Vec<_>>()
        .join(" ")
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
    fn dense_grid_and_exponent() {
        assert_eq!(size_grid_dense(3, 5), vec![8, 12, 16, 24, 32]);
        let series: Vec<(f64, f64)> = (3..10)
            .map(|e| {
                let n = f64::from(1 << e);
                (n, n.sqrt())
            })
            .collect();
        assert!((loglog_exponent(&series) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn grids_and_series_shape() {
        assert_eq!(size_grid(3, 5), vec![8, 16, 32]);
        let ms = vec![Measurement {
            n: 8,
            max_volume: 4,
            mean_volume: 2.0,
            max_distance: 3,
            mean_distance: 1.5,
            truncated: 0,
            violations: Some(0),
            starts_per_sec: 0.0,
            queries_per_sec: 0.0,
        }];
        assert_eq!(volume_series(&ms), vec![(8.0, 4.0)]);
        assert_eq!(distance_series(&ms), vec![(8.0, 3.0)]);
        assert_eq!(format_series(&volume_series(&ms)), "(8, 4.0)");
    }
}
