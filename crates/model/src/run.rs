//! Executing a query algorithm from every node and aggregating the induced
//! output labeling and worst-case costs (`VOL_n`, `DIST_n` of
//! Definitions 2.1–2.2).

use crate::cost::{Budget, CostSummary, ExecutionRecord};
use crate::oracle::{ExecScratch, Execution, Oracle, QueryError, ScratchSlot, SolverScratch};
use crate::randomness::RandomTape;
use std::error::Error;
use std::fmt;
use vc_graph::Instance;
use vc_trace::{NoopTracer, TraceEvent, Tracer};

/// A query-model algorithm: a strategy mapping oracle interactions to a
/// local output (§2.2, Definition 2.4).
///
/// `run` receives the world through `&mut dyn Oracle`; the initiating node's
/// view is `oracle.root()`. When the oracle reports a budget error the
/// runner records [`QueryAlgorithm::fallback`] as the node's output — the
/// paper's "truncate and produce arbitrary output" convention
/// (Remark 3.11).
pub trait QueryAlgorithm {
    /// The local output type.
    type Output: Clone;

    /// Human-readable name used in experiment reports. Display only —
    /// sweep identity comes from [`QueryAlgorithm::fold_identity`], never
    /// from this string.
    fn name(&self) -> &'static str {
        "query-algorithm"
    }

    /// Folds everything that determines this algorithm's behavior into a
    /// content hash (DESIGN.md §12). The default folds [`Self::name`],
    /// which is only correct for algorithms with no parameters.
    /// **Parameterized algorithms and wrappers must override**: fold the
    /// name plus every parameter (wrappers additionally delegate to the
    /// inner algorithm), or two distinct configurations will collide to
    /// the same `SweepId` and checkpoint resume will silently merge
    /// records from different sweeps — the exact bug this method exists
    /// to prevent.
    fn fold_identity(&self, h: &mut vc_ident::IdHasher) {
        h.text(self.name());
    }

    /// Output recorded when an execution is truncated by its budget.
    fn fallback(&self) -> Self::Output;

    /// Runs the algorithm to completion against the oracle.
    ///
    /// `scratch` is the solver half of the runner's [`ExecScratch`] and may
    /// hold an earlier run's state: a solver that keeps per-node state
    /// there opens an epoch with [`SolverScratch::begin`] first, so outputs
    /// and costs never depend on which scratch is passed.
    ///
    /// # Errors
    ///
    /// Budget and visitation errors are propagated; the runner converts
    /// them into the fallback output.
    fn run(
        &self,
        oracle: &mut dyn Oracle,
        scratch: &mut SolverScratch,
    ) -> Result<Self::Output, QueryError>;
}

/// Shared references forward, so wrappers that take an algorithm by value
/// (e.g. `vc-faults`' `FaultedAlgorithm`) can also borrow one.
impl<A: QueryAlgorithm + ?Sized> QueryAlgorithm for &A {
    type Output = A::Output;

    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn fold_identity(&self, h: &mut vc_ident::IdHasher) {
        (**self).fold_identity(h);
    }

    fn fallback(&self) -> Self::Output {
        (**self).fallback()
    }

    fn run(
        &self,
        oracle: &mut dyn Oracle,
        scratch: &mut SolverScratch,
    ) -> Result<Self::Output, QueryError> {
        (**self).run(oracle, scratch)
    }
}

/// Which nodes to initiate executions from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StartSelection {
    /// Every node — yields a complete output labeling for the checker.
    All,
    /// A deterministic pseudo-random sample of `count` distinct nodes
    /// (used to keep large-`n` sweeps affordable while still estimating
    /// worst-case costs).
    Sample {
        /// Number of start nodes.
        count: usize,
        /// Sampling seed.
        seed: u64,
    },
}

/// Errors materializing a start set — a sweep that would silently run zero
/// executions is a configuration bug, not an empty result.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StartError {
    /// `Sample { count: 0 }`: a sweep with no start nodes measures nothing
    /// and must be rejected rather than produce an empty report.
    EmptySample,
}

impl fmt::Display for StartError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StartError::EmptySample => {
                write!(f, "Sample {{ count: 0 }} would start no executions")
            }
        }
    }
}

impl Error for StartError {}

impl StartSelection {
    /// Materializes the start set for an `n`-node instance.
    ///
    /// `Sample { count, .. }` with `count >= n` degrades to
    /// [`StartSelection::All`] — the sample cannot be larger than the node
    /// set, and an exhaustive start set additionally yields a complete
    /// labeling for validity checking.
    ///
    /// # Errors
    ///
    /// [`StartError::EmptySample`] for `Sample { count: 0, .. }`.
    pub fn starts(&self, n: usize) -> Result<Vec<usize>, StartError> {
        match *self {
            StartSelection::All => Ok((0..n).collect()),
            StartSelection::Sample { count: 0, .. } => Err(StartError::EmptySample),
            StartSelection::Sample { count, seed } => {
                if count >= n {
                    return Ok((0..n).collect());
                }
                // Floyd's algorithm over a splitmix stream.
                let mut chosen = std::collections::BTreeSet::new();
                let mut state = seed ^ 0xD6E8_FEB8_6659_FD93;
                let mut next = || {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    state
                };
                for j in (n - count)..n {
                    let t = (next() % (j as u64 + 1)) as usize;
                    if !chosen.insert(t) {
                        chosen.insert(j);
                    }
                }
                Ok(chosen.into_iter().collect())
            }
        }
    }
}

/// The result of running an algorithm from a set of start nodes.
#[derive(Clone, Debug)]
pub struct RunReport<O> {
    /// Per-node outputs (`None` where no execution was started).
    pub outputs: Vec<Option<O>>,
    /// Per-execution cost records, in start order.
    pub records: Vec<ExecutionRecord>,
}

impl<O: Clone> RunReport<O> {
    /// Aggregated cost summary.
    pub fn summary(&self) -> CostSummary {
        CostSummary::from_records(&self.records)
    }

    /// The complete output labeling, if every node produced an output.
    pub fn complete_outputs(&self) -> Option<Vec<O>> {
        self.outputs.iter().cloned().collect()
    }

    /// Number of truncated (fallback) executions.
    pub fn truncated(&self) -> usize {
        self.records.iter().filter(|r| !r.completed).count()
    }
}

/// Configuration for [`run_all`].
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// Shared randomness tape (`None` for deterministic algorithms).
    pub tape: Option<RandomTape>,
    /// Per-execution budget.
    pub budget: Budget,
    /// Start-node selection.
    pub starts: StartSelection,
    /// Whether to compute the exact distance cost of Definition 2.1 (a
    /// truncated BFS per execution; disable for very large sweeps).
    pub exact_distance: bool,
}

impl Default for RunConfig {
    fn default() -> Self {
        Self {
            tape: None,
            budget: Budget::unlimited(),
            starts: StartSelection::All,
            exact_distance: true,
        }
    }
}

impl RunConfig {
    /// Folds every behavior-determining field — tape seed and mode,
    /// budgets, start selection, exact-distance flag — into `h`
    /// (DESIGN.md §12). Part of the engine's `SweepId`: any field change
    /// that could alter a single execution record changes the identity.
    pub fn fold_content(&self, h: &mut vc_ident::IdHasher) {
        match self.tape {
            None => h.word(0),
            Some(tape) => {
                h.word(1);
                h.word(tape.seed());
                h.word(match tape.mode() {
                    crate::randomness::RandomnessMode::Private => 1,
                    crate::randomness::RandomnessMode::Public => 2,
                    crate::randomness::RandomnessMode::Secret => 3,
                });
            }
        }
        h.opt_word(self.budget.max_volume.map(|v| v as u64));
        h.opt_word(self.budget.max_distance.map(u64::from));
        h.opt_word(self.budget.max_queries);
        h.flag(self.exact_distance);
        match self.starts {
            StartSelection::All => h.word(0),
            StartSelection::Sample { count, seed } => {
                h.word(1);
                h.word(count as u64);
                h.word(seed);
            }
        }
    }
}

/// Runs `algo` once from `root` on a concrete instance, returning the
/// output (or fallback) and the execution record.
pub fn run_from<A: QueryAlgorithm>(
    inst: &Instance,
    algo: &A,
    root: usize,
    config: &RunConfig,
) -> (A::Output, ExecutionRecord) {
    let mut scratch = ExecScratch::new();
    run_from_with(inst, algo, root, config, &mut scratch)
}

/// [`run_from`] reusing epoch-stamped `scratch` from a previous execution —
/// the allocation-free inner loop of [`run_all`] and of the `vc-engine`
/// worker threads.
pub fn run_from_with<A: QueryAlgorithm>(
    inst: &Instance,
    algo: &A,
    root: usize,
    config: &RunConfig,
    scratch: &mut ExecScratch,
) -> (A::Output, ExecutionRecord) {
    run_from_traced(inst, algo, root, config, scratch, NoopTracer)
}

/// [`run_from_with`] with a [`Tracer`] observing the execution's typed
/// event stream: a `QueryIssued` per oracle step, `NodeRevealed` /
/// `FrontierAdvanced` as `V_v` grows, and one `AnswerFinalized` with the
/// final costs after the record is taken.
///
/// `tracer` is taken by value; sweep loops keep a long-lived tracer by
/// passing `&mut tracer` (every `Tracer` forwards through `&mut`). Tracer
/// events observe but never influence the execution, so outputs and records
/// are bit-identical to the untraced [`run_from_with`].
pub fn run_from_traced<A: QueryAlgorithm, T: Tracer>(
    inst: &Instance,
    algo: &A,
    root: usize,
    config: &RunConfig,
    scratch: &mut ExecScratch,
    tracer: T,
) -> (A::Output, ExecutionRecord) {
    let ExecScratch { visits, solver } = scratch;
    let visits = ScratchSlot::Borrowed(visits);
    let mut ex = Execution::build(inst, root, config.tape, config.budget, visits, tracer);
    let (out, rec) = match algo.run(&mut ex, solver) {
        Ok(out) => {
            let rec = ex.record(config.exact_distance, true);
            (out, rec)
        }
        Err(_) => {
            let rec = ex.record(config.exact_distance, false);
            (algo.fallback(), rec)
        }
    };
    ex.tracer_mut().event(TraceEvent::AnswerFinalized {
        root: rec.root,
        volume: rec.volume,
        distance_upper: rec.distance_upper,
        queries: rec.queries,
        completed: rec.completed,
    });
    (out, rec)
}

/// Runs `algo` from every selected start node. All executions share the
/// same random tape, so each node's string `r_v` looks identical from every
/// initiation — the coupling the paper's randomized algorithms rely on.
///
/// All executions reuse one epoch-stamped [`ExecScratch`], so the sweep
/// performs no per-start allocation. This serial runner is the semantic
/// reference for the sharded runner in `vc-engine` (whose single-thread
/// output it must equal bit for bit).
///
/// # Errors
///
/// [`StartError`] when the configured start selection is invalid (e.g. a
/// zero-count sample).
pub fn run_all<A: QueryAlgorithm>(
    inst: &Instance,
    algo: &A,
    config: &RunConfig,
) -> Result<RunReport<A::Output>, StartError> {
    run_all_traced(inst, algo, config, &mut NoopTracer)
}

/// [`run_all`] with a [`Tracer`] lent to every execution of the sweep.
///
/// The tracer sees the concatenated event streams of all executions in
/// start order (each ending in an `AnswerFinalized`); outputs and records
/// are bit-identical to the untraced [`run_all`]. This serial traced sweep
/// is the semantic reference for `vc-engine`'s sharded traced runner.
///
/// # Errors
///
/// [`StartError`] when the configured start selection is invalid (e.g. a
/// zero-count sample).
pub fn run_all_traced<A: QueryAlgorithm, T: Tracer>(
    inst: &Instance,
    algo: &A,
    config: &RunConfig,
    tracer: &mut T,
) -> Result<RunReport<A::Output>, StartError> {
    let starts = config.starts.starts(inst.n())?;
    let mut outputs = vec![None; inst.n()];
    let mut records = Vec::with_capacity(starts.len());
    let mut scratch = ExecScratch::new();
    for root in starts {
        let (out, rec) = run_from_traced(inst, algo, root, config, &mut scratch, &mut *tracer);
        outputs[root] = Some(out);
        records.push(rec);
    }
    Ok(RunReport { outputs, records })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::follow;
    use vc_graph::{gen, Color};

    /// Toy algorithm: walk left children until none remains; output how many
    /// steps were taken.
    struct WalkLeft;

    impl QueryAlgorithm for WalkLeft {
        type Output = u32;

        fn name(&self) -> &'static str {
            "walk-left"
        }

        fn fallback(&self) -> u32 {
            u32::MAX
        }

        fn run(&self, oracle: &mut dyn Oracle, _: &mut SolverScratch) -> Result<u32, QueryError> {
            let mut cur = oracle.root();
            let mut steps = 0;
            while let Some(next) = follow(oracle, &cur, cur.label.left_child)? {
                cur = next;
                steps += 1;
            }
            Ok(steps)
        }
    }

    #[test]
    fn run_all_collects_outputs() {
        let inst = gen::complete_binary_tree(3, Color::R, Color::B);
        let report = run_all(&inst, &WalkLeft, &RunConfig::default()).unwrap();
        let outs = report.complete_outputs().expect("all nodes ran");
        // Root walks left 3 times; leaves walk 0 times.
        assert_eq!(outs[0], 3);
        assert_eq!(outs[7], 0);
        let s = report.summary();
        assert_eq!(s.runs, 15);
        assert_eq!(s.max_distance, 3);
        assert_eq!(s.max_volume, 4);
        assert_eq!(report.truncated(), 0);
    }

    #[test]
    fn budget_triggers_fallback() {
        let inst = gen::complete_binary_tree(4, Color::R, Color::B);
        let config = RunConfig {
            budget: Budget::volume(2),
            ..RunConfig::default()
        };
        let report = run_all(&inst, &WalkLeft, &config).unwrap();
        // The root needs volume 5; it gets truncated.
        assert_eq!(report.outputs[0], Some(u32::MAX));
        assert!(report.truncated() > 0);
        assert!(!report.records[0].completed);
    }

    #[test]
    fn sampled_starts_are_distinct_and_bounded() {
        let sel = StartSelection::Sample { count: 10, seed: 3 };
        let starts = sel.starts(100).unwrap();
        assert_eq!(starts.len(), 10);
        let mut sorted = starts.clone();
        sorted.dedup();
        assert_eq!(sorted.len(), 10);
        assert!(starts.iter().all(|&v| v < 100));
        // Deterministic.
        assert_eq!(starts, sel.starts(100).unwrap());
    }

    #[test]
    fn sample_larger_than_n_is_all() {
        let sel = StartSelection::Sample { count: 50, seed: 1 };
        assert_eq!(sel.starts(5).unwrap(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn oversized_sample_yields_complete_labeling() {
        // count >= n degrades to All: the checker gets a complete labeling
        // exactly as if StartSelection::All had been configured.
        let inst = gen::complete_binary_tree(3, Color::R, Color::B);
        let config = RunConfig {
            starts: StartSelection::Sample {
                count: inst.n() + 10,
                seed: 9,
            },
            ..RunConfig::default()
        };
        let report = run_all(&inst, &WalkLeft, &config).unwrap();
        let outs = report.complete_outputs().expect("complete labeling");
        let all = run_all(&inst, &WalkLeft, &RunConfig::default()).unwrap();
        assert_eq!(Some(outs), all.complete_outputs());
        assert_eq!(report.records.len(), inst.n());
    }

    #[test]
    fn zero_count_sample_is_rejected() {
        let sel = StartSelection::Sample { count: 0, seed: 7 };
        assert_eq!(sel.starts(10), Err(StartError::EmptySample));
        let inst = gen::complete_binary_tree(2, Color::R, Color::B);
        let config = RunConfig {
            starts: sel,
            ..RunConfig::default()
        };
        let err = run_all(&inst, &WalkLeft, &config).unwrap_err();
        assert_eq!(err, StartError::EmptySample);
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn lemma_2_5_on_real_runs() {
        let inst = gen::random_full_binary_tree(101, 5);
        let delta = inst.graph.max_degree() as u32;
        let report = run_all(&inst, &WalkLeft, &RunConfig::default()).unwrap();
        for rec in &report.records {
            assert!(rec.lemma_2_5_holds(delta));
        }
    }
}
