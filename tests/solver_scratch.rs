//! Integration: solver state lives in a reusable `SolverScratch`, and reuse
//! is invisible. Every solver of the five problems gives the same outputs
//! and execution records when one scratch serves a whole sweep as when each
//! start gets a fresh one — the solver-side counterpart of vc-model's
//! `scratch_reuse_is_equivalent_to_fresh_executions`. Adversary worlds hand
//! out handles beyond their reported `n`, and an engine chunk whose solver
//! panics mid-search recovers to the clean report.

use std::fmt::Debug;
use std::sync::atomic::{AtomicBool, Ordering};
use vc_adversary::leaf_coloring::LeafColoringAdversary;
use vc_core::problems::{balanced_tree, hh, hierarchical, hybrid, leaf_coloring};
use vc_engine::Engine;
use vc_graph::{gen, Color, Instance, Port};
use vc_model::oracle::{NodeView, OracleStats};
use vc_model::run::{run_all, run_from, QueryAlgorithm, RunConfig};
use vc_model::{Budget, Execution, Oracle, QueryError, RandomTape, SolverScratch};
use vc_trace::SweepMetrics;

/// A private tape, unlimited and under a query budget small enough to cut
/// searches short: a truncated start leaves its scratch half written.
fn configs(seed: u64) -> [RunConfig; 2] {
    let full = RunConfig {
        tape: Some(RandomTape::private(seed)),
        ..RunConfig::default()
    };
    let cut = RunConfig {
        budget: Budget::queries(40),
        ..full
    };
    [full, cut]
}

/// `run_all` (one scratch for every start) equals `run_from` (a fresh
/// scratch per start), output by output and record by record.
fn assert_reuse_is_fresh<A>(what: &str, inst: &Instance, algo: &A, seed: u64)
where
    A: QueryAlgorithm,
    A::Output: PartialEq + Debug,
{
    for config in configs(seed) {
        let reused = run_all(inst, algo, &config).expect("full sweeps always start");
        for root in 0..inst.n() {
            let (out, rec) = run_from(inst, algo, root, &config);
            assert_eq!(
                reused.outputs[root].as_ref(),
                Some(&out),
                "{what}: root {root}"
            );
            assert_eq!(reused.records[root], rec, "{what}: root {root}");
        }
    }
}

#[test]
fn leaf_coloring_solvers_reuse_scratch_transparently() {
    for seed in 0..3 {
        for inst in [
            gen::pseudo_tree(120, 7, seed),
            gen::random_full_binary_tree(101, seed),
        ] {
            assert_reuse_is_fresh("lc/distance", &inst, &leaf_coloring::DistanceSolver, seed);
            let rw = leaf_coloring::RwToLeaf::default();
            assert_reuse_is_fresh("lc/rw", &inst, &rw, seed);
        }
    }
}

#[test]
fn balanced_tree_solver_reuses_scratch_transparently() {
    for depth in 2..=4 {
        for (inst, _) in [
            gen::balanced_tree_compatible(depth),
            gen::unbalanced_tree(depth),
        ] {
            assert_reuse_is_fresh("bt/distance", &inst, &balanced_tree::DistanceSolver, 1);
        }
    }
}

#[test]
fn hierarchical_solvers_reuse_scratch_transparently() {
    for k in 2..=3u32 {
        let params = gen::HierarchicalParams {
            k,
            backbone_len: 5,
            seed: u64::from(k),
        };
        for inst in [
            gen::hierarchical(params),
            gen::hierarchical_with_cycle(params),
        ] {
            let det = hierarchical::DeterministicSolver { k };
            assert_reuse_is_fresh("hthc/det", &inst, &det, 2);
            let rand = hierarchical::RandomizedSolver::new(k);
            assert_reuse_is_fresh("hthc/rand", &inst, &rand, 2);
        }
    }
}

#[test]
fn hybrid_solvers_reuse_scratch_transparently() {
    for k in 2..=3u32 {
        let inst = gen::hybrid_for_size(k, 200, 4);
        assert_reuse_is_fresh("hybrid/distance", &inst, &hybrid::DistanceSolver, 3);
        let det = hybrid::DeterministicVolumeSolver { k };
        assert_reuse_is_fresh("hybrid/det", &inst, &det, 3);
        let rand = hybrid::RandomizedSolver::new(k);
        assert_reuse_is_fresh("hybrid/rand", &inst, &rand, 3);
    }
}

#[test]
fn hh_solvers_reuse_scratch_transparently() {
    let (k, l) = (2, 3);
    let inst = gen::hh(k, l, 250, 2);
    assert_reuse_is_fresh("hh/distance", &inst, &hh::DistanceSolver { k, l }, 4);
    assert_reuse_is_fresh("hh/rand", &inst, &hh::RandomizedSolver { k, l }, 4);
    let det = hh::DeterministicVolumeSolver { k, l };
    assert_reuse_is_fresh("hh/det", &inst, &det, 4);
}

#[test]
fn adversary_handles_beyond_n_reuse_scratch_transparently() {
    let duel = |scratch: &mut SolverScratch| {
        let mut world = LeafColoringAdversary::new(64, 200);
        let out = leaf_coloring::DistanceSolver.run(&mut world, scratch);
        (out, world.stats())
    };
    let fresh = duel(&mut SolverScratch::new());
    assert!(fresh.1.volume > 64, "the duel must reveal handles past n");
    // Size the scratch on a 15-node world first, then let the duels grow
    // it and leave their own state behind.
    let mut scratch = SolverScratch::new();
    let inst = gen::complete_binary_tree(3, Color::R, Color::B);
    for root in 0..inst.n() {
        let mut ex = Execution::new(&inst, root, None, Budget::unlimited());
        leaf_coloring::DistanceSolver
            .run(&mut ex, &mut scratch)
            .unwrap();
    }
    for _ in 0..2 {
        assert_eq!(duel(&mut scratch), fresh);
    }
}

/// An oracle that panics at the tenth query of an armed execution.
struct Tripwire<'a> {
    inner: &'a mut dyn Oracle,
    armed: bool,
}

impl Oracle for Tripwire<'_> {
    fn n(&self) -> usize {
        self.inner.n()
    }

    fn root(&self) -> NodeView {
        self.inner.root()
    }

    fn query(&mut self, from: usize, port: Port) -> Result<NodeView, QueryError> {
        assert!(
            !(self.armed && self.inner.stats().queries == 10),
            "injected panic mid-search"
        );
        self.inner.query(from, port)
    }

    fn rand_bit(&mut self, node: usize) -> Result<bool, QueryError> {
        self.inner.rand_bit(node)
    }

    fn stats(&self) -> OracleStats {
        self.inner.stats()
    }
}

/// The leaf-coloring distance solver; the first execution from the root of
/// the tree panics ten queries into its breadth-first search.
struct PanicsMidSearch {
    tripped: AtomicBool,
}

impl QueryAlgorithm for PanicsMidSearch {
    type Output = Color;

    fn fallback(&self) -> Color {
        Color::R
    }

    fn run(
        &self,
        oracle: &mut dyn Oracle,
        scratch: &mut SolverScratch,
    ) -> Result<Color, QueryError> {
        let armed = oracle.root().node == 0 && !self.tripped.swap(true, Ordering::Relaxed);
        let mut wire = Tripwire {
            inner: oracle,
            armed,
        };
        leaf_coloring::DistanceSolver.run(&mut wire, scratch)
    }
}

#[test]
fn a_panic_mid_search_is_retried_to_the_clean_report() {
    let inst = gen::complete_binary_tree(8, Color::R, Color::B); // 8 chunks
    let config = RunConfig::default();
    let clean = run_all(&inst, &leaf_coloring::DistanceSolver, &config).unwrap();
    let algo = PanicsMidSearch {
        tripped: AtomicBool::new(false),
    };
    let (report, m) = Engine::with_threads(2)
        .run_all_traced::<_, SweepMetrics>(&inst, &algo, &config)
        .unwrap();
    assert!(algo.tripped.load(Ordering::Relaxed));
    assert_eq!(report.report.outputs, clean.outputs);
    assert_eq!(report.report.records, clean.records);
    assert_eq!(m.query.chunks_retried, 1);
    assert_eq!(m.query.chunks_aborted, 0);
}
