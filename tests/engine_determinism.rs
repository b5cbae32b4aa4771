//! Integration: the sharded engine is bit-deterministic — for the paper's
//! Table 1 solvers, running a sweep with 1, 2 or 8 worker threads produces
//! byte-identical outputs, execution records, cost summaries and truncation
//! counts, and the 1-thread engine equals the serial `vc-model` runner.
//!
//! `scripts/ci.sh` additionally re-runs this file with `VC_THREADS=2` so the
//! environment-override path is exercised end to end.

use vc_core::problems::hierarchical::{DeterministicSolver, RandomizedSolver};
use vc_core::problems::leaf_coloring::{DistanceSolver, RwToLeaf};
use vc_engine::Engine;
use vc_graph::{gen, Color, Instance};
use vc_model::run::{run_all, QueryAlgorithm, RunConfig, StartSelection};
use vc_model::{Budget, RandomTape};

fn rand_config(seed: u64) -> RunConfig {
    RunConfig {
        tape: Some(RandomTape::private(seed)),
        ..RunConfig::default()
    }
}

/// Asserts the engine at 1, 2 and 8 threads equals the serial runner on
/// every observable except wall-clock.
fn assert_thread_count_invariant<A>(name: &str, inst: &Instance, algo: &A, config: &RunConfig)
where
    A: QueryAlgorithm + Sync,
    A::Output: Clone + PartialEq + std::fmt::Debug + Send,
{
    let serial = run_all(inst, algo, config).expect("valid start selection");
    for threads in [1usize, 2, 8] {
        let engine = Engine::with_threads(threads)
            .run_all(inst, algo, config)
            .expect("valid start selection");
        assert_eq!(
            engine.report.outputs, serial.outputs,
            "{name}: outputs differ at {threads} threads"
        );
        assert_eq!(
            engine.report.records, serial.records,
            "{name}: records differ at {threads} threads"
        );
        assert_eq!(
            engine.summary,
            serial.summary(),
            "{name}: summary differs at {threads} threads"
        );
        assert_eq!(
            engine.report.truncated(),
            serial.truncated(),
            "{name}: truncation differs at {threads} threads"
        );
        let query_sum: u128 = serial.records.iter().map(|r| u128::from(r.queries)).sum();
        assert_eq!(
            engine.total_queries, query_sum,
            "{name}: query totals differ at {threads} threads"
        );
    }
}

#[test]
fn leaf_coloring_deterministic_solver_is_thread_count_invariant() {
    // The complete tree is the skewed case: 8,191 starts in 64-start
    // chunks, where chunk 0 (depths 0-5) holds about half the solver's
    // work, so at 2 and 8 threads idle workers help finish it and its
    // shares are merged back in start order.
    let skewed = gen::complete_binary_tree(12, Color::R, Color::B);
    let random = [1u64, 5].map(|seed| gen::random_full_binary_tree(401, seed));
    for inst in random.iter().chain([&skewed]) {
        assert_thread_count_invariant(
            "leaf-coloring/det",
            inst,
            &DistanceSolver,
            &RunConfig::default(),
        );
    }
}

#[test]
fn leaf_coloring_randomized_solver_is_thread_count_invariant() {
    // The random tape is shared between executions, so the coupling the
    // randomized solver relies on must survive sharding.
    let inst = gen::pseudo_tree(350, 6, 3);
    assert_thread_count_invariant(
        "leaf-coloring/rw",
        &inst,
        &RwToLeaf::default(),
        &rand_config(11),
    );
}

#[test]
fn hierarchical_thc_solvers_are_thread_count_invariant() {
    for k in [2u32, 3] {
        let inst = gen::hierarchical_for_size(k, 300, 7);
        assert_thread_count_invariant(
            "hierarchical/det",
            &inst,
            &DeterministicSolver { k },
            &RunConfig::default(),
        );
    }
    let inst = gen::hierarchical_for_size(2, 300, 7);
    assert_thread_count_invariant(
        "hierarchical/rand",
        &inst,
        &RandomizedSolver::new(2),
        &rand_config(77),
    );
}

#[test]
fn truncated_sweeps_are_thread_count_invariant() {
    // Budget truncation (Remark 3.11) must bite identically on every shard.
    let inst = gen::random_full_binary_tree(401, 2);
    let config = RunConfig {
        budget: Budget::volume(6),
        ..RunConfig::default()
    };
    let serial = run_all(&inst, &DistanceSolver, &config).expect("valid selection");
    assert!(serial.truncated() > 0, "budget must actually truncate");
    assert_thread_count_invariant("leaf-coloring/truncated", &inst, &DistanceSolver, &config);
}

#[test]
fn sampled_sweeps_are_thread_count_invariant() {
    let inst = gen::random_full_binary_tree(2001, 4);
    let config = RunConfig {
        starts: StartSelection::Sample {
            count: 192,
            seed: 0xC0FFEE,
        },
        ..RunConfig::default()
    };
    assert_thread_count_invariant("leaf-coloring/sampled", &inst, &DistanceSolver, &config);
}

#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "VC011: this test checks that Engine::from_env honors VC_THREADS, \
              so it reads the same variable to know the expected value"
)]
fn env_override_is_respected_in_ci() {
    // When scripts/ci.sh re-runs this binary with VC_THREADS=2, from_env
    // must pick that up; otherwise it falls back to available parallelism.
    let engine = Engine::from_env().expect("CI sets only well-formed VC_THREADS values");
    if let Ok(v) = std::env::var("VC_THREADS") {
        if let Ok(t) = v.trim().parse::<usize>() {
            if t >= 1 {
                assert_eq!(engine.threads(), t);
            }
        }
    } else {
        assert!(engine.threads() >= 1);
    }
}
