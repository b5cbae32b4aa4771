//! The Table 1 upper-bound algorithms run under [`AuditedOracle`] with zero
//! violations: the substrate's own `Execution` honors the §2.2 contract on
//! every instance family the paper's sweeps use.

use vc_audit::{AuditReport, AuditedOracle};
use vc_core::problems::{balanced_tree, hh, hierarchical, hybrid, leaf_coloring};
use vc_graph::{gen, Color, Instance};
use vc_model::run::QueryAlgorithm;
use vc_model::{Budget, Execution, RandomTape, SolverScratch};

/// Runs `algo` once from each of the first few roots, auditing every probe;
/// panics with the full report if any violation is found.
fn assert_clean<A: QueryAlgorithm>(
    name: &str,
    inst: &Instance,
    algo: &A,
    tape: Option<RandomTape>,
) {
    let deterministic = tape.is_none();
    for root in [0, inst.n() / 2, inst.n() - 1] {
        let ex = Execution::new(inst, root, tape, Budget::unlimited());
        let mut audited = AuditedOracle::new(ex);
        if deterministic {
            audited = audited.expect_deterministic();
        }
        let result = algo.run(&mut audited, &mut SolverScratch::new());
        assert!(
            result.is_ok(),
            "{name}: {} failed from root {root}: {:?}",
            algo.name(),
            result.err()
        );
        let (_, report): (_, AuditReport) = audited.finish();
        assert!(
            report.is_clean(),
            "{name}: {} from root {root} violated the contract:\n{report}",
            algo.name()
        );
    }
}

#[test]
fn leaf_coloring_solvers_are_contract_clean() {
    for (name, inst) in [
        ("complete", gen::complete_binary_tree(6, Color::R, Color::B)),
        ("random", gen::random_full_binary_tree(300, 1)),
        ("pseudo", gen::pseudo_tree(300, 6, 2)),
    ] {
        assert_clean(name, &inst, &leaf_coloring::DistanceSolver, None);
        assert_clean(
            name,
            &inst,
            &leaf_coloring::RwToLeaf::default(),
            Some(RandomTape::private(7)),
        );
    }
}

#[test]
fn balanced_tree_solver_is_contract_clean() {
    let (inst, _) = gen::balanced_tree_compatible(7);
    assert_clean("balanced", &inst, &balanced_tree::DistanceSolver, None);
}

#[test]
fn hierarchical_solvers_are_contract_clean() {
    for k in 1..=3u32 {
        let inst = gen::hierarchical_for_size(k, 400, 5);
        assert_clean(
            "hierarchical",
            &inst,
            &hierarchical::DeterministicSolver { k },
            None,
        );
        assert_clean(
            "hierarchical",
            &inst,
            &hierarchical::RandomizedSolver::new(k),
            Some(RandomTape::private(11)),
        );
    }
}

#[test]
fn hybrid_solvers_are_contract_clean() {
    let k = 2;
    let inst = gen::hybrid_for_size(k, 700, 3);
    assert_clean("hybrid", &inst, &hybrid::DistanceSolver, None);
    assert_clean(
        "hybrid",
        &inst,
        &hybrid::DeterministicVolumeSolver { k },
        None,
    );
    assert_clean(
        "hybrid",
        &inst,
        &hybrid::RandomizedSolver::new(k),
        Some(RandomTape::private(13)),
    );
}

#[test]
fn hh_solvers_are_contract_clean() {
    let (k, l) = (2, 2);
    let inst = gen::hh(k, l, 600, 4);
    assert_clean("hh", &inst, &hh::DistanceSolver { k, l }, None);
    assert_clean("hh", &inst, &hh::DeterministicVolumeSolver { k, l }, None);
    assert_clean(
        "hh",
        &inst,
        &hh::RandomizedSolver { k, l },
        Some(RandomTape::private(17)),
    );
}

#[test]
fn secret_randomness_stays_local() {
    // In secret mode (§7.4) the execution layer must refuse foreign tapes;
    // the audited run confirms no leak is ever observed.
    let inst = gen::complete_binary_tree(5, Color::R, Color::B);
    let ex = Execution::new(&inst, 0, Some(RandomTape::secret(9)), Budget::unlimited());
    let mut audited = AuditedOracle::new(ex).expect_secret();
    let _ = leaf_coloring::RwToLeaf::default().run(&mut audited, &mut SolverScratch::new());
    let (_, report) = audited.finish();
    assert!(report.is_clean(), "secret run leaked:\n{report}");
}
