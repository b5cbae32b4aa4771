//! Replay: the lazily built adversarial worlds of `vc-adversary` are
//! self-consistent — every answer they gave during an audited interaction is
//! realized by the instance they finalize, and the interaction itself obeys
//! the §2.2 contract.

use vc_adversary::hierarchical::HthcWorld;
use vc_adversary::leaf_coloring::LeafColoringAdversary;
use vc_audit::{replay_trace, AuditedOracle};
use vc_core::problems::hierarchical::DeterministicSolver;
use vc_core::problems::leaf_coloring::DistanceSolver;
use vc_graph::{gen, Color};
use vc_model::run::QueryAlgorithm;
use vc_model::{Budget, Execution, SolverScratch};

#[test]
fn leaf_coloring_adversary_replays_cleanly() {
    // The adaptive world of Proposition 3.13: run the distance solver until
    // the growth cap refuses, then check the finalized tree realizes every
    // answer that was given along the way.
    let mut audited =
        AuditedOracle::new(LeafColoringAdversary::new(64, 200)).expect_deterministic();
    let result = DistanceSolver.run(&mut audited, &mut SolverScratch::new());
    assert!(result.is_err(), "the adversary must exhaust the solver");
    let (world, report) = audited.finish();
    assert!(report.is_clean(), "adversary broke the contract:\n{report}");

    let (inst, _forced) = world.finalize(Color::R).unwrap();
    assert!(inst.graph.validate().is_ok());
    let mismatches = replay_trace(&inst, &report.trace);
    assert!(mismatches.is_empty(), "replay mismatches: {mismatches:?}");
}

#[test]
fn hierarchical_world_replays_cleanly() {
    // The leveled world of Proposition 5.20, one audited simulation.
    let k = 2;
    let mut world = HthcWorld::new(k, 256, 4_000);
    let root = world.new_root(k, Color::B).unwrap();
    let report = {
        let mut audited = AuditedOracle::new(world.execution(root)).expect_deterministic();
        let _ = DeterministicSolver { k }.run(&mut audited, &mut SolverScratch::new());
        let (_, report) = audited.finish();
        report
    };
    assert!(report.is_clean(), "world broke the contract:\n{report}");

    let inst = world.finalize().unwrap();
    assert!(inst.graph.validate().is_ok());
    let mismatches = replay_trace(&inst, &report.trace);
    assert!(mismatches.is_empty(), "replay mismatches: {mismatches:?}");
}

#[test]
fn hierarchical_world_replays_across_two_simulations() {
    // The duel reuses one world for several simulations; each trace must
    // still be realized by the single finalized instance.
    let k = 2;
    let mut world = HthcWorld::new(k, 256, 4_000);
    let blue = world.new_root(k, Color::B).unwrap();
    let red = world.new_floating(k, Color::R).unwrap();
    let mut reports = Vec::new();
    for root in [blue, red] {
        let mut audited = AuditedOracle::new(world.execution(root)).expect_deterministic();
        let _ = DeterministicSolver { k }.run(&mut audited, &mut SolverScratch::new());
        let (_, report) = audited.finish();
        assert!(report.is_clean(), "root {root}:\n{report}");
        reports.push(report);
    }
    let inst = world.finalize().unwrap();
    for report in &reports {
        let mismatches = replay_trace(&inst, &report.trace);
        assert!(mismatches.is_empty(), "replay mismatches: {mismatches:?}");
    }
}

#[test]
fn concrete_execution_replays_against_its_own_instance() {
    // Hidden-leaf style (Proposition 3.12): the world is a concrete complete
    // binary tree, so the replay closes trivially — a sanity anchor for the
    // replay harness itself.
    let inst = gen::complete_binary_tree(6, Color::R, Color::B);
    let mut audited = AuditedOracle::new(Execution::new(&inst, 0, None, Budget::unlimited()))
        .expect_deterministic();
    let out = DistanceSolver.run(&mut audited, &mut SolverScratch::new());
    assert!(out.is_ok());
    let (_, report) = audited.finish();
    assert!(report.is_clean(), "{report}");
    let mismatches = replay_trace(&inst, &report.trace);
    assert!(mismatches.is_empty(), "replay mismatches: {mismatches:?}");
}
