//! Auditing *faulty* worlds: an answer log recorded under a `vc-faults`
//! plan still supports the §2.2 contract checks on everything the world
//! actually answered.
//!
//! Three facts are pinned here:
//!
//! * refusals are contract-clean — a fault plan that only withholds
//!   answers produces a violation-free audit, and replay verifies the
//!   non-refused prefix of the log against the instance;
//! * corruption is contract-clean *in-flight* (liars lie stably, so
//!   immutability holds) but is caught by [`replay_trace`] against the
//!   ground-truth instance as a `ReplayMismatch` — exactly the division
//!   of labor the fault model intends (Byzantine wrongness is detectable
//!   only against truth);
//! * the all-pass plan changes nothing at all.

use vc_audit::{replay_trace, AuditedOracle, Invariant};
use vc_core::problems::hierarchical::DeterministicSolver;
use vc_faults::{FaultPlan, FaultyOracle};
use vc_graph::{gen, Instance};
use vc_model::run::QueryAlgorithm;
use vc_model::{Budget, Execution, QueryError, SolverScratch};

/// Runs the Hierarchical-THC solver from `root` under `plan`, auditing
/// every probe, and returns `(run result, audit-clean, replay violations)`.
fn audited_faulty_run(
    inst: &Instance,
    root: usize,
    plan: FaultPlan,
) -> (Result<(), QueryError>, bool, Vec<vc_audit::Violation>) {
    let ex = Execution::new(inst, root, None, Budget::unlimited());
    let faulty = FaultyOracle::new(ex, plan);
    let mut audited = AuditedOracle::new(faulty);
    let result = DeterministicSolver { k: 2 }
        .run(&mut audited, &mut SolverScratch::new())
        .map(|_| ());
    let (_, report) = audited.finish();
    let replay = replay_trace(inst, &report.trace);
    (result, report.is_clean(), replay)
}

#[test]
fn all_pass_plan_audits_and_replays_clean() {
    let inst = gen::hierarchical_for_size(2, 600, 3);
    for root in [0, inst.n() / 2, inst.n() - 1] {
        let (result, clean, replay) = audited_faulty_run(&inst, root, FaultPlan::none(1));
        assert!(result.is_ok(), "{:?}", result);
        assert!(clean);
        assert!(replay.is_empty(), "{replay:?}");
    }
}

#[test]
fn refusals_are_contract_clean_and_replay_skips_them() {
    let inst = gen::hierarchical_for_size(2, 600, 3);
    let plan = FaultPlan::none(41).with_refusals(6);
    let mut refused_somewhere = false;
    for root in 0..inst.n() {
        let (result, clean, replay) = audited_faulty_run(&inst, root, plan);
        refused_somewhere |= result == Err(QueryError::FaultInjected);
        // Withheld answers break no §2.2 invariant, and replay verifies
        // every answer the world *did* give against the instance.
        assert!(clean, "refusal flagged as contract breach at root {root}");
        assert!(replay.is_empty(), "root {root}: {replay:?}");
    }
    assert!(refused_somewhere, "the plan never fired");
}

#[test]
fn corruption_survives_the_audit_but_not_the_replay() {
    let inst = gen::hierarchical_for_size(2, 600, 3);
    let plan = FaultPlan::none(43).with_corruption(4);
    let mut caught = 0;
    for root in 0..inst.n() {
        let (_result, clean, replay) = audited_faulty_run(&inst, root, plan);
        // Liars lie stably, so the in-flight immutability/consistency
        // checks must pass…
        assert!(clean, "stable lies flagged in-flight at root {root}");
        // …and any lie the execution actually saw must show up as a
        // replay mismatch against the truthful instance.
        for v in &replay {
            assert_eq!(v.invariant, Invariant::ReplayMismatch, "{v:?}");
        }
        caught += usize::from(!replay.is_empty());
    }
    assert!(caught > 0, "no lie was ever revealed to any execution");
}
