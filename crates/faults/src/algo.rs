//! [`FaultedAlgorithm`]: lifts a [`FaultPlan`] from one oracle to a whole
//! sweep.
//!
//! The sweep runners (`run_all`, `vc-engine`) own oracle construction, so
//! a fault plan cannot be threaded in at the oracle layer from outside.
//! Instead this wrapper intercepts at the *algorithm* layer: its `run`
//! wraps the oracle it is handed in a fresh per-execution
//! [`FaultyOracle`] and runs the inner algorithm against that. Every
//! engine guarantee (chunk determinism, panic isolation, tracing,
//! checkpointing) applies unchanged, because from the runner's point of
//! view this is just another algorithm.

use crate::oracle::FaultyOracle;
use crate::plan::FaultPlan;
use vc_model::oracle::{Oracle, QueryError};
use vc_model::{QueryAlgorithm, SolverScratch};

/// An algorithm output annotated with how many faults its execution
/// absorbed.
///
/// The degradation contract (DESIGN.md §11) keys on this: an execution
/// that completed with `injected == 0` never saw a fault, so its `value`
/// — and its [`ExecutionRecord`](vc_model::ExecutionRecord) — must be
/// bit-identical to the fault-free run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Faulted<O> {
    /// The inner algorithm's output (its fallback if a fault or budget
    /// stopped it).
    pub value: O,
    /// Faults injected into this execution: refused, crashed or squeezed
    /// queries plus corrupted answers. Zero means the fault plan was
    /// invisible to this execution.
    pub injected: u64,
}

/// A [`QueryAlgorithm`] running an inner algorithm under a [`FaultPlan`].
#[derive(Clone, Copy, Debug)]
pub struct FaultedAlgorithm<A> {
    algo: A,
    plan: FaultPlan,
}

impl<A> FaultedAlgorithm<A> {
    /// Runs `algo` with every execution's oracle wrapped under `plan`.
    pub fn new(algo: A, plan: FaultPlan) -> Self {
        Self { algo, plan }
    }

    /// The plan in force.
    pub fn plan(&self) -> FaultPlan {
        self.plan
    }
}

impl<A: QueryAlgorithm> QueryAlgorithm for FaultedAlgorithm<A> {
    type Output = Faulted<A::Output>;

    fn name(&self) -> &'static str {
        // The inner name, for display only: a faulted sweep answers a
        // question about the inner algorithm. Sweep identity does NOT go
        // through this string — `fold_identity` folds the fault plan, so
        // checkpoints written under one plan can never resume under
        // another.
        self.algo.name()
    }

    fn fold_identity(&self, h: &mut vc_ident::IdHasher) {
        h.text("vc-faults/faulted/v1");
        self.algo.fold_identity(h);
        self.plan.fold_content(h);
    }

    fn fallback(&self) -> Self::Output {
        // Reached when the *outer* run errors, i.e. the inner algorithm
        // gave up. The injected count of the failed execution is not
        // recoverable here; failed executions are already loud via
        // `completed == false` in their record.
        Faulted {
            value: self.algo.fallback(),
            injected: 0,
        }
    }

    fn run(
        &self,
        oracle: &mut dyn Oracle,
        scratch: &mut SolverScratch,
    ) -> Result<Self::Output, QueryError> {
        let mut faulty = FaultyOracle::new(&mut *oracle, self.plan);
        let result = self.algo.run(&mut faulty, scratch);
        let injected = faulty.injected();
        result.map(|value| Faulted { value, injected })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vc_graph::{gen, Color};
    use vc_model::oracle::follow;
    use vc_model::run::{run_all, RunConfig};

    /// Walks left children, counting steps.
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
    fn transparent_plan_matches_bare_sweep_exactly() {
        let inst = gen::complete_binary_tree(6, Color::R, Color::B);
        let config = RunConfig::default();
        let bare = run_all(&inst, &WalkLeft, &config).unwrap();
        let wrapped = FaultedAlgorithm::new(WalkLeft, FaultPlan::none(123));
        let faulted = run_all(&inst, &wrapped, &config).unwrap();
        assert_eq!(bare.records, faulted.records);
        for (b, f) in bare.outputs.iter().zip(&faulted.outputs) {
            let f = f.as_ref().unwrap();
            assert_eq!(f.injected, 0);
            assert_eq!(b.as_ref().unwrap(), &f.value);
        }
    }

    #[test]
    fn refusals_degrade_loudly_never_silently() {
        let inst = gen::complete_binary_tree(6, Color::R, Color::B);
        let config = RunConfig::default();
        let bare = run_all(&inst, &WalkLeft, &config).unwrap();
        let wrapped = FaultedAlgorithm::new(WalkLeft, FaultPlan::none(11).with_refusals(8));
        let faulted = run_all(&inst, &wrapped, &config).unwrap();
        let mut hit = 0;
        for v in 0..inst.n() {
            let f = faulted.outputs[v].as_ref().unwrap();
            let rec = &faulted.records[v];
            if rec.completed {
                // WalkLeft surfaces every error, so a completed execution
                // saw no fault and must match the bare run bit-for-bit.
                assert_eq!(f.injected, 0);
                assert_eq!(&f.value, bare.outputs[v].as_ref().unwrap());
                assert_eq!(rec, &bare.records[v]);
            } else {
                // A faulted execution fails loudly into the fallback.
                assert_eq!(f.value, WalkLeft.fallback());
                hit += 1;
            }
        }
        assert!(hit > 0, "the plan never fired");
    }

    #[test]
    fn faulted_sweeps_replay_bit_for_bit() {
        let inst = gen::complete_binary_tree(6, Color::R, Color::B);
        let config = RunConfig::default();
        let plan = FaultPlan::none(77)
            .with_refusals(16)
            .with_crashes(32)
            .with_query_squeeze(40);
        let wrapped = FaultedAlgorithm::new(WalkLeft, plan);
        let a = run_all(&inst, &wrapped, &config).unwrap();
        let b = run_all(&inst, &wrapped, &config).unwrap();
        assert_eq!(a.records, b.records);
        assert_eq!(a.outputs, b.outputs);
        // A different seed is a different fault pattern.
        let other = FaultedAlgorithm::new(WalkLeft, FaultPlan { seed: 78, ..plan });
        let c = run_all(&inst, &other, &config).unwrap();
        assert_ne!(a.records, c.records, "seed must steer the faults");
    }
}
