//! Hierarchical-or-hybrid 2½-coloring, `HH-THC(k, ℓ)` (paper §6.1):
//! distance `Θ(n^{1/ℓ})`, randomized volume `Θ̃(n^{1/k})`, deterministic
//! volume `Θ̃(n)`, for any `k ≤ ℓ`.
//!
//! Every node carries a selection bit `b_v` (Definition 6.4): nodes with
//! `b_v = 0` form an instance of Hierarchical-THC(ℓ), nodes with `b_v = 1`
//! an instance of Hybrid-THC(k). Membership is locally checkable, so the
//! combined problem is an LCL, and each solver simply dispatches on the bit
//! (the observation behind Theorem 6.5).

use crate::lcl::{Lcl, Violation};
use crate::output::{HybridOutput, ThcColor};
use crate::problems::hierarchical::{
    check_thc_node, DeterministicSolver as HierDet, RandomizedSolver as HierRand,
};
use crate::problems::hybrid::{
    check_hybrid_node, DeterministicVolumeSolver as HybDetVol, DistanceSolver as HybDist,
    RandomizedSolver as HybRand,
};
use vc_graph::{structure, Instance};
use vc_model::oracle::{Oracle, QueryError};
use vc_model::run::QueryAlgorithm;
use vc_model::SolverScratch;

/// The HH-THC(k, ℓ) LCL (Definition 6.4).
#[derive(Clone, Copy, Debug)]
pub struct HhThc {
    /// The Hybrid-THC parameter (`b_v = 1` side).
    pub k: u32,
    /// The Hierarchical-THC parameter (`b_v = 0` side).
    pub l: u32,
}

impl HhThc {
    /// Creates the problem for fixed `k ≤ ℓ`, `k ≥ 2`.
    ///
    /// # Panics
    ///
    /// Panics unless `2 ≤ k ≤ ℓ`.
    pub fn new(k: u32, l: u32) -> Self {
        assert!(k >= 2 && k <= l, "HH-THC needs 2 ≤ k ≤ ℓ");
        Self { k, l }
    }
}

impl Lcl for HhThc {
    type Output = HybridOutput;

    fn name(&self) -> String {
        format!("HH-THC({}, {})", self.k, self.l)
    }

    fn check_radius(&self) -> u32 {
        self.l + 1
    }

    fn check_node(
        &self,
        inst: &Instance,
        outputs: &[HybridOutput],
        v: usize,
    ) -> Result<(), Violation> {
        match inst.labels[v].bit {
            Some(false) => {
                // G_0: Hierarchical-THC(ℓ), with levels from RC-chains
                // ("with the input level ignored", Definition 6.4).
                let lvl = structure::level_capped(inst, v, self.l);
                let license = |r: usize| outputs[r].sym().is_some_and(ThcColor::is_solved);
                check_thc_node(inst, &|u| outputs[u].sym(), v, lvl, self.l, &license)
            }
            Some(true) => check_hybrid_node(inst, outputs, v, self.k),
            None => Err(Violation {
                node: v,
                rule: "6.4:missing-selection-bit",
            }),
        }
    }
}

/// The distance-optimal solver: `O(n^{1/ℓ})` on the hierarchical side,
/// `O(log n)` on the hybrid side (Theorem 6.5).
#[derive(Clone, Copy, Debug)]
pub struct DistanceSolver {
    /// Hybrid parameter.
    pub k: u32,
    /// Hierarchical parameter.
    pub l: u32,
}

impl QueryAlgorithm for DistanceSolver {
    type Output = HybridOutput;

    fn name(&self) -> &'static str {
        "hh-thc/distance"
    }

    fn fold_identity(&self, h: &mut vc_ident::IdHasher) {
        h.text(self.name());
        h.word(u64::from(self.k));
        h.word(u64::from(self.l));
    }

    fn fallback(&self) -> HybridOutput {
        HybridOutput::Sym(ThcColor::D)
    }

    fn run(
        &self,
        oracle: &mut dyn Oracle,
        scratch: &mut SolverScratch,
    ) -> Result<HybridOutput, QueryError> {
        match oracle.root().label.bit {
            Some(false) => HierDet { k: self.l }
                .run(oracle, scratch)
                .map(HybridOutput::Sym),
            _ => HybDist.run(oracle, scratch),
        }
    }
}

/// The randomized volume solver: `Θ̃(n^{1/ℓ})` on the hierarchical side,
/// `Θ̃(n^{1/k})` on the hybrid side — `Θ̃(n^{1/k})` overall since `k ≤ ℓ`.
#[derive(Clone, Copy, Debug)]
pub struct RandomizedSolver {
    /// Hybrid parameter.
    pub k: u32,
    /// Hierarchical parameter.
    pub l: u32,
}

impl QueryAlgorithm for RandomizedSolver {
    type Output = HybridOutput;

    fn name(&self) -> &'static str {
        "hh-thc/way-points"
    }

    fn fold_identity(&self, h: &mut vc_ident::IdHasher) {
        h.text(self.name());
        h.word(u64::from(self.k));
        h.word(u64::from(self.l));
    }

    fn fallback(&self) -> HybridOutput {
        HybridOutput::Sym(ThcColor::D)
    }

    fn run(
        &self,
        oracle: &mut dyn Oracle,
        scratch: &mut SolverScratch,
    ) -> Result<HybridOutput, QueryError> {
        match oracle.root().label.bit {
            Some(false) => HierRand::new(self.l)
                .run(oracle, scratch)
                .map(HybridOutput::Sym),
            _ => HybRand::new(self.k).run(oracle, scratch),
        }
    }
}

/// The ungated deterministic solver — the `Θ̃(n)` volume upper bound.
#[derive(Clone, Copy, Debug)]
pub struct DeterministicVolumeSolver {
    /// Hybrid parameter.
    pub k: u32,
    /// Hierarchical parameter.
    pub l: u32,
}

impl QueryAlgorithm for DeterministicVolumeSolver {
    type Output = HybridOutput;

    fn name(&self) -> &'static str {
        "hh-thc/deterministic"
    }

    fn fold_identity(&self, h: &mut vc_ident::IdHasher) {
        h.text(self.name());
        h.word(u64::from(self.k));
        h.word(u64::from(self.l));
    }

    fn fallback(&self) -> HybridOutput {
        HybridOutput::Sym(ThcColor::D)
    }

    fn run(
        &self,
        oracle: &mut dyn Oracle,
        scratch: &mut SolverScratch,
    ) -> Result<HybridOutput, QueryError> {
        match oracle.root().label.bit {
            Some(false) => HierDet { k: self.l }
                .run(oracle, scratch)
                .map(HybridOutput::Sym),
            _ => HybDetVol { k: self.k }.run(oracle, scratch),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lcl::check_solution;
    use vc_graph::gen;
    use vc_model::run::{run_all, RunConfig};
    use vc_model::RandomTape;

    #[test]
    fn distance_solver_valid_on_hh_instances() {
        for seed in 0..3 {
            let inst = gen::hh(2, 2, 500, seed);
            let problem = HhThc::new(2, 2);
            let report =
                run_all(&inst, &DistanceSolver { k: 2, l: 2 }, &RunConfig::default()).unwrap();
            let outputs = report.complete_outputs().unwrap();
            let check = check_solution(&problem, &inst, &outputs);
            assert!(check.is_ok(), "seed {seed}: {check:?}");
        }
    }

    #[test]
    fn randomized_solver_valid_on_hh_instances() {
        for (k, l) in [(2u32, 2u32), (2, 3)] {
            let inst = gen::hh(k, l, 700, 5);
            let problem = HhThc::new(k, l);
            let config = RunConfig {
                tape: Some(RandomTape::private(5)),
                ..RunConfig::default()
            };
            let report = run_all(&inst, &RandomizedSolver { k, l }, &config).unwrap();
            let outputs = report.complete_outputs().unwrap();
            let check = check_solution(&problem, &inst, &outputs);
            assert!(check.is_ok(), "k={k} l={l}: {check:?}");
        }
    }

    #[test]
    fn deterministic_volume_solver_valid() {
        let inst = gen::hh(2, 2, 400, 9);
        let problem = HhThc::new(2, 2);
        let report = run_all(
            &inst,
            &DeterministicVolumeSolver { k: 2, l: 2 },
            &RunConfig::default(),
        )
        .unwrap();
        let outputs = report.complete_outputs().unwrap();
        let check = check_solution(&problem, &inst, &outputs);
        assert!(check.is_ok(), "{check:?}");
    }

    #[test]
    fn missing_bit_is_flagged() {
        let mut inst = gen::hh(2, 2, 200, 1);
        inst.labels[0].bit = None;
        let problem = HhThc::new(2, 2);
        let outputs = vec![HybridOutput::Sym(ThcColor::X); inst.n()];
        let err = problem.check_node(&inst, &outputs, 0).unwrap_err();
        assert_eq!(err.rule, "6.4:missing-selection-bit");
    }

    #[test]
    fn hierarchical_side_requires_symbols() {
        let inst = gen::hh(2, 2, 200, 2);
        let problem = HhThc::new(2, 2);
        let v = (0..inst.n())
            .find(|&v| inst.labels[v].bit == Some(false))
            .unwrap();
        let mut outputs = vec![HybridOutput::Sym(ThcColor::X); inst.n()];
        outputs[v] = HybridOutput::Pair(crate::output::BtOutput::balanced(None));
        let err = problem.check_node(&inst, &outputs, v).unwrap_err();
        assert_eq!(err.rule, "5.5:needs-symbol");
    }

    #[test]
    #[should_panic(expected = "2 ≤ k ≤ ℓ")]
    fn parameter_order_enforced() {
        let _ = HhThc::new(3, 2);
    }
}
