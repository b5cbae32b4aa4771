//! Hybrid balanced 2½-coloring, `Hybrid-THC(k)` (paper §6): distance
//! `Θ(log n)`, randomized volume `Θ̃(n^{1/k})`, deterministic volume
//! `Θ̃(n)`.
//!
//! Levels are *explicit inputs* (`level(v) ∈ [k+1]`, Definition 6.1). Each
//! level-1 component is a BalancedTree instance (§4), which may be solved
//! (all nodes output pairs) or unanimously declined (`D`). Levels `≥ 2`
//! follow the Hierarchical-THC validity conditions, except that a level-2
//! node may only become exempt when the BalancedTree below it is *solved*:
//! condition 4(b) becomes "`χ_out(v) = X` and `χ_out(RC(v)) ∈ {B, U}`".
//! Both the checker and the volume solvers are Hierarchical-THC's
//! ([`check_thc_node`] and `RecursiveHTHC`), run with this level-1 base and
//! this exemption license.
//!
//! ## A note on the top level
//!
//! Definition 6.1 prescribes "conditions 2 and 4 (with the new 4(b))" at
//! `ℓ = 2` and "valid in the sense of Definition 5.5" for `ℓ > 2`. Applied
//! literally with `k = 2` this leaves *no* level subject to condition 5, and
//! the problem would be solvable by declining everywhere — contradicting the
//! `Θ(log n)` distance and `Θ̃(n^{1/k})` volume bounds of Theorem 6.3. As in
//! Hierarchical-THC, the top level `ℓ = k` must anchor the hierarchy: we
//! apply condition 5 (palette `{R, B, X}`, no declining) at `ℓ = k`, with
//! the license of level `k` as its 5(a) — at `k = 2` the hybrid license
//! `χ_out(RC(v)) ∈ {B, U}`. For `k > 2` this is exactly the literal
//! definition; for `k = 2` it is the minimal reading that keeps Theorem 6.3
//! true.

use crate::lcl::{Lcl, Violation};
use crate::output::{HybridOutput, ThcColor};
use crate::problems::balanced_tree::{check_bt_node_in, solve_bt};
use crate::problems::hierarchical::{
    check_thc_node, lc_strict, rc_strict, run_engine, Engine, Variant,
};
use crate::problems::util::Explorer;
use std::collections::VecDeque;
use vc_graph::{Instance, Port};
use vc_model::oracle::{NodeView, Oracle, QueryError};
use vc_model::run::QueryAlgorithm;
use vc_model::SolverScratch;

/// The Hybrid-THC(k) LCL (Definition 6.1).
#[derive(Clone, Copy, Debug)]
pub struct HybridThc {
    /// The hierarchy parameter `k ≥ 2`.
    pub k: u32,
}

impl HybridThc {
    /// Creates the problem for a fixed `k ≥ 2`.
    ///
    /// # Panics
    ///
    /// Panics if `k < 2`.
    pub fn new(k: u32) -> Self {
        assert!(k >= 2, "Hybrid-THC needs k ≥ 2");
        Self { k }
    }
}

/// The explicit input level of `v`; `None` for unlabeled nodes (which are
/// treated as exempt, like levels above `k`).
pub(crate) fn input_level(inst: &Instance, v: usize) -> Option<u32> {
    inst.labels[v].level.map(u32::from)
}

/// Checks the per-node condition of Hybrid-THC(k) (see the module docs for
/// the exact reading). Shared with HH-THC.
pub(crate) fn check_hybrid_node(
    inst: &Instance,
    outputs: &[HybridOutput],
    v: usize,
    k: u32,
) -> Result<(), Violation> {
    let fail = |rule| Err(Violation { node: v, rule });
    let Some(lvl) = input_level(inst, v) else {
        // Unlabeled nodes are exempt.
        return if outputs[v] == HybridOutput::Sym(ThcColor::X) {
            Ok(())
        } else {
            fail("6.1:unlabeled-exempt")
        };
    };
    if lvl == 1 {
        return check_level1(inst, outputs, v);
    }
    if outputs[v].sym().is_none() {
        return fail("6.1:upper-levels-output-symbols");
    }
    let license = |r: usize| Hybrid::licenses(outputs[r], lvl);
    check_thc_node(inst, &|u| outputs[u].sym(), v, lvl, k, &license).map_err(|e| Violation {
        rule: match e.rule {
            "5.5:4:mid-level" => "6.1:4:mid-level",
            rule => rule,
        },
        ..e
    })
}

/// Level-1 validity: a BalancedTree-valid pair labeling on the level-1
/// subgraph, or unanimous declining.
fn check_level1(inst: &Instance, outputs: &[HybridOutput], v: usize) -> Result<(), Violation> {
    let keep = |u: usize| input_level(inst, u) == Some(1);
    match outputs[v] {
        HybridOutput::Sym(ThcColor::D) => {
            // Alternative (b): decline, unanimously with the level-1 G_T
            // neighbors.
            let mut nbrs = Vec::new();
            if let Some(u) = lc_strict(inst, v) {
                nbrs.push(u);
            }
            if let Some(u) = rc_strict(inst, v) {
                nbrs.push(u);
            }
            if let Some(p) = inst.parent_node(v) {
                if lc_strict(inst, p) == Some(v) || rc_strict(inst, p) == Some(v) {
                    nbrs.push(p);
                }
            }
            for u in nbrs {
                if keep(u) && outputs[u] != HybridOutput::Sym(ThcColor::D) {
                    return Err(Violation {
                        node: v,
                        rule: "6.1:decline-unanimous",
                    });
                }
            }
            Ok(())
        }
        HybridOutput::Sym(_) => Err(Violation {
            node: v,
            rule: "6.1:level1-palette",
        }),
        HybridOutput::Pair(_) => {
            let get_out = |u: usize| match outputs[u] {
                HybridOutput::Pair(p) => Some(p),
                HybridOutput::Sym(_) => None,
            };
            check_bt_node_in(inst, &get_out, v, &keep)
        }
    }
}

impl Lcl for HybridThc {
    type Output = HybridOutput;

    fn name(&self) -> String {
        format!("Hybrid-THC({})", self.k)
    }

    fn check_radius(&self) -> u32 {
        3
    }

    fn check_node(
        &self,
        inst: &Instance,
        outputs: &[HybridOutput],
        v: usize,
    ) -> Result<(), Violation> {
        check_hybrid_node(inst, outputs, v, self.k)
    }
}

/// The deterministic `O(log n)`-distance solver (Theorem 6.3): level-1
/// nodes run the BalancedTree distance solver (Proposition 4.8); everything
/// above is exempt, licensed by the solved instances below.
#[derive(Clone, Copy, Debug, Default)]
pub struct DistanceSolver;

impl QueryAlgorithm for DistanceSolver {
    type Output = HybridOutput;

    fn name(&self) -> &'static str {
        "hybrid-thc/distance"
    }

    fn fallback(&self) -> HybridOutput {
        HybridOutput::Sym(ThcColor::X)
    }

    fn run(
        &self,
        oracle: &mut dyn Oracle,
        scratch: &mut SolverScratch,
    ) -> Result<HybridOutput, QueryError> {
        let mut xp = Explorer::new(oracle, scratch);
        let root = xp.root();
        match root.label.level {
            Some(1) => Ok(HybridOutput::Pair(solve_bt(&mut xp, root)?)),
            _ => Ok(HybridOutput::Sym(ThcColor::X)),
        }
    }
}

/// Hybrid-THC's [`Variant`] of `RecursiveHTHC`: the explicit `level` input
/// (unlabeled nodes read as above `k`), BalancedTree level-1 components, and
/// Definition 6.1's license.
pub(crate) struct Hybrid;

impl Variant for Hybrid {
    type Out = HybridOutput;

    fn level(e: &mut Engine<'_, '_, Self>, v: &NodeView) -> Result<u32, QueryError> {
        Ok(v.label.level.map_or(e.k + 1, u32::from))
    }

    /// Small level-1 components are solved as BalancedTree instances; large
    /// ones decline unanimously.
    fn level1(e: &mut Engine<'_, '_, Self>, v: NodeView) -> Result<HybridOutput, QueryError> {
        if component_at_most(e.xp, &v, 2 * e.threshold + 8)? {
            Ok(HybridOutput::Pair(solve_bt(e.xp, v)?))
        } else {
            Ok(HybridOutput::Sym(ThcColor::D))
        }
    }

    /// A solved BalancedTree below a level-2 node (`χ_out(RC(v)) ∈ {B, U}`),
    /// a solved symbol below higher levels.
    fn licenses(below: HybridOutput, lvl: u32) -> bool {
        if lvl == 2 {
            below.is_solved_pair()
        } else {
            below.sym().is_some_and(ThcColor::is_solved)
        }
    }
}

/// BFS over the level-1 component of `v` (through all ports, restricted
/// to level-1 nodes): whether it has at most `cap` nodes.
fn component_at_most(xp: &mut Explorer<'_>, v: &NodeView, cap: usize) -> Result<bool, QueryError> {
    xp.start_search(v.node);
    let mut queue = VecDeque::from([*v]);
    let mut count = 1usize;
    while let Some(u) = queue.pop_front() {
        for p in 1..=u.degree as u8 {
            let w = xp.follow(&u, Some(Port::new(p)))?.expect("valid port");
            if w.label.level == Some(1) && xp.mark(w.node) {
                count += 1;
                if count > cap {
                    return Ok(false);
                }
                queue.push_back(w);
            }
        }
    }
    Ok(true)
}

/// The randomized way-point solver: volume `Θ̃(n^{1/k})` on the balanced
/// instance family (Theorem 6.3), using the same way-point technique as
/// Hierarchical-THC with the BalancedTree base case.
#[derive(Clone, Copy, Debug)]
pub struct RandomizedSolver {
    /// The hierarchy parameter `k ≥ 2`.
    pub k: u32,
    /// Way-point density constant.
    pub c: f64,
}

impl RandomizedSolver {
    /// Way-point solver with the default density constant.
    pub fn new(k: u32) -> Self {
        Self { k, c: 4.0 }
    }
}

impl QueryAlgorithm for RandomizedSolver {
    type Output = HybridOutput;

    fn name(&self) -> &'static str {
        "hybrid-thc/way-points"
    }

    fn fold_identity(&self, h: &mut vc_ident::IdHasher) {
        h.text(self.name());
        h.word(u64::from(self.k));
        h.word(self.c.to_bits());
    }

    fn fallback(&self) -> HybridOutput {
        HybridOutput::Sym(ThcColor::D)
    }

    fn run(
        &self,
        oracle: &mut dyn Oracle,
        scratch: &mut SolverScratch,
    ) -> Result<HybridOutput, QueryError> {
        run_engine::<Hybrid>(oracle, scratch, self.k, Some(self.c))
    }
}

/// The ungated engine: a deterministic solver whose volume is `Θ̃(n)` —
/// the upper-bound counterpart of the `D-VOL` row of Table 1.
#[derive(Clone, Copy, Debug)]
pub struct DeterministicVolumeSolver {
    /// The hierarchy parameter `k ≥ 2`.
    pub k: u32,
}

impl QueryAlgorithm for DeterministicVolumeSolver {
    type Output = HybridOutput;

    fn name(&self) -> &'static str {
        "hybrid-thc/deterministic"
    }

    fn fold_identity(&self, h: &mut vc_ident::IdHasher) {
        h.text(self.name());
        h.word(u64::from(self.k));
    }

    fn fallback(&self) -> HybridOutput {
        HybridOutput::Sym(ThcColor::D)
    }

    fn run(
        &self,
        oracle: &mut dyn Oracle,
        scratch: &mut SolverScratch,
    ) -> Result<HybridOutput, QueryError> {
        run_engine::<Hybrid>(oracle, scratch, self.k, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lcl::check_solution;
    use crate::output::BtFlag;
    use vc_graph::gen;
    use vc_model::run::{run_all, RunConfig};
    use vc_model::RandomTape;

    fn rand_config(seed: u64) -> RunConfig {
        RunConfig {
            tape: Some(RandomTape::private(seed)),
            ..RunConfig::default()
        }
    }

    fn small_instance(seed: u64) -> Instance {
        gen::hybrid(gen::HybridParams {
            k: 2,
            backbone_len: 4,
            bt_depth: 2,
            seed,
        })
    }

    #[test]
    fn distance_solver_valid_on_hybrid_instances() {
        for seed in 0..4 {
            let inst = small_instance(seed);
            let problem = HybridThc::new(2);
            let report = run_all(&inst, &DistanceSolver, &RunConfig::default()).unwrap();
            let outputs = report.complete_outputs().unwrap();
            let check = check_solution(&problem, &inst, &outputs);
            assert!(check.is_ok(), "seed {seed}: {check:?}");
            // Level-1 nodes all solved their BTs; levels ≥ 2 are exempt.
            for (v, out) in outputs.iter().enumerate() {
                match inst.labels[v].level {
                    Some(1) => assert!(matches!(out, HybridOutput::Pair(_))),
                    _ => assert_eq!(*out, HybridOutput::Sym(ThcColor::X)),
                }
            }
        }
    }

    #[test]
    fn distance_solver_distance_is_logarithmic() {
        let inst = gen::hybrid_for_size(2, 2000, 3);
        let report = run_all(&inst, &DistanceSolver, &RunConfig::default()).unwrap();
        let s = report.summary();
        // BT depth ≈ log(n^(1/2)) plus O(1) checks.
        let bound = (inst.n() as f64).log2() as u32 + 4;
        assert!(s.max_distance <= bound, "{} > {bound}", s.max_distance);
        let problem = HybridThc::new(2);
        assert!(check_solution(&problem, &inst, &report.complete_outputs().unwrap()).is_ok());
    }

    #[test]
    fn randomized_solver_valid_on_hybrid_instances() {
        for k in 2..=3u32 {
            for seed in 0..3 {
                let inst = gen::hybrid_for_size(k, 800, seed);
                let problem = HybridThc::new(k);
                let report = run_all(&inst, &RandomizedSolver::new(k), &rand_config(seed)).unwrap();
                let outputs = report.complete_outputs().unwrap();
                let check = check_solution(&problem, &inst, &outputs);
                assert!(check.is_ok(), "k={k} seed={seed}: {check:?}");
            }
        }
    }

    #[test]
    fn deterministic_volume_solver_valid() {
        let inst = gen::hybrid_for_size(2, 500, 7);
        let problem = HybridThc::new(2);
        let report = run_all(
            &inst,
            &DeterministicVolumeSolver { k: 2 },
            &RunConfig::default(),
        )
        .unwrap();
        let outputs = report.complete_outputs().unwrap();
        let check = check_solution(&problem, &inst, &outputs);
        assert!(check.is_ok(), "{check:?}");
    }

    #[test]
    fn randomized_volume_is_sublinear() {
        let inst = gen::hybrid_for_size(2, 4000, 9);
        let report = run_all(
            &inst,
            &RandomizedSolver::new(2),
            &RunConfig {
                tape: Some(RandomTape::private(9)),
                starts: vc_model::StartSelection::Sample { count: 60, seed: 2 },
                exact_distance: false,
                ..RunConfig::default()
            },
        )
        .unwrap();
        let s = report.summary();
        assert!(
            s.max_volume < inst.n() / 3,
            "volume {} should be ≪ n = {}",
            s.max_volume,
            inst.n()
        );
    }

    #[test]
    fn checker_rejects_decline_at_top_level() {
        let inst = small_instance(1);
        let problem = HybridThc::new(2);
        let outputs: Vec<HybridOutput> = (0..inst.n())
            .map(|_| HybridOutput::Sym(ThcColor::D))
            .collect();
        let err = check_solution(&problem, &inst, &outputs).unwrap_err();
        assert_eq!(err.rule, "5.5:5:top-palette");
    }

    #[test]
    fn checker_rejects_exemption_over_declined_bt() {
        let inst = small_instance(2);
        let problem = HybridThc::new(2);
        // Level 1 declines (valid per se), level 2 claims X: the license
        // fails because the BT below was not solved.
        let outputs: Vec<HybridOutput> = (0..inst.n())
            .map(|v| match inst.labels[v].level {
                Some(1) => HybridOutput::Sym(ThcColor::D),
                _ => HybridOutput::Sym(ThcColor::X),
            })
            .collect();
        let err = check_solution(&problem, &inst, &outputs).unwrap_err();
        assert_eq!(err.rule, "5.5:5a:exempt-needs-solved-rc");
    }

    #[test]
    fn checker_rejects_mixed_level1_component() {
        let inst = small_instance(3);
        let problem = HybridThc::new(2);
        let report = run_all(&inst, &DistanceSolver, &RunConfig::default()).unwrap();
        let mut outputs = report.complete_outputs().unwrap();
        // Flip a single level-1 internal node to D inside a solved BT.
        let v = (0..inst.n())
            .find(|&v| {
                inst.labels[v].level == Some(1)
                    && vc_graph::structure::is_internal(&inst, v, &|u| {
                        inst.labels[u].level == Some(1)
                    })
            })
            .unwrap();
        outputs[v] = HybridOutput::Sym(ThcColor::D);
        assert!(check_solution(&problem, &inst, &outputs).is_err());
    }

    #[test]
    fn declining_one_component_with_consistent_parent_is_valid() {
        let inst = small_instance(4);
        let problem = HybridThc::new(2);
        let report = run_all(&inst, &DistanceSolver, &RunConfig::default()).unwrap();
        let mut outputs = report.complete_outputs().unwrap();
        // Decline the BT below the last backbone node (a level-2 leaf) and
        // let that leaf keep its input color (condition 2); all other
        // level-2 nodes stay exempt via their solved BTs.
        let lvl2_leaf = (0..inst.n())
            .find(|&v| inst.labels[v].level == Some(2) && lc_strict(&inst, v).is_none())
            .unwrap();
        let bt_root = rc_strict(&inst, lvl2_leaf).unwrap();
        let keep = |u: usize| inst.labels[u].level == Some(1);
        let mut stack = vec![bt_root];
        let mut comp = std::collections::BTreeSet::new();
        comp.insert(bt_root);
        while let Some(u) = stack.pop() {
            for w in inst.graph.neighbors(u) {
                if keep(w) && comp.insert(w) {
                    stack.push(w);
                }
            }
        }
        for &u in &comp {
            outputs[u] = HybridOutput::Sym(ThcColor::D);
        }
        outputs[lvl2_leaf] =
            HybridOutput::Sym(ThcColor::from_color(inst.labels[lvl2_leaf].color.unwrap()));
        let check = check_solution(&problem, &inst, &outputs);
        assert!(check.is_ok(), "{check:?}");
    }

    #[test]
    fn outputs_are_pairs_exactly_at_level1_for_solved_instances() {
        let inst = gen::hybrid_for_size(3, 600, 5);
        let report = run_all(&inst, &RandomizedSolver::new(3), &rand_config(6)).unwrap();
        let outputs = report.complete_outputs().unwrap();
        for (v, out) in outputs.iter().enumerate() {
            if inst.labels[v].level != Some(1) {
                assert!(out.sym().is_some());
            }
        }
        // At least some BTs got solved with flag B.
        assert!(outputs.iter().any(|o| matches!(
            o,
            HybridOutput::Pair(p) if p.flag == BtFlag::Balanced
        )));
    }

    #[test]
    #[should_panic(expected = "k ≥ 2")]
    fn k1_rejected() {
        let _ = HybridThc::new(1);
    }
}
