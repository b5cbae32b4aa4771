//! LeafColoring (paper §3): logarithmic distance and randomized volume, but
//! linear deterministic volume.
//!
//! *Input*: a colored tree labeling (Definition 3.1). *Output*: a color per
//! node. *Validity* (Definition 3.4): leaves and inconsistent nodes keep
//! their input color; every internal node outputs the color of one of its
//! `G_T`-children.

use crate::lcl::{Lcl, Violation};
use crate::problems::util::Explorer;
use vc_graph::{structure, Color, Instance};
use vc_model::oracle::{Oracle, QueryError};
use vc_model::run::QueryAlgorithm;
use vc_model::SolverScratch;

/// The LeafColoring LCL (Definition 3.4).
#[derive(Clone, Copy, Debug, Default)]
pub struct LeafColoring;

impl Lcl for LeafColoring {
    type Output = Color;

    fn name(&self) -> String {
        "LeafColoring".into()
    }

    fn check_radius(&self) -> u32 {
        2
    }

    fn check_node(&self, inst: &Instance, outputs: &[Color], v: usize) -> Result<(), Violation> {
        match structure::status(inst, v, &|_| true) {
            structure::NodeStatus::Leaf | structure::NodeStatus::Inconsistent => {
                let Some(chi_in) = inst.labels[v].color else {
                    return Err(Violation {
                        node: v,
                        rule: "3.4:missing-input-color",
                    });
                };
                if outputs[v] != chi_in {
                    return Err(Violation {
                        node: v,
                        rule: "3.4:leaf-keeps-color",
                    });
                }
                Ok(())
            }
            structure::NodeStatus::Internal => {
                let (lc, rc) = structure::gt_children(inst, v).expect("internal");
                if outputs[v] == outputs[lc] || outputs[v] == outputs[rc] {
                    Ok(())
                } else {
                    Err(Violation {
                        node: v,
                        rule: "3.4:internal-matches-child",
                    })
                }
            }
        }
    }
}

/// The deterministic `O(log n)`-distance solver of Proposition 3.9.
///
/// An internal node BFS-explores its `G_T`-descendants level by level
/// (left-to-right within a level, so the scan order is lexicographic in the
/// LC/RC path), stops at the first leaf — the *left-most nearest* descendant
/// leaf — and copies its input color. Lemma 3.8 bounds the search depth by
/// `log n` on every input, so the distance cost is `O(log n)` while the
/// volume may be `Θ(n)` (the whole point of the construction).
#[derive(Clone, Copy, Debug, Default)]
pub struct DistanceSolver;

impl QueryAlgorithm for DistanceSolver {
    type Output = Color;

    fn name(&self) -> &'static str {
        "leaf-coloring/distance"
    }

    fn fallback(&self) -> Color {
        Color::R
    }

    fn run(
        &self,
        oracle: &mut dyn Oracle,
        scratch: &mut SolverScratch,
    ) -> Result<Color, QueryError> {
        let mut xp = Explorer::new(oracle, scratch);
        let root = xp.root();
        if !xp.is_internal(&root)? {
            // Leaf or inconsistent: keep the input color.
            return Ok(root.label.color.unwrap_or(Color::R));
        }
        // BFS over G_T descendants; children of internal nodes are internal
        // or leaves, so the first non-internal node found in level order is
        // the left-most nearest descendant leaf. De-duplication is sound
        // because in-degree in G_T is at most one (Observation 3.7): apart
        // from walking around the unique cycle — which only revisits nodes
        // at strictly larger depth — each node is reached by a unique path.
        let mut frontier = vec![root];
        xp.start_search(root.node);
        // A leaf exists within depth log n on every input (Lemma 3.8); the
        // explicit cap keeps adversarial inputs from running forever.
        let cap = usize::BITS - (xp.n().max(2) - 1).leading_zeros() + 2;
        for _depth in 0..=cap {
            let mut next = Vec::new();
            for v in &frontier {
                match xp.gt_children(v)? {
                    None => {
                        // First non-internal in level order: the chosen leaf.
                        return Ok(v.label.color.unwrap_or(Color::R));
                    }
                    Some((lc, rc)) => {
                        for c in [lc, rc] {
                            if xp.mark(c.node) {
                                next.push(c);
                            }
                        }
                    }
                }
            }
            frontier = next;
            if frontier.is_empty() {
                break;
            }
        }
        // No leaf within the cap — malformed instance; produce the fallback.
        Ok(self.fallback())
    }
}

/// `RWtoLeaf` (Algorithm 1): the randomized `O(log n)`-volume solver of
/// Proposition 3.10.
///
/// An internal node performs a downward random walk in `G_T`, steering at
/// each node `w` by `r_w(0)` — the *node's own* first random bit, so every
/// walk passing through `w` takes the same turn and all walks through `w`
/// reach the same leaf. If the walk returns to its starting node (the
/// pseudo-tree cycle), the flipped bit `1 − r_{v_0}(0)` routes it off the
/// cycle. Each step crosses a "good" (subtree-halving) edge with probability
/// ≥ 1/2, so the walk reaches a leaf within `O(log n)` steps w.h.p.
/// (negative-binomial tail, Lemma 2.12).
#[derive(Clone, Copy, Debug)]
pub struct RwToLeaf {
    /// Step cap as a multiple of `log₂ n` (the paper's analysis uses 16;
    /// truncated walks output the fallback color, Remark 3.11).
    pub step_factor: u32,
}

impl Default for RwToLeaf {
    fn default() -> Self {
        Self { step_factor: 32 }
    }
}

impl QueryAlgorithm for RwToLeaf {
    type Output = Color;

    fn name(&self) -> &'static str {
        "leaf-coloring/rw-to-leaf"
    }

    fn fold_identity(&self, h: &mut vc_ident::IdHasher) {
        h.text(self.name());
        h.word(u64::from(self.step_factor));
    }

    fn fallback(&self) -> Color {
        Color::R
    }

    fn run(
        &self,
        oracle: &mut dyn Oracle,
        scratch: &mut SolverScratch,
    ) -> Result<Color, QueryError> {
        let mut xp = Explorer::new(oracle, scratch);
        let v0 = xp.root();
        let log_n = (usize::BITS - (xp.n().max(2) - 1).leading_zeros()).max(1);
        // Saturating: any `u32` factor is a valid configuration.
        let cap = self.step_factor.saturating_mul(log_n);
        let mut cur = v0;
        let mut revisited = false;
        for _ in 0..cap {
            if !xp.is_internal(&cur)? {
                // Leaf or inconsistent: its input color is the answer.
                return Ok(cur.label.color.unwrap_or(Color::R));
            }
            let base = xp.first_bit(cur.node)?;
            let b = if cur.node == v0.node && revisited {
                !base
            } else {
                base
            };
            if cur.node == v0.node {
                revisited = true;
            }
            let (lc, rc) = xp.gt_children(&cur)?.expect("internal");
            cur = if b { rc } else { lc };
        }
        // Truncated (Remark 3.11): arbitrary output.
        Ok(self.fallback())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lcl::{check_solution, count_violations};
    use vc_graph::gen;
    use vc_model::run::{run_all, RunConfig};
    use vc_model::{Budget, RandomTape, StartSelection};

    fn config_with_tape(seed: u64) -> RunConfig {
        RunConfig {
            tape: Some(RandomTape::private(seed)),
            ..RunConfig::default()
        }
    }

    #[test]
    fn checker_accepts_uniform_coloring_on_complete_tree() {
        let inst = gen::complete_binary_tree(3, Color::B, Color::B);
        let outputs = vec![Color::B; inst.n()];
        assert!(check_solution(&LeafColoring, &inst, &outputs).is_ok());
    }

    #[test]
    fn checker_rejects_wrong_leaf_color() {
        let inst = gen::complete_binary_tree(2, Color::R, Color::B);
        let mut outputs = vec![Color::B; inst.n()];
        outputs[3] = Color::R; // a leaf flips away from its input color
        let err = check_solution(&LeafColoring, &inst, &outputs).unwrap_err();
        assert_eq!(err.rule, "3.4:leaf-keeps-color");
        assert_eq!(err.node, 3);
    }

    #[test]
    fn checker_rejects_internal_matching_no_child() {
        let inst = gen::complete_binary_tree(2, Color::R, Color::B);
        let mut outputs = vec![Color::B; inst.n()];
        outputs[0] = Color::R; // root's children both output B
        let err = check_solution(&LeafColoring, &inst, &outputs).unwrap_err();
        assert_eq!(err.rule, "3.4:internal-matches-child");
    }

    #[test]
    fn checker_requires_input_colors() {
        let mut inst = gen::complete_binary_tree(1, Color::R, Color::B);
        inst.labels[1].color = None;
        let outputs = vec![Color::B; inst.n()];
        let err = check_solution(&LeafColoring, &inst, &outputs).unwrap_err();
        assert_eq!(err.rule, "3.4:missing-input-color");
    }

    #[test]
    fn distance_solver_on_complete_tree() {
        // Hidden-leaf-color instance of Proposition 3.12: unique solution is
        // the leaf color everywhere.
        let inst = gen::complete_binary_tree(5, Color::R, Color::B);
        let report = run_all(&inst, &DistanceSolver, &RunConfig::default()).unwrap();
        let outputs = report.complete_outputs().unwrap();
        assert!(outputs.iter().all(|&c| c == Color::B));
        assert!(check_solution(&LeafColoring, &inst, &outputs).is_ok());
        // Distance is the tree depth from the root; volume is Θ(n) there.
        let root_rec = &report.records[0];
        assert_eq!(root_rec.distance, Some(5));
        assert!(root_rec.volume > inst.n() / 2);
    }

    #[test]
    fn distance_solver_on_random_trees() {
        for seed in 0..5 {
            let inst = gen::random_full_binary_tree(150, seed);
            let report = run_all(&inst, &DistanceSolver, &RunConfig::default()).unwrap();
            let outputs = report.complete_outputs().unwrap();
            assert!(
                check_solution(&LeafColoring, &inst, &outputs).is_ok(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn distance_solver_on_pseudo_trees_with_cycles() {
        for seed in 0..5 {
            let inst = gen::pseudo_tree(120, 7, seed);
            let report = run_all(&inst, &DistanceSolver, &RunConfig::default()).unwrap();
            let outputs = report.complete_outputs().unwrap();
            assert!(
                check_solution(&LeafColoring, &inst, &outputs).is_ok(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn rw_to_leaf_valid_on_random_trees() {
        for seed in 0..5 {
            let inst = gen::random_full_binary_tree(150, seed);
            let report = run_all(&inst, &RwToLeaf::default(), &config_with_tape(seed)).unwrap();
            let outputs = report.complete_outputs().unwrap();
            assert!(
                check_solution(&LeafColoring, &inst, &outputs).is_ok(),
                "seed {seed}"
            );
            assert_eq!(report.truncated(), 0);
        }
    }

    #[test]
    fn rw_to_leaf_valid_on_cycles() {
        for seed in 0..5 {
            let inst = gen::pseudo_tree(150, 9, seed);
            let report =
                run_all(&inst, &RwToLeaf::default(), &config_with_tape(100 + seed)).unwrap();
            let outputs = report.complete_outputs().unwrap();
            assert!(
                check_solution(&LeafColoring, &inst, &outputs).is_ok(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn huge_step_factors_saturate_the_step_cap() {
        // log₂ n = 12 here, so both factors overflow a `u32` step cap.
        let inst = gen::random_full_binary_tree(4095, 3);
        let config = config_with_tape(3);
        let default = run_all(&inst, &RwToLeaf::default(), &config).unwrap();
        assert_eq!(default.truncated(), 0);
        for step_factor in [1 << 30, u32::MAX] {
            let report = run_all(&inst, &RwToLeaf { step_factor }, &config).unwrap();
            assert_eq!(report.outputs, default.outputs, "step_factor {step_factor}");
            assert_eq!(report.records, default.records, "step_factor {step_factor}");
            let outputs = report.complete_outputs().unwrap();
            assert!(check_solution(&LeafColoring, &inst, &outputs).is_ok());
        }
    }

    #[test]
    fn rw_to_leaf_volume_is_logarithmic() {
        let inst = gen::complete_binary_tree(9, Color::R, Color::B); // n = 1023
        let report = run_all(&inst, &RwToLeaf::default(), &config_with_tape(7)).unwrap();
        let s = report.summary();
        // Each step costs O(1) queries; whp the walk is ≤ 16 log n long.
        assert!(
            s.max_volume < 60 * 10,
            "volume should be O(log n), got {}",
            s.max_volume
        );
        assert!(s.max_volume < inst.n() / 2);
    }

    #[test]
    fn rw_to_leaf_under_budget_truncates_gracefully() {
        let inst = gen::complete_binary_tree(6, Color::R, Color::B);
        let config = RunConfig {
            tape: Some(RandomTape::private(3)),
            budget: Budget::volume(4),
            starts: StartSelection::All,
            exact_distance: true,
        };
        let report = run_all(&inst, &RwToLeaf::default(), &config).unwrap();
        // Many executions get truncated and output the fallback; the
        // labeling is then (almost surely) invalid — which is the point of
        // the truncation experiments.
        assert!(report.truncated() > 0);
        let outputs = report.complete_outputs().unwrap();
        assert!(count_violations(&LeafColoring, &inst, &outputs) > 0);
    }

    #[test]
    fn walks_agree_along_their_path() {
        // All nodes on the walk from the root output the same color as the
        // leaf the walk reaches — the coupling through r_w(0).
        let inst = gen::random_full_binary_tree(80, 2);
        let report = run_all(&inst, &RwToLeaf::default(), &config_with_tape(2)).unwrap();
        let outputs = report.complete_outputs().unwrap();
        assert!(check_solution(&LeafColoring, &inst, &outputs).is_ok());
    }

    #[test]
    fn secret_randomness_still_solves_from_each_root() {
        // §7.4: with secret randomness the walk can still use the *root's*
        // bits... but not other nodes' bits, so RWtoLeaf as written fails on
        // other nodes' bits and falls back. This documents the gap.
        let inst = gen::random_full_binary_tree(60, 4);
        let config = RunConfig {
            tape: Some(RandomTape::secret(4)),
            ..RunConfig::default()
        };
        let report = run_all(&inst, &RwToLeaf::default(), &config).unwrap();
        assert!(report.truncated() > 0, "RWtoLeaf needs non-secret bits");
    }
}
