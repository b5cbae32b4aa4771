//! The distance lower bound of Proposition 3.12.
//!
//! Fix the complete binary tree of depth `k` with red internal nodes, and
//! draw the (uniform) leaf color `χ₀ ∈ {R, B}`. The unique valid solution to
//! LeafColoring outputs `χ₀` everywhere, so an execution initiated at the
//! root that never reaches a leaf — i.e. any algorithm with distance cost
//! `< k` — has no information about `χ₀` and is correct with probability at
//! most 1/2 (by Yao's principle this extends to randomized algorithms).

use vc_graph::{gen, Color};
use vc_ident::GAMMA;
use vc_model::run::{run_from, QueryAlgorithm, RunConfig};
use vc_model::{Budget, RandomTape, StartSelection};

/// Result of the hidden-leaf experiment.
#[derive(Clone, Debug, PartialEq)]
pub struct HiddenLeafReport {
    /// Tree depth `k` (so `n = 2^{k+1} − 1`).
    pub depth: u32,
    /// The distance budget the algorithm was restricted to.
    pub distance_budget: u32,
    /// Number of random instances drawn.
    pub trials: usize,
    /// Fraction of trials in which the root answered `χ₀` correctly.
    pub success_rate: f64,
}

/// Runs `algo` from the root of the Proposition 3.12 distribution `trials`
/// times under a distance budget, reporting the empirical success rate.
///
/// With `distance_budget ≥ depth` any correct algorithm succeeds always;
/// with `distance_budget < depth` the rate collapses towards 1/2.
pub fn hidden_leaf_experiment<A>(
    algo: &A,
    depth: u32,
    distance_budget: u32,
    trials: usize,
    seed: u64,
) -> HiddenLeafReport
where
    A: QueryAlgorithm<Output = Color>,
{
    let mut successes = 0usize;
    for t in 0..trials {
        // Uniform hidden color: split the trials evenly and shuffle via the
        // tape seed so deterministic algorithms cannot exploit the order.
        let chi0 = if seed.wrapping_add(t as u64).wrapping_mul(GAMMA) & (1 << 40) == 0 {
            Color::R
        } else {
            Color::B
        };
        let inst = gen::complete_binary_tree(depth, Color::R, chi0);
        let config = RunConfig {
            tape: Some(RandomTape::private(seed.wrapping_add(1000 + t as u64))),
            budget: Budget::distance(distance_budget),
            starts: StartSelection::All,
            exact_distance: false,
        };
        let (out, _) = run_from(&inst, algo, 0, &config);
        if out == chi0 {
            successes += 1;
        }
    }
    HiddenLeafReport {
        depth,
        distance_budget,
        trials,
        success_rate: successes as f64 / trials.max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vc_core::problems::leaf_coloring::{DistanceSolver, RwToLeaf};

    #[test]
    fn full_distance_always_succeeds() {
        let report = hidden_leaf_experiment(&DistanceSolver, 6, 6, 40, 1);
        assert_eq!(report.success_rate, 1.0);
    }

    #[test]
    fn truncated_distance_succeeds_about_half_the_time() {
        // Distance budget k−1: the root cannot see any leaf.
        let report = hidden_leaf_experiment(&DistanceSolver, 6, 5, 200, 2);
        assert!(
            (0.3..=0.7).contains(&report.success_rate),
            "rate {}",
            report.success_rate
        );
    }

    #[test]
    fn randomized_walker_is_equally_blind() {
        // RWtoLeaf restricted below the depth also cannot reach a leaf.
        let report = hidden_leaf_experiment(&RwToLeaf::default(), 6, 5, 200, 3);
        assert!(
            (0.3..=0.7).contains(&report.success_rate),
            "rate {}",
            report.success_rate
        );
    }

    #[test]
    fn rw_to_leaf_with_full_budget_succeeds() {
        let report = hidden_leaf_experiment(&RwToLeaf::default(), 5, 31, 60, 4);
        assert_eq!(report.success_rate, 1.0);
    }
}
