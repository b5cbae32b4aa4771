//! Classic reference LCLs for the landscape of Figures 1–2.
//!
//! The paper's preliminary observations (§1.2) place problems in four
//! classes. Classes A and B are already well understood; we implement one
//! representative of each so the landscape benches have measured points
//! below the `Ω(log n)` region:
//!
//! * [`TrivialLabel`] — class A: constant distance and volume.
//! * [`CycleColoring`] + [`ColeVishkin`] — class B: 3-coloring a
//!   consistently port-numbered directed cycle in `Θ(log* n)` distance *and*
//!   volume (Cole–Vishkin color reduction \[15\], the example given for the
//!   class-B collapse in §1.2).

use crate::lcl::{Lcl, Violation};
use vc_graph::{Instance, Port};
use vc_model::oracle::{follow, NodeView, Oracle, QueryError};
use vc_model::run::QueryAlgorithm;
use vc_model::SolverScratch;

/// Class-A reference problem: every node outputs the parity of its degree.
///
/// Checkable with radius 0 and solvable with volume 1.
#[derive(Clone, Copy, Debug, Default)]
pub struct TrivialLabel;

impl Lcl for TrivialLabel {
    type Output = bool;

    fn name(&self) -> String {
        "DegreeParity".into()
    }

    fn check_radius(&self) -> u32 {
        0
    }

    fn check_node(&self, inst: &Instance, outputs: &[bool], v: usize) -> Result<(), Violation> {
        if outputs[v] == (inst.graph.degree(v) % 2 == 1) {
            Ok(())
        } else {
            Err(Violation {
                node: v,
                rule: "trivial:degree-parity",
            })
        }
    }
}

/// The constant-time solver for [`TrivialLabel`].
#[derive(Clone, Copy, Debug, Default)]
pub struct TrivialSolver;

impl QueryAlgorithm for TrivialSolver {
    type Output = bool;

    fn name(&self) -> &'static str {
        "classic/trivial"
    }

    fn fallback(&self) -> bool {
        false
    }

    fn run(&self, oracle: &mut dyn Oracle, _: &mut SolverScratch) -> Result<bool, QueryError> {
        Ok(oracle.root().degree % 2 == 1)
    }
}

/// 3-coloring of a consistently port-numbered directed cycle (port 1 =
/// successor, port 2 = predecessor): the canonical class-B LCL.
#[derive(Clone, Copy, Debug, Default)]
pub struct CycleColoring;

impl Lcl for CycleColoring {
    type Output = u8;

    fn name(&self) -> String {
        "Cycle3Coloring".into()
    }

    fn check_radius(&self) -> u32 {
        1
    }

    fn check_node(&self, inst: &Instance, outputs: &[u8], v: usize) -> Result<(), Violation> {
        if outputs[v] > 2 {
            return Err(Violation {
                node: v,
                rule: "cv:palette",
            });
        }
        let succ = inst.graph.neighbor(v, Port::new(1)).ok_or(Violation {
            node: v,
            rule: "cv:not-a-cycle",
        })?;
        if outputs[v] == outputs[succ] {
            return Err(Violation {
                node: v,
                rule: "cv:proper",
            });
        }
        Ok(())
    }
}

/// One Cole–Vishkin color-reduction step: given a node's color `x` and its
/// successor's color `y` (`x ≠ y`), produce `2j + bit_j(x)` where `j` is the
/// lowest bit position where they differ. Reduces `b`-bit palettes to
/// `2b`-value palettes while preserving properness.
fn cv_step(x: u64, y: u64) -> u64 {
    debug_assert_ne!(x, y, "Cole-Vishkin needs properly colored input");
    let j = (x ^ y).trailing_zeros() as u64;
    2 * j + ((x >> j) & 1)
}

/// The Cole–Vishkin solver: `Θ(log* n)` distance *and* volume.
///
/// With 64-bit identifiers, four reduction iterations shrink the palette to
/// six colors (`64 → 2·6+1 ≤ 13 → 2·3+1 ≤ 8 → 2·2+1 ≤ 6 → 6`); three final
/// rounds recolor classes 3, 4, 5 greedily. A node therefore needs the
/// identifiers of a window of 7 successors and 3 predecessors — the
/// `O(log* n)` neighborhood (constant for fixed-width identifiers, and the
/// measured class for the landscape figures).
#[derive(Clone, Copy, Debug, Default)]
pub struct ColeVishkin;

/// Number of CV iterations bringing `u64` identifiers to 6 colors.
const CV_ITERS: usize = 4;
/// Reduction rounds removing colors 3, 4, 5.
const REDUCE_ROUNDS: usize = 3;

impl ColeVishkin {
    /// Computes the final colors for a window of raw identifiers. Entry `i`
    /// of the result is only meaningful if the window extends at least
    /// `CV_ITERS + REDUCE_ROUNDS - r` beyond it; callers use the center.
    fn reduce(window: &[u64]) -> Vec<u64> {
        // CV iterations: color[i] <- step(color[i], color[i+1]).
        let mut colors: Vec<u64> = window.to_vec();
        for _ in 0..CV_ITERS {
            colors = colors.windows(2).map(|w| cv_step(w[0], w[1])).collect();
        }
        // Greedy removal of colors 3, 4, 5: a node of the removed class
        // picks the smallest color unused by both neighbors.
        for removed in 3..(3 + REDUCE_ROUNDS as u64) {
            let prev = colors.clone();
            for i in 1..prev.len() - 1 {
                if prev[i] == removed {
                    colors[i] = (0..3)
                        .find(|c| *c != prev[i - 1] && *c != prev[i + 1])
                        .expect("three colors suffice on a path");
                }
            }
            // Trim the boundary entries, which lack context.
            colors = colors[1..colors.len() - 1].to_vec();
        }
        colors
    }
}

impl QueryAlgorithm for ColeVishkin {
    type Output = u8;

    fn name(&self) -> &'static str {
        "classic/cole-vishkin"
    }

    fn fallback(&self) -> u8 {
        0
    }

    fn run(&self, oracle: &mut dyn Oracle, _: &mut SolverScratch) -> Result<u8, QueryError> {
        let root = oracle.root();
        // Window of identifiers at offsets -REDUCE_ROUNDS ..= REDUCE_ROUNDS + CV_ITERS.
        let fwd_len = REDUCE_ROUNDS + CV_ITERS;
        let mut ids = vec![root.id];
        let mut cur: NodeView = root;
        for _ in 0..REDUCE_ROUNDS {
            let prev =
                follow(oracle, &cur, Some(Port::new(2)))?.ok_or(QueryError::AdversaryRefused)?;
            ids.insert(0, prev.id);
            cur = prev;
        }
        cur = root;
        for _ in 0..fwd_len {
            let next =
                follow(oracle, &cur, Some(Port::new(1)))?.ok_or(QueryError::AdversaryRefused)?;
            ids.push(next.id);
            cur = next;
        }
        // After CV_ITERS + REDUCE_ROUNDS reductions the window shrinks to a
        // single entry: the root's final color.
        let colors = Self::reduce(&ids);
        debug_assert_eq!(colors.len(), 1);
        Ok(colors[0] as u8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lcl::check_solution;
    use vc_graph::gen;
    use vc_model::run::{run_all, RunConfig};

    #[test]
    fn trivial_problem_roundtrip() {
        let inst = gen::complete_binary_tree(3, vc_graph::Color::R, vc_graph::Color::B);
        let report = run_all(&inst, &TrivialSolver, &RunConfig::default()).unwrap();
        let outputs = report.complete_outputs().unwrap();
        assert!(check_solution(&TrivialLabel, &inst, &outputs).is_ok());
        assert_eq!(report.summary().max_volume, 1);
        assert_eq!(report.summary().max_distance, 0);
    }

    #[test]
    fn cv_step_preserves_properness() {
        // On any properly colored pair, outputs of adjacent applications
        // differ (classic CV invariant) — spot-check on a path of ids.
        let ids = [12u64, 7, 33, 180, 2, 99];
        let stepped: Vec<u64> = ids.windows(2).map(|w| cv_step(w[0], w[1])).collect();
        for w in stepped.windows(2) {
            assert_ne!(w[0], w[1]);
        }
    }

    #[test]
    fn cole_vishkin_three_colors_cycles() {
        for n in [3usize, 5, 8, 64, 257] {
            for seed in 0..3 {
                let inst = gen::directed_cycle(n, seed);
                let report = run_all(&inst, &ColeVishkin, &RunConfig::default()).unwrap();
                let outputs = report.complete_outputs().unwrap();
                let check = check_solution(&CycleColoring, &inst, &outputs);
                assert!(check.is_ok(), "n={n} seed={seed}: {check:?}");
                assert!(outputs.iter().all(|&c| c <= 2));
            }
        }
    }

    #[test]
    fn cole_vishkin_costs_are_constant_in_n() {
        let small = run_all(
            &gen::directed_cycle(16, 1),
            &ColeVishkin,
            &RunConfig::default(),
        )
        .unwrap();
        let large = run_all(
            &gen::directed_cycle(4096, 1),
            &ColeVishkin,
            &RunConfig::default(),
        )
        .unwrap();
        assert_eq!(
            small.summary().max_volume,
            large.summary().max_volume,
            "volume is O(log* n) = constant for u64 ids"
        );
        assert_eq!(large.summary().max_volume, 11); // 1 + 3 back + 7 forward
        assert_eq!(large.summary().max_distance, 7);
    }

    #[test]
    fn checker_rejects_monochrome() {
        let inst = gen::directed_cycle(5, 2);
        let outputs = vec![1u8; 5];
        let err = check_solution(&CycleColoring, &inst, &outputs).unwrap_err();
        assert_eq!(err.rule, "cv:proper");
        let outputs = vec![7u8; 5];
        let err = check_solution(&CycleColoring, &inst, &outputs).unwrap_err();
        assert_eq!(err.rule, "cv:palette");
    }
}
