//! The embedding machinery of Definitions 2.7–2.9 and Theorem 2.9,
//! instantiated for the BalancedTree lower bound (Proposition 4.9).
//!
//! The embedding `E(x, y)` is [`vc_graph::gen::disjointness_embedding`]: a
//! depth-`k` balanced-tree instance whose `i`-th leaf pair carries labels
//! depending jointly on `(x_i, y_i)`. The decision function `g` asks
//! whether the root's output is `(B, ⊥)`; by Lemma 4.7,
//! `g(E(x, y)) = disj(x, y)`, so `(E, g)` is an embedding of disjointness.
//!
//! In the two-party simulation, Alice (holding `x`) and Bob (holding `y`)
//! jointly simulate a query algorithm on `E(x, y)`. Every query has
//! communication cost 0 except the queries revealing a leaf from its parent
//! `v_i` — those cost 2 bits (exchange `x_i` and `y_i`); [`ChargingOracle`]
//! meters exactly that. Theorem 2.9 + Theorem 2.10 then give
//! `queries ≥ R(disj)/2 = Ω(N)`; empirically, any algorithm that decides
//! `g` is observed to pay `Ω(N)` chargeable bits.

use std::collections::HashSet;
use vc_graph::gen::BalancedTreeMeta;
use vc_graph::{Instance, Port};
use vc_model::oracle::{NodeView, Oracle, OracleStats, QueryError};
use vc_model::run::QueryAlgorithm;
use vc_model::{Budget, Execution, SolverScratch};

/// An oracle wrapper that meters the two-party communication cost of each
/// query per Definition 2.8: queries in a designated *chargeable* set cost
/// `bits_per_charged_query` bits; all others are free.
pub struct ChargingOracle<'o, O: Oracle> {
    inner: &'o mut O,
    chargeable: HashSet<(usize, Port)>,
    bits_per_charged_query: u64,
    bits: u64,
    charged_queries: u64,
}

impl<'o, O: Oracle> ChargingOracle<'o, O> {
    /// Wraps `inner`, charging `bits_per_charged_query` bits for each query
    /// in `chargeable`.
    pub fn new(
        inner: &'o mut O,
        chargeable: HashSet<(usize, Port)>,
        bits_per_charged_query: u64,
    ) -> Self {
        Self {
            inner,
            chargeable,
            bits_per_charged_query,
            bits: 0,
            charged_queries: 0,
        }
    }

    /// Total bits Alice and Bob exchanged.
    pub fn bits(&self) -> u64 {
        self.bits
    }

    /// Number of chargeable queries issued.
    pub fn charged_queries(&self) -> u64 {
        self.charged_queries
    }
}

impl<O: Oracle> Oracle for ChargingOracle<'_, O> {
    fn n(&self) -> usize {
        self.inner.n()
    }

    fn root(&self) -> NodeView {
        self.inner.root()
    }

    fn query(&mut self, from: usize, port: Port) -> Result<NodeView, QueryError> {
        let out = self.inner.query(from, port)?;
        if self.chargeable.contains(&(from, port)) {
            self.bits += self.bits_per_charged_query;
            self.charged_queries += 1;
        }
        Ok(out)
    }

    fn rand_bit(&mut self, node: usize) -> Result<bool, QueryError> {
        self.inner.rand_bit(node)
    }

    fn stats(&self) -> OracleStats {
        self.inner.stats()
    }
}

/// The chargeable query set of Proposition 4.9: the child queries
/// `query(v_i, LC(v_i))` and `query(v_i, RC(v_i))` of the depth-`(k−1)`
/// nodes — the only labels that depend on `(x, y)`.
pub fn chargeable_queries(inst: &Instance, meta: &BalancedTreeMeta) -> HashSet<(usize, Port)> {
    let mut set = HashSet::new();
    for &vi in &meta.penultimate {
        for p in [inst.labels[vi].left_child, inst.labels[vi].right_child]
            .into_iter()
            .flatten()
        {
            set.insert((vi, p));
        }
    }
    set
}

/// Result of a charged simulation.
#[derive(Clone, Debug, PartialEq)]
pub struct ChargedRun<O> {
    /// The algorithm's output at the root.
    pub output: O,
    /// Bits Alice and Bob exchanged (2 per leaf-revealing query).
    pub bits: u64,
    /// Chargeable queries issued.
    pub charged_queries: u64,
    /// Total queries issued.
    pub queries: u64,
    /// Volume used.
    pub volume: usize,
}

/// Simulates `algo` from the root of the embedded instance under two-party
/// cost accounting.
///
/// # Errors
///
/// Propagates the algorithm's oracle errors.
pub fn simulate_charged<A: QueryAlgorithm>(
    algo: &A,
    inst: &Instance,
    meta: &BalancedTreeMeta,
) -> Result<ChargedRun<A::Output>, QueryError> {
    let mut exec = Execution::new(inst, meta.root, None, Budget::unlimited());
    let mut charged = ChargingOracle::new(&mut exec, chargeable_queries(inst, meta), 2);
    let output = algo.run(&mut charged, &mut SolverScratch::new())?;
    let bits = charged.bits();
    let charged_queries = charged.charged_queries();
    let stats = exec.stats();
    Ok(ChargedRun {
        output,
        bits,
        charged_queries,
        queries: stats.queries,
        volume: stats.volume,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disjointness::{disj, promise_pair};
    use vc_core::output::{BtFlag, BtOutput};
    use vc_core::problems::balanced_tree::DistanceSolver;
    use vc_graph::gen;

    /// `g(E(x, y))`: does the BalancedTree solver declare the root balanced?
    fn g_of_embedding(x: &[bool], y: &[bool]) -> (bool, ChargedRun<BtOutput>) {
        let (inst, meta) = gen::disjointness_embedding(x, y);
        let run = simulate_charged(&DistanceSolver, &inst, &meta).expect("no budget");
        (run.output.flag == BtFlag::Balanced, run)
    }

    #[test]
    fn embedding_is_sound() {
        // Definition 2.7: g(E(x, y)) = disj(x, y) on promise inputs.
        for seed in 0..20 {
            for intersecting in [false, true] {
                let (x, y) = promise_pair(16, intersecting, seed);
                let (g, _) = g_of_embedding(&x, &y);
                assert_eq!(g, disj(&x, &y), "seed {seed} intersecting {intersecting}");
            }
        }
    }

    #[test]
    fn embedding_sound_on_arbitrary_inputs() {
        // Beyond the promise: exhaustive check for N = 4.
        for xa in 0..16u32 {
            for yb in 0..16u32 {
                let x: Vec<bool> = (0..4).map(|i| xa >> i & 1 == 1).collect();
                let y: Vec<bool> = (0..4).map(|i| yb >> i & 1 == 1).collect();
                let (g, _) = g_of_embedding(&x, &y);
                assert_eq!(g, disj(&x, &y), "x={x:?} y={y:?}");
            }
        }
    }

    #[test]
    fn deciding_disjointness_costs_linear_bits() {
        // The solver must examine every leaf pair on disjoint inputs: the
        // charged bits grow linearly in N (Theorem 2.9's premise).
        let mut previous = 0;
        for exp in 2..=6u32 {
            let n = 1usize << exp;
            let (x, y) = promise_pair(n, false, 7);
            let (g, run) = g_of_embedding(&x, &y);
            assert!(g);
            assert!(
                run.bits >= 2 * n as u64,
                "N={n}: bits {} below 2N",
                run.bits
            );
            assert!(run.bits > previous);
            previous = run.bits;
        }
    }

    #[test]
    fn charged_queries_are_the_leaf_queries() {
        let (x, y) = promise_pair(8, false, 1);
        let (_, run) = g_of_embedding(&x, &y);
        // Each v_i has two chargeable ports; re-queries may repeat them.
        assert!(run.charged_queries >= 16);
        assert_eq!(run.bits, 2 * run.charged_queries);
        assert!(run.queries >= run.charged_queries);
    }

    #[test]
    fn free_queries_cost_nothing() {
        let (inst, meta) = gen::balanced_tree_compatible(3);
        let mut exec = Execution::new(&inst, meta.root, None, Budget::unlimited());
        let mut charged = ChargingOracle::new(&mut exec, HashSet::new(), 2);
        // Query around: nothing is chargeable.
        let root = charged.root();
        let _ = charged.query(root.node, Port::new(1)).unwrap();
        assert_eq!(charged.bits(), 0);
        assert_eq!(charged.charged_queries(), 0);
    }
}
