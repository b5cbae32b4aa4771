//! Query-model exploration helpers shared by the solvers.
//!
//! Solvers repeatedly need the Definition 3.3 status of nodes, which in the
//! query model takes a handful of queries per node (follow both children and
//! check their parent back-pointers). [`Explorer`] wraps an oracle and the
//! run's [`SolverScratch`] so that each fact is established once per
//! execution.
//!
//! All solver state is flat and indexed by node handle. One scratch word per
//! handle packs three cached facts — internality, the first random bit and
//! the way-point lottery, each a known bit followed by its value bit — plus
//! the `RecursiveHTHC` memo as a 16-bit code in the high half. BFS
//! de-duplication uses the scratch's mark set, which every search empties
//! first. Nothing is hashed and nothing is allocated per start.

use vc_graph::Port;
use vc_model::oracle::{follow, NodeView, Oracle, QueryError};
use vc_model::SolverScratch;

/// Known bit of a cached fact; the value bit sits one above it.
const INTERNAL: u32 = 1;
const FIRST_BIT: u32 = 1 << 2;
const BERNOULLI: u32 = 1 << 4;
/// Set once the high half of the word holds a memo code.
const MEMO: u32 = 1 << 6;

/// An oracle wrapper with status caches, BFS marks, a memo slot per node and
/// Bernoulli sampling from the node's private bits.
pub struct Explorer<'o> {
    oracle: &'o mut dyn Oracle,
    scratch: &'o mut SolverScratch,
}

impl<'o> Explorer<'o> {
    /// Wraps an oracle, opening a new epoch of `scratch`: nothing an earlier
    /// execution cached is visible.
    pub fn new(oracle: &'o mut dyn Oracle, scratch: &'o mut SolverScratch) -> Self {
        scratch.begin();
        Self { oracle, scratch }
    }

    /// The number of nodes `n` (global input).
    pub fn n(&self) -> usize {
        self.oracle.n()
    }

    /// The initiating node's view.
    pub fn root(&self) -> NodeView {
        self.oracle.root()
    }

    /// Follows an optional port label; `⊥` and malformed ports give `None`.
    ///
    /// # Errors
    ///
    /// Propagates oracle errors (budget exhaustion etc.).
    pub fn follow(
        &mut self,
        from: &NodeView,
        port: Option<Port>,
    ) -> Result<Option<NodeView>, QueryError> {
        follow(self.oracle, from, port)
    }

    /// Whether `v` is internal per Definition 3.3, established with `O(1)`
    /// queries and cached.
    ///
    /// # Errors
    ///
    /// Propagates oracle errors.
    pub fn is_internal(&mut self, v: &NodeView) -> Result<bool, QueryError> {
        self.cached(v.node, INTERNAL, |xp| xp.compute_internal(v))
    }

    fn compute_internal(&mut self, v: &NodeView) -> Result<bool, QueryError> {
        let l = v.label;
        let (Some(lc_port), Some(rc_port)) = (l.left_child, l.right_child) else {
            return Ok(false);
        };
        if lc_port == rc_port || l.parent == Some(lc_port) || l.parent == Some(rc_port) {
            return Ok(false);
        }
        let Some(lc) = self.follow(v, Some(lc_port))? else {
            return Ok(false);
        };
        let Some(rc) = self.follow(v, Some(rc_port))? else {
            return Ok(false);
        };
        let back_lc = self.follow(&lc, lc.label.parent)?;
        if back_lc.map(|u| u.node) != Some(v.node) {
            return Ok(false);
        }
        let back_rc = self.follow(&rc, rc.label.parent)?;
        Ok(back_rc.map(|u| u.node) == Some(v.node))
    }

    /// Whether `v` is *consistent* (internal, or a leaf — i.e. its parent is
    /// internal; Definition 3.3).
    ///
    /// # Errors
    ///
    /// Propagates oracle errors.
    pub fn is_consistent(&mut self, v: &NodeView) -> Result<bool, QueryError> {
        if self.is_internal(v)? {
            return Ok(true);
        }
        match self.follow(v, v.label.parent)? {
            Some(p) => self.is_internal(&p),
            None => Ok(false),
        }
    }

    /// The `G_T` children `(LC(v), RC(v))` of an internal node; `None` if
    /// `v` is not internal.
    ///
    /// # Errors
    ///
    /// Propagates oracle errors.
    pub fn gt_children(
        &mut self,
        v: &NodeView,
    ) -> Result<Option<(NodeView, NodeView)>, QueryError> {
        if !self.is_internal(v)? {
            return Ok(None);
        }
        // Both children resolve: that is part of being internal.
        let lc = self.follow(v, v.label.left_child)?;
        Ok(lc.zip(self.follow(v, v.label.right_child)?))
    }

    /// The first bit `r_v(0)` of the node's private string — cached so that
    /// repeated visits observe the same value, as Algorithm 1 requires.
    ///
    /// # Errors
    ///
    /// Propagates oracle errors (e.g. secret randomness of other nodes).
    pub fn first_bit(&mut self, node: usize) -> Result<bool, QueryError> {
        self.cached(node, FIRST_BIT, |xp| xp.oracle.rand_bit(node))
    }

    /// Bernoulli(`p`) sample from the node's private bits, cached per node —
    /// the way-point lottery of Proposition 5.14 (footnote 3 requires all
    /// visitors to agree on the outcome, hence the node's own randomness).
    ///
    /// Uses 30 bits of the node's string on first evaluation.
    ///
    /// # Errors
    ///
    /// Propagates oracle errors.
    pub fn bernoulli(&mut self, node: usize, p: f64) -> Result<bool, QueryError> {
        self.cached(node, BERNOULLI, |xp| {
            let mut x = 0u32;
            for _ in 0..30 {
                x = (x << 1) | u32::from(xp.oracle.rand_bit(node)?);
            }
            Ok(x < (p.clamp(0.0, 1.0) * f64::from(1u32 << 30)) as u32)
        })
    }

    /// The fact whose known bit is `known` for `node`, computed by `f` on
    /// first use. A failed computation caches nothing.
    fn cached(
        &mut self,
        node: usize,
        known: u32,
        f: impl FnOnce(&mut Self) -> Result<bool, QueryError>,
    ) -> Result<bool, QueryError> {
        let word = *self.scratch.word(node);
        if word & known != 0 {
            return Ok(word & (known << 1) != 0);
        }
        let b = f(self)?;
        *self.scratch.word(node) |= if b { known | (known << 1) } else { known };
        Ok(b)
    }

    /// The memo code stored for `node` in this execution, if any.
    pub(crate) fn memo(&mut self, node: usize) -> Option<u16> {
        let word = *self.scratch.word(node);
        (word & MEMO != 0).then_some((word >> 16) as u16)
    }

    /// Stores `code` as the memo of `node`.
    pub(crate) fn set_memo(&mut self, node: usize, code: u16) {
        let word = self.scratch.word(node);
        *word = (*word & 0xFFFF) | MEMO | (u32::from(code) << 16);
    }

    /// Empties the BFS mark set and marks `root`; every search starts here.
    pub(crate) fn start_search(&mut self, root: usize) {
        self.scratch.clear_marks();
        self.scratch.mark(root);
    }

    /// Marks `node`; whether it was unmarked since the last
    /// [`Explorer::start_search`].
    pub(crate) fn mark(&mut self, node: usize) -> bool {
        self.scratch.mark(node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vc_graph::{gen, Color};
    use vc_model::{Budget, Execution, RandomTape};

    #[test]
    fn explorer_caches_status() {
        let inst = gen::complete_binary_tree(3, Color::R, Color::B);
        let mut ex = Execution::new(&inst, 0, None, Budget::unlimited());
        let mut scratch = SolverScratch::new();
        let mut xp = Explorer::new(&mut ex, &mut scratch);
        let root = xp.root();
        assert!(xp.is_internal(&root).unwrap());
        // Second call answers from cache: same result, no query.
        let queries = xp.oracle.stats().queries;
        assert!(xp.is_internal(&root).unwrap());
        assert_eq!(xp.oracle.stats().queries, queries);
        let lc = xp.follow(&root, root.label.left_child).unwrap().unwrap();
        assert_eq!(lc.node, 1);
        assert!(xp.is_consistent(&lc).unwrap());
    }

    #[test]
    fn a_new_explorer_sees_nothing_an_earlier_one_cached() {
        let inst = gen::complete_binary_tree(3, Color::R, Color::B);
        let mut scratch = SolverScratch::new();
        let mut ex = Execution::new(&inst, 0, None, Budget::unlimited());
        let mut xp = Explorer::new(&mut ex, &mut scratch);
        let root = xp.root();
        assert!(xp.is_internal(&root).unwrap());
        xp.set_memo(0, 0xBEEF);
        assert_eq!(xp.memo(0), Some(0xBEEF));
        assert!(xp.is_internal(&root).unwrap());
        assert_eq!(xp.oracle.stats().queries, 4, "the memo keeps the flags");
        let mut ex = Execution::new(&inst, 0, None, Budget::unlimited());
        let mut xp = Explorer::new(&mut ex, &mut scratch);
        assert_eq!(xp.memo(0), None);
        let root = xp.root();
        assert!(xp.is_internal(&root).unwrap());
        assert_eq!(xp.oracle.stats().queries, 4, "recomputed, not cached");
    }

    #[test]
    fn searches_start_with_only_their_root_marked() {
        let inst = gen::complete_binary_tree(1, Color::R, Color::B);
        let mut ex = Execution::new(&inst, 0, None, Budget::unlimited());
        let mut scratch = SolverScratch::new();
        let mut xp = Explorer::new(&mut ex, &mut scratch);
        xp.start_search(0);
        assert!(!xp.mark(0));
        assert!(xp.mark(1_000));
        assert!(!xp.mark(1_000));
        xp.start_search(1);
        assert!(xp.mark(0) && xp.mark(1_000) && !xp.mark(1));
    }

    #[test]
    fn leaf_is_consistent_but_not_internal() {
        let inst = gen::complete_binary_tree(2, Color::R, Color::B);
        let mut ex = Execution::new(&inst, 3, None, Budget::unlimited());
        let mut scratch = SolverScratch::new();
        let mut xp = Explorer::new(&mut ex, &mut scratch);
        let root = xp.root();
        assert!(!xp.is_internal(&root).unwrap());
        assert!(xp.is_consistent(&root).unwrap());
    }

    #[test]
    fn single_node_is_inconsistent() {
        let inst = gen::complete_binary_tree(0, Color::R, Color::B);
        let mut ex = Execution::new(&inst, 0, None, Budget::unlimited());
        let mut scratch = SolverScratch::new();
        let mut xp = Explorer::new(&mut ex, &mut scratch);
        let root = xp.root();
        assert!(!xp.is_consistent(&root).unwrap());
    }

    #[test]
    fn first_bit_is_stable() {
        let inst = gen::complete_binary_tree(2, Color::R, Color::B);
        let tape = RandomTape::private(11);
        let mut ex = Execution::new(&inst, 0, Some(tape), Budget::unlimited());
        let mut scratch = SolverScratch::new();
        let mut xp = Explorer::new(&mut ex, &mut scratch);
        let b1 = xp.first_bit(0).unwrap();
        let b2 = xp.first_bit(0).unwrap();
        assert_eq!(b1, b2);
        // And equals the tape's bit 0 for that node's id.
        assert_eq!(b1, tape.bit(inst.graph.id(0), 0));
    }

    #[test]
    fn bernoulli_extremes() {
        let inst = gen::complete_binary_tree(2, Color::R, Color::B);
        let tape = RandomTape::private(13);
        let mut scratch = SolverScratch::new();
        let mut ex = Execution::new(&inst, 0, Some(tape), Budget::unlimited());
        let mut xp = Explorer::new(&mut ex, &mut scratch);
        assert!(!xp.bernoulli(0, 0.0).unwrap());
        let mut ex2 = Execution::new(&inst, 1, Some(tape), Budget::unlimited());
        let mut xp2 = Explorer::new(&mut ex2, &mut scratch);
        assert!(xp2.bernoulli(1, 1.0).unwrap());
    }

    #[test]
    fn bernoulli_agrees_across_executions() {
        let inst = gen::complete_binary_tree(3, Color::R, Color::B);
        let tape = RandomTape::private(5);
        let p = 0.5;
        let mut scratch = SolverScratch::new();
        let mut ex1 = Execution::new(&inst, 1, Some(tape), Budget::unlimited());
        let mut xp1 = Explorer::new(&mut ex1, &mut scratch);
        let b1 = xp1.bernoulli(1, p).unwrap();
        let mut ex2 = Execution::new(&inst, 1, Some(tape), Budget::unlimited());
        let mut xp2 = Explorer::new(&mut ex2, &mut scratch);
        let b2 = xp2.bernoulli(1, p).unwrap();
        assert_eq!(b1, b2, "way-point lottery must be execution-independent");
    }
}
