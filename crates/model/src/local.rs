//! Ball gathering and the LOCAL-model view (Remark 2.3).
//!
//! A distance-`T` algorithm in the LOCAL model is a function of the
//! radius-`T` neighborhood `N_v(T)`. In the query model it corresponds to an
//! exhaustive BFS: query every port of every node within distance `T - 1`.
//! [`gather_ball`] performs that BFS against any [`Oracle`], and
//! [`LocalAlgorithm`] + [`LocalAdapter`] package "gather then map" strategies
//! as [`QueryAlgorithm`]s.

use crate::oracle::{NodeView, Oracle, QueryError, SolverScratch};
use crate::run::QueryAlgorithm;
use std::collections::HashMap;
use vc_graph::Port;

/// A gathered radius-`r` ball: the views, BFS depths and discovered local
/// adjacency around the initiating node.
#[derive(Clone, Debug)]
pub struct Ball {
    root: usize,
    views: HashMap<usize, NodeView>,
    depth: HashMap<usize, u32>,
    /// `(node, port index) -> neighbor` for every queried port.
    edges: HashMap<(usize, u8), usize>,
    order: Vec<usize>,
}

impl Ball {
    /// The initiating node.
    pub fn root(&self) -> usize {
        self.root
    }

    /// Number of gathered nodes.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the ball contains only the root.
    pub fn is_empty(&self) -> bool {
        self.order.len() <= 1
    }

    /// Gathered nodes in BFS order.
    pub fn nodes(&self) -> &[usize] {
        &self.order
    }

    /// The view of a gathered node.
    pub fn view(&self, node: usize) -> Option<&NodeView> {
        self.views.get(&node)
    }

    /// BFS depth of a gathered node.
    pub fn depth(&self, node: usize) -> Option<u32> {
        self.depth.get(&node).copied()
    }

    /// The neighbor of `node` behind `port`, if that port was queried while
    /// gathering (true for every node strictly inside the ball).
    pub fn neighbor(&self, node: usize, port: Port) -> Option<usize> {
        self.edges.get(&(node, port.number())).copied()
    }

    /// Follows an optional port label within the ball, mirroring
    /// [`vc_graph::Instance::resolve`]: `⊥`, out-of-range ports and
    /// unqueried ports yield `None`.
    pub fn follow(&self, node: usize, port: Option<Port>) -> Option<usize> {
        let view = self.views.get(&node)?;
        let p = port?;
        if p.index() >= view.degree {
            return None;
        }
        self.neighbor(node, p)
    }
}

/// BFS-gathers the radius-`radius` ball around the oracle's root, querying
/// every port of every node at depth `< radius`.
///
/// # Errors
///
/// Propagates oracle errors (budget exhaustion, adversary refusal).
pub fn gather_ball<O: Oracle + ?Sized>(oracle: &mut O, radius: u32) -> Result<Ball, QueryError> {
    let root = oracle.root();
    let mut ball = Ball {
        root: root.node,
        views: HashMap::from([(root.node, root)]),
        depth: HashMap::from([(root.node, 0)]),
        edges: HashMap::new(),
        order: vec![root.node],
    };
    let mut frontier = vec![root.node];
    let mut d = 0;
    while d < radius && !frontier.is_empty() {
        let mut next = Vec::new();
        for v in frontier {
            let deg = ball.views[&v].degree;
            for p in 1..=deg as u8 {
                let w = oracle.query(v, Port::new(p))?;
                ball.edges.insert((v, p), w.node);
                if let std::collections::hash_map::Entry::Vacant(e) = ball.views.entry(w.node) {
                    e.insert(w);
                    ball.depth.insert(w.node, d + 1);
                    ball.order.push(w.node);
                    next.push(w.node);
                }
            }
        }
        frontier = next;
        d += 1;
    }
    Ok(ball)
}

/// A LOCAL-model algorithm: choose a radius from `n`, then map the gathered
/// ball to an output (Remark 2.3).
pub trait LocalAlgorithm {
    /// The local output type.
    type Output: Clone;

    /// Human-readable name.
    fn name(&self) -> &'static str {
        "local-algorithm"
    }

    /// Radius to gather on an `n`-node instance.
    fn radius(&self, n: usize) -> u32;

    /// Maps the gathered ball to the initiating node's output.
    fn compute(&self, ball: &Ball, n: usize) -> Self::Output;

    /// Output on truncation.
    fn fallback(&self) -> Self::Output;
}

/// Adapter running a [`LocalAlgorithm`] in the query model.
#[derive(Clone, Copy, Debug)]
pub struct LocalAdapter<L>(pub L);

impl<L: LocalAlgorithm> QueryAlgorithm for LocalAdapter<L> {
    type Output = L::Output;

    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn fallback(&self) -> L::Output {
        self.0.fallback()
    }

    fn run(&self, oracle: &mut dyn Oracle, _: &mut SolverScratch) -> Result<L::Output, QueryError> {
        let n = oracle.n();
        let ball = gather_ball(oracle, self.0.radius(n))?;
        Ok(self.0.compute(&ball, n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::Budget;
    use crate::oracle::Execution;
    use crate::run::{run_all, RunConfig};
    use vc_graph::{gen, Color};

    #[test]
    fn gather_ball_covers_radius() {
        let inst = gen::complete_binary_tree(3, Color::R, Color::B);
        let mut ex = Execution::new(&inst, 0, None, Budget::unlimited());
        let ball = gather_ball(&mut ex, 2).unwrap();
        // Root + 2 children + 4 grandchildren.
        assert_eq!(ball.len(), 7);
        assert_eq!(ball.depth(0), Some(0));
        assert_eq!(ball.depth(3), Some(2));
        assert_eq!(ball.depth(7), None);
        assert!(!ball.is_empty());
        assert_eq!(ball.root(), 0);
    }

    #[test]
    fn ball_adjacency_navigation() {
        let inst = gen::complete_binary_tree(3, Color::R, Color::B);
        let mut ex = Execution::new(&inst, 0, None, Budget::unlimited());
        let ball = gather_ball(&mut ex, 2).unwrap();
        assert_eq!(ball.neighbor(0, Port::new(1)), Some(1));
        let v1 = ball.view(1).unwrap();
        assert_eq!(ball.follow(1, v1.label.left_child), Some(3));
        assert_eq!(ball.follow(1, None), None);
        // Nodes on the boundary (depth == radius) were not queried.
        assert_eq!(ball.neighbor(3, Port::new(2)), None);
    }

    #[test]
    fn radius_zero_is_just_root() {
        let inst = gen::complete_binary_tree(2, Color::R, Color::B);
        let mut ex = Execution::new(&inst, 4, None, Budget::unlimited());
        let ball = gather_ball(&mut ex, 0).unwrap();
        assert_eq!(ball.len(), 1);
        assert!(ball.is_empty());
        assert_eq!(ball.nodes(), &[4]);
    }

    /// LOCAL algorithm: output the max identifier within radius 1.
    struct MaxIdRadius1;

    impl LocalAlgorithm for MaxIdRadius1 {
        type Output = u64;

        fn radius(&self, _n: usize) -> u32 {
            1
        }

        fn compute(&self, ball: &Ball, _n: usize) -> u64 {
            ball.nodes()
                .iter()
                .map(|&v| ball.view(v).unwrap().id)
                .max()
                .unwrap()
        }

        fn fallback(&self) -> u64 {
            0
        }
    }

    #[test]
    fn local_adapter_runs_in_query_model() {
        let inst = gen::complete_binary_tree(2, Color::R, Color::B);
        let report = run_all(&inst, &LocalAdapter(MaxIdRadius1), &RunConfig::default()).unwrap();
        let outs = report.complete_outputs().unwrap();
        // Node ids are index+1; node 0's radius-1 ball = {0,1,2} -> id 3.
        assert_eq!(outs[0], 3);
        // A leaf sees itself and its parent.
        assert_eq!(outs[3], 4);
        // Volume of a radius-1 ball at the root is 3.
        assert_eq!(report.records[0].volume, 3);
        assert_eq!(report.records[0].distance, Some(1));
    }
}
