//! The deterministic volume lower bound for LeafColoring
//! (Proposition 3.13).
//!
//! The process `P` interacts with an algorithm `A` started at a single node
//! `v₀`: every queried port is answered with a *fresh internal node* (red
//! input color, full tree labels), so `A` never meets a leaf. When `A`
//! halts with output `χ₀`, the process completes the revealed region into a
//! finite binary tree by appending leaves with input color `χ₁ = flip(χ₀)`
//! to every unassigned port. All leaves of the completed tree carry `χ₁`,
//! so every internal node — `v₀` included — must output `χ₁` in any valid
//! solution; `A`'s recorded answer `χ₀` is therefore wrong. Since the
//! completed tree has at most `3t + O(1)` nodes after `t` queries, any
//! deterministic algorithm with fewer than `n/3` queries is defeated.
//!
//! The adversary is sound against *deterministic* algorithms (it adapts to
//! the query sequence); running a randomized algorithm against it
//! demonstrates why adaptivity is not allowed in randomized lower bounds.

use std::collections::HashMap;
use vc_graph::{Color, GraphBuilder, GraphError, Instance, NodeLabel, Port};
use vc_model::oracle::{NodeView, Oracle, OracleStats, QueryError};
use vc_model::randomness::RandomTape;
use vc_model::run::QueryAlgorithm;
use vc_model::SolverScratch;

/// A node of the lazily grown world.
#[derive(Clone, Debug)]
struct AdvNode {
    label: NodeLabel,
    /// Neighbor behind each port (None = not yet assigned).
    ports: Vec<Option<usize>>,
}

/// The adaptive oracle implementing the process `P` of Proposition 3.13.
#[derive(Debug)]
pub struct LeafColoringAdversary {
    nodes: Vec<AdvNode>,
    visited: HashMap<usize, u32>,
    queries: u64,
    distance_upper: u32,
    /// The `n` reported to the algorithm.
    n_report: usize,
    /// Growth cap; exceeding it means the algorithm spent its volume budget.
    max_nodes: usize,
    tape: Option<RandomTape>,
    rand_cursor: HashMap<usize, u64>,
    random_bits: u64,
}

impl LeafColoringAdversary {
    /// Creates the adversary. The algorithm is told the graph has
    /// `n_report` nodes; the world refuses to grow past `max_nodes`.
    pub fn new(n_report: usize, max_nodes: usize) -> Self {
        // v₀: two ports, both children (the paper's initial configuration).
        let v0 = AdvNode {
            label: NodeLabel::empty()
                .with_left_child(1)
                .with_right_child(2)
                .with_color(Color::R),
            ports: vec![None, None],
        };
        Self {
            nodes: vec![v0],
            visited: HashMap::from([(0, 0)]),
            queries: 0,
            distance_upper: 0,
            n_report,
            max_nodes,
            tape: None,
            rand_cursor: HashMap::new(),
            random_bits: 0,
        }
    }

    /// Equips the world with a random tape (to *demonstrate* randomized
    /// algorithms against the adaptive adversary; the lower bound itself is
    /// about deterministic algorithms).
    pub fn with_tape(mut self, tape: RandomTape) -> Self {
        self.tape = Some(tape);
        self
    }

    fn view_of(&self, v: usize) -> NodeView {
        NodeView {
            node: v,
            id: v as u64 + 1,
            degree: self.nodes[v].ports.len(),
            label: self.nodes[v].label,
        }
    }

    /// Number of nodes created so far.
    pub fn created(&self) -> usize {
        self.nodes.len()
    }

    /// Completes the world into a finite instance: every unassigned child
    /// port receives a leaf with input color `flip(answer)`, and every
    /// unassigned parent port receives a fresh root above. Returns the
    /// instance (node indices preserved) and the color every internal node
    /// is forced to output.
    ///
    /// # Errors
    ///
    /// Returns a [`GraphError`] if the lazily grown world is structurally
    /// corrupt (an asymmetric port assignment or an invalid builder edge);
    /// a correct adversary never produces one.
    pub fn finalize(&self, answer: Color) -> Result<(Instance, Color), GraphError> {
        let forced = answer.flip();
        let mut b = GraphBuilder::new();
        let mut labels = Vec::new();
        for v in 0..self.nodes.len() {
            b.add_node_with_id(v as u64 + 1);
            labels.push(self.nodes[v].label);
        }
        // Existing edges (each edge appears in both nodes' port lists; add
        // once, from the lower index).
        for v in 0..self.nodes.len() {
            for (i, &nbr) in self.nodes[v].ports.iter().enumerate() {
                if let Some(w) = nbr {
                    if v < w {
                        let pw = self.nodes[w]
                            .ports
                            .iter()
                            .position(|&x| x == Some(v))
                            .ok_or(GraphError::AsymmetricEdge { from: v, to: w })?;
                        b.connect(v, i as u8 + 1, w, pw as u8 + 1)?;
                    }
                }
            }
        }
        // Completion.
        for v in 0..self.nodes.len() {
            let parent_port = self.nodes[v].label.parent.map(Port::index);
            for (i, &nbr) in self.nodes[v].ports.iter().enumerate() {
                if nbr.is_some() {
                    continue;
                }
                let fresh = b.add_node();
                if Some(i) == parent_port {
                    // A fresh root above v: its port 1 points down to v and
                    // is its left child; no parent of its own.
                    labels.push(NodeLabel::empty().with_left_child(1).with_color(forced));
                    b.connect(v, i as u8 + 1, fresh, 1)?;
                } else {
                    // A fresh leaf below v, carrying the forcing color.
                    labels.push(NodeLabel::empty().with_parent(1).with_color(forced));
                    b.connect(v, i as u8 + 1, fresh, 1)?;
                }
            }
        }
        let graph = b.build()?;
        Ok((Instance::new(graph, labels), forced))
    }
}

impl Oracle for LeafColoringAdversary {
    fn n(&self) -> usize {
        self.n_report
    }

    fn root(&self) -> NodeView {
        self.view_of(0)
    }

    fn query(&mut self, from: usize, port: Port) -> Result<NodeView, QueryError> {
        let Some(&from_dist) = self.visited.get(&from) else {
            return Err(QueryError::NotVisited { node: from });
        };
        if port.index() >= self.nodes[from].ports.len() {
            return Err(QueryError::InvalidPort { node: from, port });
        }
        self.queries += 1;
        let target = match self.nodes[from].ports[port.index()] {
            Some(w) => w,
            None => {
                if self.nodes.len() >= self.max_nodes {
                    return Err(QueryError::AdversaryRefused);
                }
                let w = self.nodes.len();
                let is_parent_query = self.nodes[from].label.parent == Some(port);
                let node = if is_parent_query {
                    // Reveal a parent: fresh internal node whose LC is `from`.
                    AdvNode {
                        label: NodeLabel::empty()
                            .with_parent(1)
                            .with_left_child(2)
                            .with_right_child(3)
                            .with_color(Color::R),
                        ports: vec![None, Some(from), None],
                    }
                } else {
                    // Reveal a child: fresh internal node whose parent is
                    // `from`.
                    AdvNode {
                        label: NodeLabel::empty()
                            .with_parent(1)
                            .with_left_child(2)
                            .with_right_child(3)
                            .with_color(Color::R),
                        ports: vec![Some(from), None, None],
                    }
                };
                self.nodes.push(node);
                self.nodes[from].ports[port.index()] = Some(w);
                w
            }
        };
        let d = self.visited.get(&target).copied().unwrap_or(from_dist + 1);
        self.visited.entry(target).or_insert(d);
        self.distance_upper = self.distance_upper.max(d);
        Ok(self.view_of(target))
    }

    fn rand_bit(&mut self, node: usize) -> Result<bool, QueryError> {
        if !self.visited.contains_key(&node) {
            return Err(QueryError::NotVisited { node });
        }
        let Some(tape) = self.tape else {
            return Err(QueryError::SecretRandomness { node });
        };
        let cursor = self.rand_cursor.entry(node).or_insert(0);
        let bit = tape.bit(node as u64 + 1, *cursor);
        *cursor += 1;
        self.random_bits += 1;
        Ok(bit)
    }

    fn stats(&self) -> OracleStats {
        OracleStats {
            volume: self.visited.len(),
            distance_upper: self.distance_upper,
            queries: self.queries,
            random_bits: self.random_bits,
        }
    }
}

/// Outcome of one adversarial run.
#[derive(Clone, Debug)]
pub struct DefeatReport {
    /// The completed instance.
    pub instance: Instance,
    /// The algorithm's answer at `v₀` (node 0), if it produced one.
    pub answer: Option<Color>,
    /// The color every internal node of the completed instance must output.
    pub forced_color: Color,
    /// Queries the algorithm issued.
    pub queries: u64,
    /// Nodes it visited.
    pub volume: usize,
    /// `n` of the completed instance.
    pub n: usize,
}

impl DefeatReport {
    /// Whether the algorithm was defeated: it answered and the answer
    /// disagrees with the forced color (or it exhausted the growth cap).
    pub fn defeated(&self) -> bool {
        match self.answer {
            Some(c) => c != self.forced_color,
            None => true,
        }
    }
}

/// Runs the process `P` against `algo` and completes the world.
///
/// The algorithm is told `n = n_report`; the world grows up to
/// `3 · n_report` nodes before refusing (at which point the algorithm has
/// already spent `Ω(n)` volume, the other horn of the dilemma).
///
/// # Errors
///
/// Propagates a [`GraphError`] from [`LeafColoringAdversary::finalize`];
/// a correct adversary never produces one.
pub fn defeat<A>(
    algo: &A,
    n_report: usize,
    tape: Option<RandomTape>,
) -> Result<DefeatReport, GraphError>
where
    A: QueryAlgorithm<Output = Color>,
{
    let mut world = LeafColoringAdversary::new(n_report, 3 * n_report);
    if let Some(t) = tape {
        world = world.with_tape(t);
    }
    let result = algo.run(&mut world, &mut SolverScratch::new());
    let stats = world.stats();
    let answer = result.ok();
    let (instance, forced_color) = world.finalize(answer.unwrap_or(Color::R))?;
    Ok(DefeatReport {
        n: instance.n(),
        instance,
        answer,
        forced_color,
        queries: stats.queries,
        volume: stats.volume,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vc_core::lcl::check_solution;
    use vc_core::problems::leaf_coloring::{DistanceSolver, LeafColoring, RwToLeaf};
    use vc_model::run::{run_all, RunConfig};

    #[test]
    fn world_serves_consistent_views() {
        let mut w = LeafColoringAdversary::new(100, 300);
        let root = w.root();
        assert_eq!(root.degree, 2);
        let lc = w.query(0, Port::new(1)).unwrap();
        assert_eq!(lc.degree, 3);
        assert_eq!(lc.label.color, Some(Color::R));
        // Requery returns the same node.
        let again = w.query(0, Port::new(1)).unwrap();
        assert_eq!(again.node, lc.node);
        // The child's parent port leads back.
        let back = w.query(lc.node, Port::new(1)).unwrap();
        assert_eq!(back.node, 0);
        assert_eq!(w.stats().volume, 2);
    }

    #[test]
    fn unvisited_query_rejected() {
        let mut w = LeafColoringAdversary::new(10, 30);
        assert!(matches!(
            w.query(5, Port::new(1)),
            Err(QueryError::NotVisited { .. })
        ));
        assert!(matches!(
            w.query(0, Port::new(9)),
            Err(QueryError::InvalidPort { .. })
        ));
    }

    #[test]
    fn growth_cap_refuses() {
        let mut w = LeafColoringAdversary::new(4, 3);
        let a = w.query(0, Port::new(1)).unwrap();
        let b = w.query(0, Port::new(2)).unwrap();
        // Third creation exceeds the cap.
        let err = w.query(a.node, Port::new(2)).unwrap_err();
        assert_eq!(err, QueryError::AdversaryRefused);
        let _ = b;
    }

    #[test]
    fn finalized_world_is_valid_and_forces_flip() {
        let mut w = LeafColoringAdversary::new(50, 150);
        let a = w.query(0, Port::new(1)).unwrap();
        let _ = w.query(a.node, Port::new(2)).unwrap();
        let (inst, forced) = w.finalize(Color::B).unwrap();
        assert!(inst.graph.validate().is_ok());
        assert_eq!(forced, Color::R);
        // The forced labeling (run the reference solver) is valid and gives
        // `forced` at v₀.
        let report = run_all(&inst, &DistanceSolver, &RunConfig::default()).unwrap();
        let outputs = report.complete_outputs().unwrap();
        assert!(check_solution(&LeafColoring, &inst, &outputs).is_ok());
        assert_eq!(outputs[0], forced);
    }

    #[test]
    fn defeats_the_distance_solver() {
        // The O(log n)-distance solver explores Θ(n) volume against the
        // adversary and still answers its fallback — defeated.
        let report = defeat(&DistanceSolver, 64, None).unwrap();
        assert!(report.defeated());
        // The dilemma: either it answered wrong, or it burned the cap.
        assert!(report.answer.is_none() || report.volume > 0);
    }

    #[test]
    fn defeats_the_random_walker_when_adaptive() {
        // RWtoLeaf only ever sees internal nodes in the adversarial world:
        // it truncates and falls back — demonstrating why Proposition 3.13
        // needs determinism (the adversary adapted to the coins).
        let report = defeat(
            &RwToLeaf { step_factor: 4 },
            256,
            Some(RandomTape::private(7)),
        )
        .unwrap();
        assert!(report.defeated());
        // Crucially it used only O(log n) volume — the adversary, not the
        // budget, is what defeated it.
        assert!(report.volume < 200, "volume {}", report.volume);
    }

    #[test]
    fn certificate_rejected_by_checker() {
        // Build the explicit certificate: algorithm's answer at v₀, forced
        // color everywhere else → the checker must reject at/near v₀.
        let report = defeat(&DistanceSolver, 32, None).unwrap();
        let answer = report.answer.unwrap_or(Color::R);
        let mut outputs = vec![report.forced_color; report.n];
        outputs[0] = answer;
        assert!(check_solution(&LeafColoring, &report.instance, &outputs).is_err());
    }
}
