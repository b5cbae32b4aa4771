//! A labeled graph — the input object `(G, L)` of paper §2.1.

use crate::graph::Graph;
use crate::label::{NodeLabel, Port};
use crate::NodeIdx;

/// A graph together with an input labeling: the pair `(G, L)` on which every
/// algorithm, checker and adversary in this workspace operates.
///
/// The labeling assigns every node a [`NodeLabel`]; the unique identifiers
/// and the port ordering live in the [`Graph`] itself.
#[derive(Clone, Debug, PartialEq)]
pub struct Instance {
    /// The communication graph / problem input graph.
    pub graph: Graph,
    /// Per-node input labels, indexed by node index.
    pub labels: Vec<NodeLabel>,
}

impl Instance {
    /// Bundles a graph with labels.
    ///
    /// # Panics
    ///
    /// Panics if `labels.len() != graph.n()`.
    pub fn new(graph: Graph, labels: Vec<NodeLabel>) -> Self {
        assert_eq!(
            labels.len(),
            graph.n(),
            "labeling must cover every node exactly once"
        );
        Self { graph, labels }
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.graph.n()
    }

    /// The input label of `v`.
    pub fn label(&self, v: NodeIdx) -> &NodeLabel {
        &self.labels[v]
    }

    /// The content-addressed identity of this instance: a streaming fold
    /// over the full CSR adjacency and every node's label (DESIGN.md §12).
    /// Two instances share an id exactly when they are the same pair
    /// `(G, L)` — equal size is never enough, which is what lets
    /// checkpoint resume and `compare-bench` refuse lookalike instances.
    pub fn instance_id(&self) -> vc_ident::InstanceId {
        let mut h = vc_ident::IdHasher::new("vc-instance/v1");
        self.graph.fold_content(&mut h);
        h.word(self.labels.len() as u64);
        for label in &self.labels {
            label.fold_content(&mut h);
        }
        vc_ident::InstanceId::from_raw(h.finish())
    }

    /// Resolves an optional port label at `v` to the node it leads to.
    ///
    /// Returns `None` when the label is `⊥` *or* the port number exceeds
    /// `deg(v)` (a malformed label — callers treat both as `⊥`, matching the
    /// paper's convention that labels are elements of `[Δ] ∪ {⊥}` and need
    /// not correspond to real edges on arbitrary inputs).
    pub fn resolve(&self, v: NodeIdx, port: Option<Port>) -> Option<NodeIdx> {
        port.and_then(|p| self.graph.neighbor(v, p))
    }

    /// The node reached through `P(v)`.
    pub fn parent_node(&self, v: NodeIdx) -> Option<NodeIdx> {
        self.resolve(v, self.labels[v].parent)
    }

    /// The node reached through `LC(v)`.
    pub fn left_child_node(&self, v: NodeIdx) -> Option<NodeIdx> {
        self.resolve(v, self.labels[v].left_child)
    }

    /// The node reached through `RC(v)`.
    pub fn right_child_node(&self, v: NodeIdx) -> Option<NodeIdx> {
        self.resolve(v, self.labels[v].right_child)
    }

    /// The node reached through `LN(v)`.
    pub fn left_nbr_node(&self, v: NodeIdx) -> Option<NodeIdx> {
        self.resolve(v, self.labels[v].left_nbr)
    }

    /// The node reached through `RN(v)`.
    pub fn right_nbr_node(&self, v: NodeIdx) -> Option<NodeIdx> {
        self.resolve(v, self.labels[v].right_nbr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use crate::label::NodeLabel;

    fn two_node_instance() -> Instance {
        let mut b = GraphBuilder::with_nodes(2);
        b.connect(0, 1, 1, 1).unwrap();
        let g = b.build().unwrap();
        let labels = vec![
            NodeLabel::empty().with_left_child(1),
            NodeLabel::empty().with_parent(1),
        ];
        Instance::new(g, labels)
    }

    #[test]
    fn resolve_follows_ports() {
        let inst = two_node_instance();
        assert_eq!(inst.left_child_node(0), Some(1));
        assert_eq!(inst.parent_node(1), Some(0));
        assert_eq!(inst.parent_node(0), None);
        assert_eq!(inst.right_child_node(0), None);
    }

    #[test]
    fn resolve_out_of_range_port_is_bottom() {
        let mut inst = two_node_instance();
        // Node 0 has degree 1; a label pointing at port 3 is malformed and
        // treated as ⊥.
        inst.labels[0] = NodeLabel::empty().with_left_child(3);
        assert_eq!(inst.left_child_node(0), None);
    }

    #[test]
    #[should_panic(expected = "cover every node")]
    fn mismatched_labels_panic() {
        let g = GraphBuilder::with_nodes(2).build().unwrap();
        let _ = Instance::new(g, vec![NodeLabel::empty()]);
    }
}
