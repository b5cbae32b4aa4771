//! Structure derived from tree labelings: node status (Definition 3.3), the
//! pseudo-forest `G_T` (Observation 3.7), levels (Definition 5.1) and the
//! hierarchical forest `G_k` with its backbones (Observations 5.3–5.4).

use crate::instance::Instance;
use crate::{NodeIdx, Port};

/// A node filter: Definition 3.3 evaluated on the subgraph it induces.
/// Ports leading outside the kept set resolve to `⊥`; `&|_| true` keeps
/// the whole instance. Hybrid-THC evaluates the BalancedTree machinery on
/// its level-1 nodes this way (Definition 6.1).
pub type Keep<'a> = &'a dyn Fn(NodeIdx) -> bool;

/// The node reached through `port` of `v`, `⊥` when it lies outside
/// `keep`.
pub fn resolve_in(
    inst: &Instance,
    v: NodeIdx,
    port: Option<Port>,
    keep: Keep<'_>,
) -> Option<NodeIdx> {
    inst.resolve(v, port).filter(|&u| keep(u))
}

/// Classification of a node under a tree labeling (Definition 3.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum NodeStatus {
    /// Both children exist, point back, are distinct, and differ from the
    /// parent port.
    Internal,
    /// Not internal, but the parent is internal.
    Leaf,
    /// Neither internal nor a leaf.
    Inconsistent,
}

impl NodeStatus {
    /// Whether the node is *consistent* (internal or a leaf).
    pub fn is_consistent(self) -> bool {
        !matches!(self, NodeStatus::Inconsistent)
    }
}

/// Whether `v` is internal in the sense of Definition 3.3, on the subgraph
/// induced by `keep`.
///
/// All four conditions are checked literally; a port label that exceeds the
/// node's degree is treated as `⊥`.
pub fn is_internal(inst: &Instance, v: NodeIdx, keep: Keep<'_>) -> bool {
    let l = inst.label(v);
    // Conditions 3 and 4 are on the port labels themselves.
    let (Some(lc_port), Some(rc_port)) = (l.left_child, l.right_child) else {
        return false;
    };
    if lc_port == rc_port {
        return false;
    }
    if l.parent == Some(lc_port) || l.parent == Some(rc_port) {
        return false;
    }
    // Conditions 1 and 2: children exist and point back via their parent
    // label.
    let res = |u: NodeIdx, port| resolve_in(inst, u, port, keep);
    let (Some(lc), Some(rc)) = (res(v, Some(lc_port)), res(v, Some(rc_port))) else {
        return false;
    };
    res(lc, inst.label(lc).parent) == Some(v) && res(rc, inst.label(rc).parent) == Some(v)
}

/// The status of `v` under Definition 3.3, on the subgraph induced by
/// `keep`.
pub fn status(inst: &Instance, v: NodeIdx, keep: Keep<'_>) -> NodeStatus {
    if is_internal(inst, v, keep) {
        return NodeStatus::Internal;
    }
    match resolve_in(inst, v, inst.label(v).parent, keep) {
        Some(p) if is_internal(inst, p, keep) => NodeStatus::Leaf,
        _ => NodeStatus::Inconsistent,
    }
}

/// Status of every node of the whole instance.
pub fn statuses(inst: &Instance) -> Vec<NodeStatus> {
    (0..inst.n()).map(|v| status(inst, v, &|_| true)).collect()
}

/// The two `G_T`-children of an internal node, `(LC(v), RC(v))`.
///
/// Returns `None` when `v` is not internal. For internal nodes both children
/// exist by Definition 3.3, and they are the out-edges of `v` in the
/// pseudo-forest `G_T` of Observation 3.7.
pub fn gt_children(inst: &Instance, v: NodeIdx) -> Option<(NodeIdx, NodeIdx)> {
    is_internal(inst, v, &|_| true).then(|| {
        (
            inst.left_child_node(v).expect("internal node has LC"),
            inst.right_child_node(v).expect("internal node has RC"),
        )
    })
}

/// The level of `v` per Definition 5.1, capped at `cap + 1`.
///
/// `level(v) = 1` when `RC(v) = ⊥` (or unresolvable), otherwise
/// `1 + level(RC(v))`. The recursion follows resolved right-child pointers;
/// since the checkers only distinguish levels `1..=k` from "`> k`", the walk
/// stops after `cap` steps and reports `cap + 1` for anything deeper
/// (including pathological `RC`-cycles), matching condition 1 of
/// Definition 5.5 which treats all such nodes as exempt.
pub fn level_capped(inst: &Instance, v: NodeIdx, cap: u32) -> u32 {
    let mut cur = v;
    let mut lvl = 1u32;
    while lvl <= cap {
        match inst.right_child_node(cur) {
            Some(rc) => {
                cur = rc;
                lvl += 1;
            }
            None => return lvl,
        }
    }
    cap + 1
}

/// Levels of every node, capped at `cap + 1`.
pub fn levels_capped(inst: &Instance, cap: u32) -> Vec<u32> {
    (0..inst.n()).map(|v| level_capped(inst, v, cap)).collect()
}

/// The successor of `v` along its backbone in `G_k`: the left child at the
/// same level (Definition 5.1's first edge kind), if the back-pointer agrees.
pub fn backbone_next(inst: &Instance, levels: &[u32], v: NodeIdx) -> Option<NodeIdx> {
    let u = inst.left_child_node(v)?;
    (inst.parent_node(u) == Some(v) && levels[u] == levels[v]).then_some(u)
}

/// The predecessor of `v` along its backbone in `G_k`: the parent through a
/// left-child edge at the same level.
pub fn backbone_prev(inst: &Instance, levels: &[u32], v: NodeIdx) -> Option<NodeIdx> {
    let u = inst.parent_node(v)?;
    (inst.left_child_node(u) == Some(v) && levels[u] == levels[v]).then_some(u)
}

/// A maximal same-level component of `G_k` (Observation 5.4): a path or a
/// cycle of nodes connected by left-child edges.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Backbone {
    /// Nodes in order from the backbone root (or an arbitrary cycle node)
    /// towards the level leaf.
    pub nodes: Vec<NodeIdx>,
    /// Whether the component is a directed cycle.
    pub is_cycle: bool,
}

impl Backbone {
    /// Number of nodes in the component.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the component is empty (never true for [`backbone_of`]).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

/// The maximal backbone containing `v`.
///
/// Walks backwards to the component's first node (or detects a cycle), then
/// forward collecting the whole path/cycle.
pub fn backbone_of(inst: &Instance, levels: &[u32], v: NodeIdx) -> Backbone {
    // Walk backwards until no predecessor, detecting cycles with a budget.
    let mut start = v;
    let mut steps = 0usize;
    while let Some(p) = backbone_prev(inst, levels, start) {
        start = p;
        steps += 1;
        if steps > inst.n() {
            // Cycle through v: collect it starting from v.
            let mut nodes = vec![v];
            let mut cur = v;
            while let Some(nx) = backbone_next(inst, levels, cur) {
                if nx == v {
                    return Backbone {
                        nodes,
                        is_cycle: true,
                    };
                }
                nodes.push(nx);
                cur = nx;
            }
            // Walked off the cycle — shouldn't happen, but return the
            // path we saw.
            return Backbone {
                nodes,
                is_cycle: false,
            };
        }
    }
    let mut nodes = vec![start];
    let mut cur = start;
    while let Some(nx) = backbone_next(inst, levels, cur) {
        if nx == start {
            return Backbone {
                nodes,
                is_cycle: true,
            };
        }
        nodes.push(nx);
        cur = nx;
    }
    Backbone {
        nodes,
        is_cycle: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use crate::label::{Color, NodeLabel};

    /// Root with two leaves: ports root:{1→lc, 2→rc}, leaves:{1→root}.
    fn cherry() -> Instance {
        let mut b = GraphBuilder::with_nodes(3);
        b.connect(0, 1, 1, 1).unwrap();
        b.connect(0, 2, 2, 1).unwrap();
        let g = b.build().unwrap();
        let labels = vec![
            NodeLabel::empty().with_left_child(1).with_right_child(2),
            NodeLabel::empty().with_parent(1).with_color(Color::B),
            NodeLabel::empty().with_parent(1).with_color(Color::B),
        ];
        Instance::new(g, labels)
    }

    #[test]
    fn cherry_statuses() {
        let inst = cherry();
        let st = statuses(&inst);
        assert_eq!(
            st,
            [NodeStatus::Internal, NodeStatus::Leaf, NodeStatus::Leaf]
        );
        assert!(st[0].is_consistent());
        // Filtered to nodes 0 and 1, the root has one child left.
        let filtered: Vec<_> = (0..3).map(|v| status(&inst, v, &|u| u != 2)).collect();
        assert_eq!(filtered, [NodeStatus::Inconsistent; 3]);
    }

    #[test]
    fn gt_navigation() {
        let inst = cherry();
        assert_eq!(gt_children(&inst, 0), Some((1, 2)));
        assert_eq!(gt_children(&inst, 1), None);
    }

    #[test]
    fn broken_backpointer_is_inconsistent() {
        let mut inst = cherry();
        // Leaf 1 forgets its parent: root's condition 1 fails.
        inst.labels[1].parent = None;
        // And then nodes 1, 2 lose their internal parent.
        assert_eq!(statuses(&inst), [NodeStatus::Inconsistent; 3]);
    }

    #[test]
    fn equal_child_ports_not_internal() {
        let mut inst = cherry();
        inst.labels[0].right_child = inst.labels[0].left_child;
        assert_eq!(statuses(&inst)[0], NodeStatus::Inconsistent);
    }

    #[test]
    fn parent_port_clash_not_internal() {
        let mut inst = cherry();
        inst.labels[0].parent = inst.labels[0].left_child;
        assert_eq!(statuses(&inst)[0], NodeStatus::Inconsistent);
    }

    /// RC-chain of three nodes: v0 -RC-> v1 -RC-> v2, so level(v0)=3.
    fn rc_chain() -> Instance {
        let mut b = GraphBuilder::with_nodes(3);
        b.connect(0, 1, 1, 1).unwrap();
        b.connect(1, 2, 2, 1).unwrap();
        let g = b.build().unwrap();
        let labels = vec![
            NodeLabel::empty().with_right_child(1),
            NodeLabel::empty().with_parent(1).with_right_child(2),
            NodeLabel::empty().with_parent(1),
        ];
        Instance::new(g, labels)
    }

    #[test]
    fn levels_follow_rc_chain() {
        let inst = rc_chain();
        assert_eq!(level_capped(&inst, 0, 10), 3);
        assert_eq!(level_capped(&inst, 1, 10), 2);
        assert_eq!(level_capped(&inst, 2, 10), 1);
        assert_eq!(levels_capped(&inst, 10), vec![3, 2, 1]);
    }

    #[test]
    fn levels_cap_deep_chains() {
        let inst = rc_chain();
        // With cap 1, level(v0) would be 3 > cap, so reported as cap+1 = 2.
        assert_eq!(level_capped(&inst, 0, 1), 2);
    }

    /// LC-path of three nodes at level 1 (no RC anywhere).
    fn lc_path() -> Instance {
        let mut b = GraphBuilder::with_nodes(3);
        b.connect(0, 1, 1, 1).unwrap();
        b.connect(1, 2, 2, 1).unwrap();
        let g = b.build().unwrap();
        let labels = vec![
            NodeLabel::empty().with_left_child(1),
            NodeLabel::empty().with_parent(1).with_left_child(2),
            NodeLabel::empty().with_parent(1),
        ];
        Instance::new(g, labels)
    }

    #[test]
    fn backbone_path() {
        let inst = lc_path();
        let levels = levels_capped(&inst, 4);
        assert_eq!(levels, vec![1, 1, 1]);
        let bb = backbone_of(&inst, &levels, 1);
        assert_eq!(bb.nodes, vec![0, 1, 2]);
        assert!(!bb.is_cycle);
        assert_eq!(bb.len(), 3);
        assert!(!bb.is_empty());
        assert_eq!(backbone_next(&inst, &levels, 0), Some(1));
        assert_eq!(backbone_prev(&inst, &levels, 1), Some(0));
        assert_eq!(backbone_prev(&inst, &levels, 0), None);
        assert_eq!(backbone_next(&inst, &levels, 2), None);
    }

    /// LC-cycle of three nodes at level 1.
    fn lc_cycle() -> Instance {
        let mut b = GraphBuilder::with_nodes(3);
        // Each node: port 1 = parent (previous), port 2 = left child (next).
        b.connect(0, 2, 1, 1).unwrap();
        b.connect(1, 2, 2, 1).unwrap();
        b.connect(2, 2, 0, 1).unwrap();
        let g = b.build().unwrap();
        let labels = (0..3)
            .map(|_| NodeLabel::empty().with_parent(1).with_left_child(2))
            .collect();
        Instance::new(g, labels)
    }

    #[test]
    fn backbone_cycle_detected() {
        let inst = lc_cycle();
        let levels = levels_capped(&inst, 4);
        let bb = backbone_of(&inst, &levels, 1);
        assert!(bb.is_cycle);
        assert_eq!(bb.len(), 3);
        assert!(bb.nodes.contains(&0) && bb.nodes.contains(&1) && bb.nodes.contains(&2));
    }
}
