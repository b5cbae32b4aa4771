//! Instance generators for every construction in the paper.
//!
//! Each generator produces an [`Instance`] (and, where useful, a metadata
//! struct locating the construction's special nodes). The families:
//!
//! * [`complete_binary_tree`] — the hidden-leaf-color instance of
//!   Proposition 3.12 and the skeleton of Figure 4.
//! * [`random_full_binary_tree`], [`pseudo_tree`] — LeafColoring inputs whose
//!   `G_T` is a tree or a pseudo-tree with exactly one cycle
//!   (Observation 3.7).
//! * [`balanced_tree_compatible`], [`disjointness_embedding`],
//!   [`unbalanced_tree`] — BalancedTree inputs (§4, Figure 5).
//! * [`hierarchical`], [`hierarchical_for_size`] — balanced
//!   Hierarchical-THC(k) instances with `Θ(n^{1/k})` backbones (§5,
//!   Figures 6–7).
//! * [`hybrid`], [`hybrid_for_size`] — Hybrid-THC(k) instances whose level-1
//!   components are BalancedTree instances (§6).
//! * [`hh`] — HH-THC(k, ℓ) instances (§6.1).
//! * [`directed_cycle`] — inputs for the classic class-B problems
//!   (Cole–Vishkin) populating Figures 1–2.
//! * [`two_tree_gadget`] — the CONGEST-vs-volume gadget of Example 7.6.

use crate::graph::GraphBuilder;
use crate::instance::Instance;
use crate::label::{Color, NodeLabel, Port};
use crate::NodeIdx;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

fn random_color(rng: &mut StdRng) -> Color {
    if rng.random_bool(0.5) {
        Color::R
    } else {
        Color::B
    }
}

/// The complete rooted binary tree of depth `depth` used in
/// Proposition 3.12 and Figure 4.
///
/// Node indices are in BFS order (root = 0, children of `i` are `2i+1`,
/// `2i+2`), identifiers are `index + 1` (root has ID 1 as in the paper).
/// Ports follow the paper's convention: the root's children sit at ports 1
/// and 2; every other node reaches its parent through port 1 and its
/// children (if any) through ports 2 and 3. Internal nodes are colored
/// `internal_color`, leaves `leaf_color`.
pub fn complete_binary_tree(depth: u32, internal_color: Color, leaf_color: Color) -> Instance {
    let n = (1usize << (depth + 1)) - 1;
    let mut b = GraphBuilder::with_nodes(n);
    let first_leaf = (1usize << depth) - 1;
    for v in 0..first_leaf {
        let (lc, rc) = (2 * v + 1, 2 * v + 2);
        if v == 0 {
            b.connect(v, 1, lc, 1).unwrap();
            b.connect(v, 2, rc, 1).unwrap();
        } else {
            b.connect(v, 2, lc, 1).unwrap();
            b.connect(v, 3, rc, 1).unwrap();
        }
    }
    let g = b.build().unwrap();
    let labels = (0..n)
        .map(|v| {
            let mut l = NodeLabel::empty();
            if v < first_leaf {
                l.color = Some(internal_color);
                if v == 0 {
                    l.left_child = Some(Port::new(1));
                    l.right_child = Some(Port::new(2));
                } else {
                    l.parent = Some(Port::new(1));
                    l.left_child = Some(Port::new(2));
                    l.right_child = Some(Port::new(3));
                }
            } else {
                l.color = Some(leaf_color);
                l.parent = Some(Port::new(1));
            }
            l
        })
        .collect();
    Instance::new(g, labels)
}

/// Indices of the leaves of [`complete_binary_tree`] in left-to-right order.
pub fn complete_binary_tree_leaves(depth: u32) -> std::ops::Range<usize> {
    let first_leaf = (1usize << depth) - 1;
    first_leaf..(1usize << (depth + 1)) - 1
}

/// Internal growth helper: repeatedly turn a random `G_T`-leaf into an
/// internal node with two fresh leaf children until the node budget `n` is
/// reached. `attach` is the initial set of leaves available for expansion.
struct TreeGrower {
    b: GraphBuilder,
    labels: Vec<NodeLabel>,
}

impl TreeGrower {
    fn new() -> Self {
        Self {
            b: GraphBuilder::new(),
            labels: Vec::new(),
        }
    }

    fn add_node(&mut self, color: Color) -> NodeIdx {
        let v = self.b.add_node();
        self.labels.push(NodeLabel::empty().with_color(color));
        v
    }

    /// Gives `parent` two fresh children and records LC/RC/P ports.
    fn sprout(&mut self, parent: NodeIdx, rng: &mut StdRng) -> (NodeIdx, NodeIdx) {
        let lc = self.add_node(random_color(rng));
        let rc = self.add_node(random_color(rng));
        let (p_lc, c_lc) = self.b.connect_auto(parent, lc).unwrap();
        let (p_rc, c_rc) = self.b.connect_auto(parent, rc).unwrap();
        self.labels[parent].left_child = Some(p_lc);
        self.labels[parent].right_child = Some(p_rc);
        self.labels[lc].parent = Some(c_lc);
        self.labels[rc].parent = Some(c_rc);
        (lc, rc)
    }

    /// Gives the nodes a random permutation of `1..=n` as identifiers,
    /// drawn last from `rng`, and builds the instance once.
    fn finish(mut self, rng: &mut StdRng) -> Instance {
        let mut ids: Vec<u64> = (1..=self.labels.len() as u64).collect();
        ids.shuffle(rng);
        for (v, id) in ids.into_iter().enumerate() {
            self.b.set_id(v, id);
        }
        let graph = self.b.build().expect("a grown tree is a valid graph");
        Instance::new(graph, self.labels)
    }
}

/// A random *full* binary tree (every internal node has exactly two
/// children) with at least `n_target` nodes and uniformly random input
/// colors — a LeafColoring input whose `G_T` is a single rooted tree.
///
/// Identifiers are a random permutation of `1..=n`.
pub fn random_full_binary_tree(n_target: usize, seed: u64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = TreeGrower::new();
    let root = t.add_node(random_color(&mut rng));
    let mut frontier = vec![root];
    while t.labels.len() + 2 <= n_target.max(3) {
        let i = rng.random_range(0..frontier.len());
        let v = frontier.swap_remove(i);
        let (lc, rc) = t.sprout(v, &mut rng);
        frontier.push(lc);
        frontier.push(rc);
    }
    t.finish(&mut rng)
}

/// A LeafColoring input whose `G_T` contains exactly one directed cycle of
/// length `cycle_len ≥ 3` (the pseudo-tree case of Observation 3.7), grown
/// to at least `n_target` nodes.
///
/// Each cycle node is internal; one of its children continues the cycle
/// (chosen between LC/RC at random) and the other roots a random full
/// binary subtree.
pub fn pseudo_tree(n_target: usize, cycle_len: usize, seed: u64) -> Instance {
    assert!(cycle_len >= 3, "cycle length must be at least 3");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = TreeGrower::new();
    let cycle: Vec<NodeIdx> = (0..cycle_len)
        .map(|_| t.add_node(random_color(&mut rng)))
        .collect();
    let mut frontier = Vec::new();
    for i in 0..cycle_len {
        let v = cycle[i];
        let next = cycle[(i + 1) % cycle_len];
        // Off-cycle child.
        let other = t.add_node(random_color(&mut rng));
        let (p_next, c_next) = t.b.connect_auto(v, next).unwrap();
        let (p_other, c_other) = t.b.connect_auto(v, other).unwrap();
        t.labels[next].parent = Some(c_next);
        t.labels[other].parent = Some(c_other);
        if rng.random_bool(0.5) {
            t.labels[v].left_child = Some(p_next);
            t.labels[v].right_child = Some(p_other);
        } else {
            t.labels[v].left_child = Some(p_other);
            t.labels[v].right_child = Some(p_next);
        }
        frontier.push(other);
    }
    while t.labels.len() + 2 <= n_target.max(cycle_len * 3) {
        let i = rng.random_range(0..frontier.len());
        let v = frontier.swap_remove(i);
        let (lc, rc) = t.sprout(v, &mut rng);
        frontier.push(lc);
        frontier.push(rc);
    }
    t.finish(&mut rng)
}

/// Locations of the special rows of a balanced-tree construction (§4).
#[derive(Clone, Debug)]
pub struct BalancedTreeMeta {
    /// The root of the binary tree.
    pub root: NodeIdx,
    /// Depth-(k-1) nodes `v_1..v_N` in left-to-right order (the parents of
    /// the leaf pairs in Figure 5).
    pub penultimate: Vec<NodeIdx>,
    /// Leaves in left-to-right order (`u_1, w_1, u_2, w_2, …`).
    pub leaves: Vec<NodeIdx>,
}

/// Builds the complete-binary-tree skeleton with lateral edges at every
/// depth (ports assigned in tree-then-lateral order), plus the LN/RN labels
/// for all rows above the leaves. The caller decides leaf-row LN/RN labels.
fn balanced_skeleton(depth: u32) -> (Instance, BalancedTreeMeta) {
    let inst = complete_binary_tree(depth, Color::R, Color::R);
    let mut b = GraphBuilder::new();
    b.append(&inst.graph, 0);
    let mut labels = inst.labels;
    // Add lateral edges row by row, left to right.
    for d in 1..=depth {
        let first = (1usize << d) - 1;
        let count = 1usize << d;
        for i in 0..count - 1 {
            let (l, r) = (first + i, first + i + 1);
            let (pl, pr) = b.connect_auto(l, r).unwrap();
            // `l`'s port to its right neighbor, `r`'s port to its left one.
            if d < depth {
                labels[l].right_nbr = Some(pl);
                labels[r].left_nbr = Some(pr);
            }
        }
    }
    let graph = b.build().expect("lateral edges take free ports");
    let meta = BalancedTreeMeta {
        root: 0,
        penultimate: if depth == 0 {
            vec![0]
        } else {
            ((1usize << (depth - 1)) - 1..(1usize << depth) - 1).collect()
        },
        leaves: complete_binary_tree_leaves(depth).collect(),
    };
    (Instance::new(graph, labels), meta)
}

/// A globally compatible BalancedTree instance on the complete binary tree
/// of depth `depth` (every consistent node satisfies Definition 4.2, so the
/// unique valid output labels every node `(B, P(v))` by Lemma 4.7).
pub fn balanced_tree_compatible(depth: u32) -> (Instance, BalancedTreeMeta) {
    let (mut inst, meta) = balanced_skeleton(depth);
    // Leaf-row lateral labels: full lateral path.
    for i in 0..meta.leaves.len() {
        if i + 1 < meta.leaves.len() {
            let (l, r) = (meta.leaves[i], meta.leaves[i + 1]);
            let pl = inst.graph.port_to(l, r).unwrap();
            let pr = inst.graph.port_to(r, l).unwrap();
            inst.labels[l].right_nbr = Some(pl);
            inst.labels[r].left_nbr = Some(pr);
        }
    }
    (inst, meta)
}

/// The disjointness embedding of Proposition 4.9 / Figure 5.
///
/// Given `a, b ∈ {0,1}^N` with `N` a power of two, builds the depth-`k`
/// balanced-tree instance (`N = 2^{k-1}`) in which the sibling lateral
/// labels of the `i`-th leaf pair are erased exactly when `a_i = b_i = 1`.
/// The labeling is globally compatible iff `disj(a, b) = 1`.
///
/// # Panics
///
/// Panics if `a.len() != b.len()` or the length is not a positive power of
/// two.
pub fn disjointness_embedding(a: &[bool], b: &[bool]) -> (Instance, BalancedTreeMeta) {
    assert_eq!(a.len(), b.len(), "inputs must have equal length");
    let n_pairs = a.len();
    assert!(
        n_pairs.is_power_of_two(),
        "input length must be a power of two"
    );
    let depth = n_pairs.trailing_zeros() + 1;
    let (mut inst, meta) = balanced_tree_compatible(depth);
    for i in 0..n_pairs {
        if a[i] && b[i] {
            let u = meta.leaves[2 * i];
            let w = meta.leaves[2 * i + 1];
            inst.labels[u].right_nbr = None;
            inst.labels[w].left_nbr = None;
        }
    }
    (inst, meta)
}

/// A BalancedTree instance whose underlying tree is *unbalanced*: the
/// leftmost depth-`depth` leaf is expanded one extra level, so the lateral
/// structure exposes an incompatibility within distance `O(depth)` of the
/// root (Lemma 4.6).
pub fn unbalanced_tree(depth: u32) -> (Instance, BalancedTreeMeta) {
    assert!(depth >= 1);
    let (inst, meta) = balanced_tree_compatible(depth);
    let n = inst.n();
    let mut b = GraphBuilder::new();
    b.append(&inst.graph, 0);
    let mut labels = inst.labels;
    // Expand the leftmost leaf into an internal node with two children.
    let host = meta.leaves[0];
    let lc = b.add_node_with_id(n as u64 + 1);
    let rc = b.add_node_with_id(n as u64 + 2);
    labels.push(NodeLabel::empty().with_color(Color::R));
    labels.push(NodeLabel::empty().with_color(Color::R));
    let (p_lc, c_lc) = b.connect_auto(host, lc).unwrap();
    let (p_rc, c_rc) = b.connect_auto(host, rc).unwrap();
    labels[host].left_child = Some(p_lc);
    labels[host].right_child = Some(p_rc);
    labels[lc].parent = Some(c_lc);
    labels[rc].parent = Some(c_rc);
    let (pl, pr) = b.connect_auto(lc, rc).unwrap();
    labels[lc].right_nbr = Some(pl);
    labels[rc].left_nbr = Some(pr);
    let graph = b.build().expect("the grafted leaves take free ports");
    (Instance::new(graph, labels), meta)
}

/// Parameters for [`hierarchical`] instances.
#[derive(Clone, Copy, Debug)]
pub struct HierarchicalParams {
    /// Number of hierarchy levels `k ≥ 1`.
    pub k: u32,
    /// Backbone length `L ≥ 1` at every level.
    pub backbone_len: usize,
    /// RNG seed for input colors and identifier shuffling.
    pub seed: u64,
}

/// A balanced Hierarchical-THC(k) instance (§5, Figure 6): at every level
/// `ℓ ∈ [k]`, each backbone is an LC-path of length `backbone_len`, and each
/// backbone node's RC roots a level-`(ℓ-1)` component. Input colors are
/// uniformly random.
///
/// The instance has `Σ_{i=1..k} L^i` nodes, so `backbone_len ≈ n^{1/k}`
/// matches the lower-bound family of Proposition 5.13.
pub fn hierarchical(params: HierarchicalParams) -> Instance {
    assert!(params.k >= 1 && params.backbone_len >= 1);
    leveled(params.k, params.backbone_len, false, params.seed, None)
}

/// A level-1 base for [`leveled`]: builds one level-1 component and
/// returns its root.
type Base<'a> = &'a mut dyn FnMut(&mut TreeGrower, &mut StdRng) -> NodeIdx;

/// A leveled instance (§5–6) with a top-level backbone of `len` nodes,
/// closed into an LC-cycle when `cycle`, and shuffled identifiers.
///
/// Without a `base`, level-1 components are LC-paths and no node carries a
/// `level` input (Hierarchical-THC). With one, `base` builds every level-1
/// component and backbone nodes carry their explicit `level` (Hybrid-THC).
fn leveled(k: u32, len: usize, cycle: bool, seed: u64, mut base: Option<Base<'_>>) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = TreeGrower::new();
    leveled_component(&mut t, k, len, cycle, &mut rng, &mut base);
    t.finish(&mut rng)
}

/// Builds one level-`level` component of [`leveled`]; returns its root
/// (first backbone node).
fn leveled_component(
    t: &mut TreeGrower,
    level: u32,
    len: usize,
    cycle: bool,
    rng: &mut StdRng,
    base: &mut Option<Base<'_>>,
) -> NodeIdx {
    if let (1, Some(base)) = (level, base.as_mut()) {
        return base(t, rng);
    }
    let backbone: Vec<NodeIdx> = (0..len)
        .map(|_| {
            let v = t.add_node(random_color(rng));
            if base.is_some() {
                t.labels[v].level = Some(level as u8);
            }
            v
        })
        .collect();
    for i in 0..len - 1 + usize::from(cycle) {
        let (v, u) = (backbone[i], backbone[(i + 1) % len]);
        let (pv, pu) = t.b.connect_auto(v, u).unwrap();
        t.labels[v].left_child = Some(pv);
        t.labels[u].parent = Some(pu);
    }
    if level > 1 {
        for &v in &backbone {
            let sub_root = leveled_component(t, level - 1, len, false, rng, base);
            let (pv, pr) = t.b.connect_auto(v, sub_root).unwrap();
            t.labels[v].right_child = Some(pv);
            t.labels[sub_root].parent = Some(pr);
        }
    }
    backbone[0]
}

/// [`hierarchical`] sized to roughly `n_target` nodes: picks
/// `backbone_len ≈ n_target^{1/k}`.
pub fn hierarchical_for_size(k: u32, n_target: usize, seed: u64) -> Instance {
    let backbone_len = ((n_target as f64).powf(1.0 / f64::from(k)).round() as usize).max(2);
    hierarchical(HierarchicalParams {
        k,
        backbone_len,
        seed,
    })
}

/// A Hierarchical-THC instance whose *top-level* backbone is a directed
/// LC-cycle instead of a path (Observation 5.4 allows cycles).
pub fn hierarchical_with_cycle(params: HierarchicalParams) -> Instance {
    assert!(params.backbone_len >= 3, "cycle needs length >= 3");
    leveled(params.k, params.backbone_len, true, params.seed, None)
}

/// Parameters for [`hybrid`] instances.
#[derive(Clone, Copy, Debug)]
pub struct HybridParams {
    /// Hierarchy parameter `k ≥ 2` of Hybrid-THC(k).
    pub k: u32,
    /// Backbone length at levels `2..=k`.
    pub backbone_len: usize,
    /// Depth of the BalancedTree instances forming the level-1 components.
    pub bt_depth: u32,
    /// RNG seed.
    pub seed: u64,
}

/// A Hybrid-THC(k) instance (§6): levels `2..=k` form the hierarchical
/// structure of §5 (with the explicit `level` input set on every node), and
/// each level-2 node's RC roots a compatible BalancedTree instance whose
/// nodes carry `level = 1`.
pub fn hybrid(params: HybridParams) -> Instance {
    assert!(params.k >= 2 && params.backbone_len >= 1);
    let mut base =
        |t: &mut TreeGrower, rng: &mut StdRng| graft_balanced_tree(t, params.bt_depth, rng);
    leveled(
        params.k,
        params.backbone_len,
        false,
        params.seed,
        Some(&mut base),
    )
}

/// Grafts a compatible BalancedTree instance into the grower; returns its
/// root. All grafted nodes carry `level = 1`.
fn graft_balanced_tree(t: &mut TreeGrower, depth: u32, rng: &mut StdRng) -> NodeIdx {
    let (bt, _) = balanced_tree_compatible(depth);
    let offset = t.b.append(&bt.graph, t.labels.len() as u64);
    for &l in &bt.labels {
        let color = Some(random_color(rng));
        t.labels.push(NodeLabel {
            color,
            level: Some(1),
            ..l
        });
    }
    // The BT root's parent port will be assigned by the caller through
    // `connect_auto`; it lands on the next free port of the root, which we
    // record when the caller wires it (labels[root].parent set there).
    offset
}

/// A Hybrid-THC(k) instance with one *heavy* level-1 component: the first
/// BalancedTree grafted has `≈ n_target / 2` nodes while all others have
/// size `≈ n^{1/k}`.
///
/// This is the family separating deterministic from randomized volume in
/// the Table 1 experiments: a deterministic solver that solves every
/// BalancedTree pays `Θ(n)` inside the heavy component (Proposition 4.9),
/// while the randomized way-point solver declines it and stays at
/// `Θ̃(n^{1/k})`.
pub fn hybrid_with_one_heavy(k: u32, n_target: usize, seed: u64) -> Instance {
    let part = (n_target as f64 / 2.0)
        .powf(1.0 / f64::from(k))
        .round()
        .max(2.0);
    let bt_depth = (part.log2().round() as u32).max(1);
    let heavy_depth = ((n_target as f64 / 2.0).log2().floor() as u32).max(bt_depth + 1);
    let mut first = Some(heavy_depth);
    let mut base = |t: &mut TreeGrower, rng: &mut StdRng| {
        graft_balanced_tree(t, first.take().unwrap_or(bt_depth), rng)
    };
    leveled(k, part as usize, false, seed, Some(&mut base))
}

/// [`hybrid`] sized to roughly `n_target` nodes: level-1 BalancedTree
/// components of size `≈ n^{1/k}` and backbones of length `≈ n^{1/k}`.
pub fn hybrid_for_size(k: u32, n_target: usize, seed: u64) -> Instance {
    let part = (n_target as f64).powf(1.0 / f64::from(k)).round().max(2.0);
    let bt_depth = (part.log2().round() as u32).max(1);
    hybrid(HybridParams {
        k,
        backbone_len: part as usize,
        bt_depth,
        seed,
    })
}

/// An HH-THC(k, ℓ) instance (Definition 6.4): the disjoint union of a
/// Hierarchical-THC(ℓ) instance on selection bit 0 and a Hybrid-THC(k)
/// instance on selection bit 1, each of roughly `n_target / 2` nodes.
pub fn hh(k: u32, l: u32, n_target: usize, seed: u64) -> Instance {
    let hier = hierarchical_for_size(l, n_target / 2, seed);
    let hyb = hybrid_for_size(k, n_target / 2, seed.wrapping_add(1));
    let mut b = GraphBuilder::new();
    let mut labels = Vec::new();
    for (part, bit, id_base) in [(&hier, false, 0u64), (&hyb, true, hier.n() as u64)] {
        b.append(&part.graph, id_base);
        let bit = Some(bit);
        labels.extend(part.labels.iter().map(|&lab| NodeLabel { bit, ..lab }));
    }
    let graph = b.build().expect("two disjoint valid graphs form one");
    Instance::new(graph, labels)
}

/// A consistently port-numbered directed cycle on `n ≥ 3` nodes: port 1
/// leads to the successor, port 2 to the predecessor. Identifiers are a
/// random permutation of `1..=n` — the input family for the class-B
/// reference problems (Cole–Vishkin 3-coloring) of Figures 1–2.
pub fn directed_cycle(n: usize, seed: u64) -> Instance {
    assert!(n >= 3, "a simple cycle needs at least 3 nodes");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ids: Vec<u64> = (1..=n as u64).collect();
    ids.shuffle(&mut rng);
    let mut b = GraphBuilder::new();
    for &id in &ids {
        b.add_node_with_id(id);
    }
    for v in 0..n {
        let w = (v + 1) % n;
        b.connect(v, 1, w, 2).unwrap();
    }
    let g = b.build().unwrap();
    Instance::new(g, vec![NodeLabel::empty(); n])
}

/// Locations of the special nodes of the [`two_tree_gadget`].
#[derive(Clone, Debug)]
pub struct GadgetMeta {
    /// Root of the output-side tree (`u` in Example 7.6).
    pub u_root: NodeIdx,
    /// Root of the input-side tree (`v`).
    pub v_root: NodeIdx,
    /// Output-side leaves `u_1..u_{2^k}` left to right.
    pub u_leaves: Vec<NodeIdx>,
    /// Input-side leaves `v_1..v_{2^k}` left to right.
    pub v_leaves: Vec<NodeIdx>,
}

/// The bit-transfer gadget of Example 7.6: two complete binary trees of
/// depth `depth` joined by an edge between their roots. Input-side leaf
/// `v_i` stores `(i << 1) | bits[i]` in its `aux` field and output-side
/// leaf `u_i` stores `i << 1`; the (non-LCL) problem asks each `u_i` to
/// output `bits[i]`.
///
/// Tree labels let algorithms navigate: within each tree, `P`/`LC`/`RC` are
/// set; the two roots see each other through their `parent` port and are
/// distinguished by the `bit` field (`false` = output side, `true` = input
/// side), which is also set on every node of the respective tree.
///
/// # Panics
///
/// Panics if `bits.len() != 2^depth`.
pub fn two_tree_gadget(depth: u32, bits: &[bool]) -> (Instance, GadgetMeta) {
    assert_eq!(bits.len(), 1 << depth, "need one bit per input leaf");
    let tree = complete_binary_tree(depth, Color::R, Color::R);
    let tn = tree.n();
    let mut b = GraphBuilder::new();
    let mut labels = Vec::new();
    for (side, id_base) in [(false, 0u64), (true, tn as u64)] {
        b.append(&tree.graph, id_base);
        let (color, bit) = (None, Some(side));
        labels.extend(tree.labels.iter().map(|&l| NodeLabel { color, bit, ..l }));
    }
    // Join the roots; each root's next free port is 3 (children use 1, 2).
    let (pu, pv) = b.connect_auto(0, tn).unwrap();
    labels[0].parent = Some(pu);
    labels[tn].parent = Some(pv);
    let leaf_range = complete_binary_tree_leaves(depth);
    let u_leaves: Vec<NodeIdx> = leaf_range.clone().collect();
    let v_leaves: Vec<NodeIdx> = leaf_range.map(|v| v + tn).collect();
    for (i, &v) in v_leaves.iter().enumerate() {
        labels[v].aux = Some((i as u64) << 1 | u64::from(bits[i]));
    }
    for (i, &u) in u_leaves.iter().enumerate() {
        labels[u].aux = Some((i as u64) << 1);
    }
    let meta = GadgetMeta {
        u_root: 0,
        v_root: tn,
        u_leaves,
        v_leaves,
    };
    let graph = b.build().expect("the root edge takes free ports");
    (Instance::new(graph, labels), meta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::structure::{self, NodeStatus};

    #[test]
    fn complete_tree_shape() {
        let inst = complete_binary_tree(3, Color::R, Color::B);
        assert_eq!(inst.n(), 15);
        assert!(inst.graph.validate().is_ok());
        let st = structure::statuses(&inst);
        assert_eq!(st.iter().filter(|s| **s == NodeStatus::Internal).count(), 7);
        assert_eq!(st.iter().filter(|s| **s == NodeStatus::Leaf).count(), 8);
        assert_eq!(inst.graph.id(0), 1);
        // Leaf colors.
        for v in complete_binary_tree_leaves(3) {
            assert_eq!(inst.labels[v].color, Some(Color::B));
        }
    }

    #[test]
    fn complete_tree_depth_zero() {
        let inst = complete_binary_tree(0, Color::R, Color::B);
        assert_eq!(inst.n(), 1);
        assert_eq!(structure::status(&inst, 0), NodeStatus::Inconsistent);
    }

    #[test]
    fn random_tree_is_consistent() {
        let inst = random_full_binary_tree(201, 7);
        assert!(inst.graph.validate().is_ok());
        assert!(inst.n() >= 201 - 1);
        let st = structure::statuses(&inst);
        // Every node except the root is internal or leaf; the root is
        // internal (it has no internal parent but has two children).
        let inconsistent = st
            .iter()
            .filter(|s| **s == NodeStatus::Inconsistent)
            .count();
        assert_eq!(inconsistent, 0);
    }

    #[test]
    fn pseudo_tree_has_cycle() {
        let inst = pseudo_tree(120, 5, 3);
        assert!(inst.graph.validate().is_ok());
        // All cycle nodes are internal; every node is consistent.
        let st = structure::statuses(&inst);
        assert!(st.iter().all(|s| s.is_consistent()));
        // The instance must contain *some* directed cycle in G_T: DFS with
        // three colors over the child edges.
        #[derive(Clone, Copy, PartialEq)]
        enum Mark {
            White,
            Gray,
            Black,
        }
        fn dfs(inst: &crate::Instance, v: usize, mark: &mut [Mark]) -> bool {
            mark[v] = Mark::Gray;
            if let Some((lc, rc)) = structure::gt_children(inst, v) {
                for w in [lc, rc] {
                    match mark[w] {
                        Mark::Gray => return true,
                        Mark::White => {
                            if dfs(inst, w, mark) {
                                return true;
                            }
                        }
                        Mark::Black => {}
                    }
                }
            }
            mark[v] = Mark::Black;
            false
        }
        let mut mark = vec![Mark::White; inst.n()];
        let found_cycle = (0..inst.n()).any(|v| mark[v] == Mark::White && dfs(&inst, v, &mut mark));
        assert!(found_cycle, "pseudo_tree must contain a G_T cycle");
    }

    #[test]
    fn balanced_tree_structure() {
        let (inst, meta) = balanced_tree_compatible(3);
        assert!(inst.graph.validate().is_ok());
        assert_eq!(meta.leaves.len(), 8);
        assert_eq!(meta.penultimate.len(), 4);
        // Lateral labels resolve along rows.
        for d in 1..=3u32 {
            let first = (1usize << d) - 1;
            let count = 1usize << d;
            for i in 0..count - 1 {
                let (l, r) = (first + i, first + i + 1);
                assert_eq!(inst.right_nbr_node(l), Some(r));
                assert_eq!(inst.left_nbr_node(r), Some(l));
            }
            assert_eq!(inst.left_nbr_node(first), None);
            assert_eq!(inst.right_nbr_node(first + count - 1), None);
        }
    }

    #[test]
    fn disjointness_embedding_erases_sibling_labels() {
        let a = vec![true, false, true, false];
        let b = vec![true, true, false, false];
        let (inst, meta) = disjointness_embedding(&a, &b);
        // Pair 0 intersects: labels erased.
        let (u0, w0) = (meta.leaves[0], meta.leaves[1]);
        assert_eq!(inst.labels[u0].right_nbr, None);
        assert_eq!(inst.labels[w0].left_nbr, None);
        // Pair 1 does not intersect: labels intact.
        let (u1, w1) = (meta.leaves[2], meta.leaves[3]);
        assert_eq!(inst.right_nbr_node(u1), Some(w1));
        assert_eq!(inst.left_nbr_node(w1), Some(u1));
        // Cross-pair link always present.
        assert_eq!(inst.right_nbr_node(w0), Some(u1));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn disjointness_embedding_requires_power_of_two() {
        let _ = disjointness_embedding(&[true, false, true], &[false, false, true]);
    }

    #[test]
    fn unbalanced_tree_grows() {
        let (inst, _) = unbalanced_tree(3);
        assert!(inst.graph.validate().is_ok());
        assert_eq!(inst.n(), 15 + 2); // depth-3 tree plus the two grafted leaves
    }

    #[test]
    fn hierarchical_sizes_and_levels() {
        let inst = hierarchical(HierarchicalParams {
            k: 3,
            backbone_len: 4,
            seed: 1,
        });
        assert!(inst.graph.validate().is_ok());
        // Σ L^i for i=1..3 = 4 + 16 + 64 = 84.
        assert_eq!(inst.n(), 84);
        let levels = structure::levels_capped(&inst, 3);
        let count = |l: u32| levels.iter().filter(|&&x| x == l).count();
        assert_eq!(count(3), 4);
        assert_eq!(count(2), 16);
        assert_eq!(count(1), 64);
    }

    #[test]
    fn hierarchical_for_size_hits_target() {
        let inst = hierarchical_for_size(2, 400, 5);
        let n = inst.n() as f64;
        assert!(n > 200.0 && n < 800.0, "n = {n}");
    }

    #[test]
    fn hierarchical_cycle_top_level() {
        let inst = hierarchical_with_cycle(HierarchicalParams {
            k: 2,
            backbone_len: 5,
            seed: 2,
        });
        assert!(inst.graph.validate().is_ok());
        let levels = structure::levels_capped(&inst, 2);
        // Find a level-2 node and walk its backbone: must be a cycle.
        let v = (0..inst.n()).find(|&v| levels[v] == 2).unwrap();
        let bb = structure::backbone_of(&inst, &levels, v);
        assert!(bb.is_cycle);
        assert_eq!(bb.len(), 5);
    }

    #[test]
    fn hybrid_levels_are_explicit() {
        let inst = hybrid(HybridParams {
            k: 2,
            backbone_len: 3,
            bt_depth: 2,
            seed: 9,
        });
        assert!(inst.graph.validate().is_ok());
        // 3 backbone nodes at level 2, each with a 7-node BT at level 1.
        assert_eq!(inst.n(), 3 + 3 * 7);
        let lvl2 = inst.labels.iter().filter(|l| l.level == Some(2)).count();
        let lvl1 = inst.labels.iter().filter(|l| l.level == Some(1)).count();
        assert_eq!(lvl2, 3);
        assert_eq!(lvl1, 21);
        // Every level-2 node's RC is a level-1 node with a parent pointer
        // back.
        for v in 0..inst.n() {
            if inst.labels[v].level == Some(2) {
                let rc = inst.right_child_node(v).expect("backbone RC");
                assert_eq!(inst.labels[rc].level, Some(1));
                assert_eq!(inst.parent_node(rc), Some(v));
            }
        }
    }

    #[test]
    fn hybrid_with_one_heavy_has_heavy_component() {
        let inst = hybrid_with_one_heavy(2, 1000, 3);
        assert!(inst.graph.validate().is_ok());
        // There is one level-1 component much larger than the others: count
        // component sizes among level-1 nodes.
        let mut seen = vec![false; inst.n()];
        let mut sizes = Vec::new();
        for v in 0..inst.n() {
            if inst.labels[v].level == Some(1) && !seen[v] {
                let mut stack = vec![v];
                seen[v] = true;
                let mut size = 0;
                while let Some(u) = stack.pop() {
                    size += 1;
                    for w in inst.graph.neighbors(u) {
                        if inst.labels[w].level == Some(1) && !seen[w] {
                            seen[w] = true;
                            stack.push(w);
                        }
                    }
                }
                sizes.push(size);
            }
        }
        sizes.sort_unstable();
        let max = *sizes.last().unwrap();
        let second = sizes[sizes.len().saturating_sub(2)];
        assert!(max >= 4 * second, "max {max}, second {second}");
        assert!(max >= inst.n() / 4, "heavy component should dominate");
    }

    #[test]
    fn hh_union_sets_bits() {
        let inst = hh(2, 3, 300, 11);
        assert!(inst.graph.validate().is_ok());
        let zeros = inst.labels.iter().filter(|l| l.bit == Some(false)).count();
        let ones = inst.labels.iter().filter(|l| l.bit == Some(true)).count();
        assert_eq!(zeros + ones, inst.n());
        assert!(zeros > 0 && ones > 0);
    }

    #[test]
    fn directed_cycle_ports() {
        let inst = directed_cycle(7, 4);
        assert!(inst.graph.validate().is_ok());
        for v in 0..7 {
            // Successor of successor's predecessor is the successor.
            let succ = inst.graph.neighbor(v, Port::new(1)).unwrap();
            let back = inst.graph.neighbor(succ, Port::new(2)).unwrap();
            assert_eq!(back, v);
        }
        // IDs are a permutation of 1..=7.
        let mut ids: Vec<u64> = (0..7).map(|v| inst.graph.id(v)).collect();
        ids.sort_unstable();
        assert_eq!(ids, (1..=7).collect::<Vec<u64>>());
    }

    #[test]
    fn two_tree_gadget_structure() {
        let bits = vec![true, false, false, true];
        let (inst, meta) = two_tree_gadget(2, &bits);
        assert!(inst.graph.validate().is_ok());
        assert_eq!(inst.n(), 14);
        assert_eq!(meta.u_leaves.len(), 4);
        // Roots see each other.
        assert_eq!(inst.parent_node(meta.u_root), Some(meta.v_root));
        assert_eq!(inst.parent_node(meta.v_root), Some(meta.u_root));
        // Sides are marked.
        assert_eq!(inst.labels[meta.u_root].bit, Some(false));
        assert_eq!(inst.labels[meta.v_root].bit, Some(true));
        // Bits and indices stored on the leaves.
        for (i, &v) in meta.v_leaves.iter().enumerate() {
            assert_eq!(
                inst.labels[v].aux,
                Some((i as u64) << 1 | u64::from(bits[i]))
            );
        }
        for (i, &u) in meta.u_leaves.iter().enumerate() {
            assert_eq!(inst.labels[u].aux, Some((i as u64) << 1));
        }
    }

    #[test]
    #[should_panic(expected = "one bit per input leaf")]
    fn two_tree_gadget_bit_count_checked() {
        let _ = two_tree_gadget(2, &[true]);
    }
}
