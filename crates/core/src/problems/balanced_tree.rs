//! BalancedTree (paper §4): logarithmic distance but *linear* volume, even
//! for randomized algorithms (via the disjointness embedding of Prop. 4.9).
//!
//! *Input*: a balanced tree labeling (Definition 4.1) — a tree labeling plus
//! lateral-neighbor labels `LN`/`RN`. *Output*: a pair `(β, p) ∈ {B,U} × P`.
//! A node's subtree admits the all-`B` labeling iff it is a complete
//! (balanced) binary tree with fully compatible lateral structure
//! (Lemmas 4.6–4.7).
//!
//! ## A note on Definition 4.2 (persistence)
//!
//! The paper states persistence as "`RN(RC(v)) = LN(LC(w))`" for
//! `w = RN(v)`. Taken literally this equates two *different* nodes
//! (`RN(RC(v))` should be `LC(w)` while `LN(LC(w))` should be `RC(v)`);
//! the intent — clear from the proof of Lemma 4.6 and Figure 5 — is that
//! consecutive siblings' children are laterally linked:
//! `RN(RC(v)) = LC(RN(v))` and symmetrically `LN(LC(v)) = RC(LN(v))`.
//! We implement that reading; together with *agreement* it is equivalent to
//! both of the paper's intended equations.
//!
//! ## A note on Definition 4.3 (condition 3(b))
//!
//! Condition 3(b) read literally requires `χ_out(v) = (U, LC(v))` whenever
//! `LC(v)` outputs `U` *and* `χ_out(v) = (U, RC(v))` whenever `RC(v)` does —
//! unsatisfiable when both children output `U`. Following the prose ("`p` is
//! a port corresponding to the first hop on a path to an incompatible node
//! below `v`"), we require: if some child outputs `U`, then `v` outputs
//! `(U, p)` with `p` pointing at a child that outputs `U`.

use crate::lcl::{Lcl, Violation};
use crate::output::{BtFlag, BtOutput};
use crate::problems::util::Explorer;
use vc_graph::{structure, Instance, NodeIdx, Port};
use vc_model::oracle::{NodeView, Oracle, QueryError};
use vc_model::run::QueryAlgorithm;
use vc_model::SolverScratch;

/// A node filter: the BalancedTree machinery can be evaluated on an induced
/// subgraph (Hybrid-THC restricts it to the level-1 nodes, Definition 6.1);
/// ports leading outside the kept set resolve to `⊥`.
pub type Keep<'a> = &'a dyn Fn(NodeIdx) -> bool;

fn res_in(inst: &Instance, v: NodeIdx, port: Option<Port>, keep: Keep<'_>) -> Option<NodeIdx> {
    inst.resolve(v, port).filter(|&u| keep(u))
}

/// Definition 3.3 internality evaluated on the subgraph induced by `keep`.
pub fn is_internal_in(inst: &Instance, v: NodeIdx, keep: Keep<'_>) -> bool {
    let l = inst.label(v);
    let (Some(lc_port), Some(rc_port)) = (l.left_child, l.right_child) else {
        return false;
    };
    if lc_port == rc_port || l.parent == Some(lc_port) || l.parent == Some(rc_port) {
        return false;
    }
    let (Some(lc), Some(rc)) = (
        res_in(inst, v, Some(lc_port), keep),
        res_in(inst, v, Some(rc_port), keep),
    ) else {
        return false;
    };
    res_in(inst, lc, inst.label(lc).parent, keep) == Some(v)
        && res_in(inst, rc, inst.label(rc).parent, keep) == Some(v)
}

/// Definition 3.3 status evaluated on the subgraph induced by `keep`.
pub fn status_in(inst: &Instance, v: NodeIdx, keep: Keep<'_>) -> structure::NodeStatus {
    if is_internal_in(inst, v, keep) {
        return structure::NodeStatus::Internal;
    }
    match res_in(inst, v, inst.label(v).parent, keep) {
        Some(p) if is_internal_in(inst, p, keep) => structure::NodeStatus::Leaf,
        _ => structure::NodeStatus::Inconsistent,
    }
}

/// Instance-level compatibility check (Definition 4.2) for a *consistent*
/// node `v`.
///
/// Returns `true` when every applicable condition (type-preserving,
/// agreement, siblings, persistence, leaves) holds.
pub fn is_compatible(inst: &Instance, v: NodeIdx) -> bool {
    is_compatible_in(inst, v, &|_| true)
}

/// [`is_compatible`] evaluated on the subgraph induced by `keep`.
pub fn is_compatible_in(inst: &Instance, v: NodeIdx, keep: Keep<'_>) -> bool {
    let internal = is_internal_in(inst, v, keep);
    let l = inst.label(v);
    let ln = res_in(inst, v, l.left_nbr, keep);
    let rn = res_in(inst, v, l.right_nbr, keep);

    // type-preserving / leaves: lateral neighbors share v's status.
    for u in [ln, rn].into_iter().flatten() {
        let u_internal = is_internal_in(inst, u, keep);
        if internal && !u_internal {
            return false;
        }
        if !internal && status_in(inst, u, keep) != structure::NodeStatus::Leaf {
            return false;
        }
    }
    // agreement.
    if let Some(u) = ln {
        if res_in(inst, u, inst.label(u).right_nbr, keep) != Some(v) {
            return false;
        }
    }
    if let Some(u) = rn {
        if res_in(inst, u, inst.label(u).left_nbr, keep) != Some(v) {
            return false;
        }
    }
    if internal {
        let lc = res_in(inst, v, l.left_child, keep).expect("internal");
        let rc = res_in(inst, v, l.right_child, keep).expect("internal");
        // siblings.
        if res_in(inst, lc, inst.label(lc).right_nbr, keep) != Some(rc)
            || res_in(inst, rc, inst.label(rc).left_nbr, keep) != Some(lc)
        {
            return false;
        }
        // persistence.
        if let Some(w) = rn {
            let a = res_in(inst, rc, inst.label(rc).right_nbr, keep);
            let b = res_in(inst, w, inst.label(w).left_child, keep);
            if a.is_none() || a != b {
                return false;
            }
        }
        if let Some(u) = ln {
            let a = res_in(inst, lc, inst.label(lc).left_nbr, keep);
            let b = res_in(inst, u, inst.label(u).right_child, keep);
            if a.is_none() || a != b {
                return false;
            }
        }
    }
    true
}

/// The BalancedTree LCL (Definition 4.3).
#[derive(Clone, Copy, Debug, Default)]
pub struct BalancedTree;

impl Lcl for BalancedTree {
    type Output = BtOutput;

    fn name(&self) -> String {
        "BalancedTree".into()
    }

    fn check_radius(&self) -> u32 {
        3
    }

    fn check_node(&self, inst: &Instance, outputs: &[BtOutput], v: usize) -> Result<(), Violation> {
        check_bt_node_in(inst, &|u| Some(outputs[u]), v, &|_| true)
    }
}

/// The per-node validity conditions of Definition 4.3, evaluated on the
/// subgraph induced by `keep`, with outputs supplied by `get_out` (which may
/// report `None` for nodes that produced a non-BalancedTree output — a
/// violation whenever that output is actually referenced, as in mixed
/// Hybrid-THC labelings).
pub(crate) fn check_bt_node_in(
    inst: &Instance,
    get_out: &dyn Fn(NodeIdx) -> Option<BtOutput>,
    v: usize,
    keep: Keep<'_>,
) -> Result<(), Violation> {
    // Only consistent nodes are constrained (Definition 4.3).
    let status = status_in(inst, v, keep);
    if status == structure::NodeStatus::Inconsistent {
        return Ok(());
    }
    let Some(out) = get_out(v) else {
        return Err(Violation {
            node: v,
            rule: "4.3:non-pair-output",
        });
    };
    if !is_compatible_in(inst, v, keep) {
        // Condition 1.
        return if out == BtOutput::unbalanced(None) {
            Ok(())
        } else {
            Err(Violation {
                node: v,
                rule: "4.3:incompatible-outputs-U",
            })
        };
    }
    if status == structure::NodeStatus::Leaf {
        // Condition 2.
        return if out == BtOutput::balanced(inst.labels[v].parent) {
            Ok(())
        } else {
            Err(Violation {
                node: v,
                rule: "4.3:leaf-outputs-B-parent",
            })
        };
    }
    // Condition 3: compatible internal node.
    let lc = res_in(inst, v, inst.labels[v].left_child, keep).expect("internal");
    let rc = res_in(inst, v, inst.labels[v].right_child, keep).expect("internal");
    let (Some(lc_out), Some(rc_out)) = (get_out(lc), get_out(rc)) else {
        return Err(Violation {
            node: v,
            rule: "4.3:child-non-pair-output",
        });
    };
    let u_children: Vec<Option<Port>> = [
        (lc_out.flag == BtFlag::Unbalanced).then_some(inst.labels[v].left_child),
        (rc_out.flag == BtFlag::Unbalanced).then_some(inst.labels[v].right_child),
    ]
    .into_iter()
    .flatten()
    .collect();
    if !u_children.is_empty() {
        // Condition 3(b): point at a child that reported U.
        return if out.flag == BtFlag::Unbalanced && u_children.contains(&out.port) {
            Ok(())
        } else {
            Err(Violation {
                node: v,
                rule: "4.3:points-to-unbalanced-child",
            })
        };
    }
    if lc_out == BtOutput::balanced(inst.labels[lc].parent)
        && rc_out == BtOutput::balanced(inst.labels[rc].parent)
    {
        // Condition 3(a).
        return if out == BtOutput::balanced(inst.labels[v].parent) {
            Ok(())
        } else {
            Err(Violation {
                node: v,
                rule: "4.3:balanced-propagates",
            })
        };
    }
    Ok(())
}

/// Query-model compatibility check for a consistent node; mirrors
/// [`is_compatible`] with `O(1)` queries.
pub(crate) fn is_compatible_q(xp: &mut Explorer<'_>, v: &NodeView) -> Result<bool, QueryError> {
    let internal = xp.is_internal(v)?;
    let ln = xp.follow(v, v.label.left_nbr)?;
    let rn = xp.follow(v, v.label.right_nbr)?;
    for u in [ln, rn].into_iter().flatten() {
        if internal {
            if !xp.is_internal(&u)? {
                return Ok(false);
            }
        } else {
            // v is a leaf: u must be a leaf too.
            if xp.is_internal(&u)? {
                return Ok(false);
            }
            let up = xp.follow(&u, u.label.parent)?;
            match up {
                Some(p) if xp.is_internal(&p)? => {}
                _ => return Ok(false),
            }
        }
    }
    if let Some(u) = ln {
        let back = xp.follow(&u, u.label.right_nbr)?;
        if back.map(|x| x.node) != Some(v.node) {
            return Ok(false);
        }
    }
    if let Some(u) = rn {
        let back = xp.follow(&u, u.label.left_nbr)?;
        if back.map(|x| x.node) != Some(v.node) {
            return Ok(false);
        }
    }
    if internal {
        let (lc, rc) = xp.gt_children(v)?.expect("internal");
        let sib_r = xp.follow(&lc, lc.label.right_nbr)?;
        if sib_r.map(|x| x.node) != Some(rc.node) {
            return Ok(false);
        }
        let sib_l = xp.follow(&rc, rc.label.left_nbr)?;
        if sib_l.map(|x| x.node) != Some(lc.node) {
            return Ok(false);
        }
        if let Some(w) = rn {
            let a = xp.follow(&rc, rc.label.right_nbr)?;
            let b = xp.follow(&w, w.label.left_child)?;
            match (a, b) {
                (Some(a), Some(b)) if a.node == b.node => {}
                _ => return Ok(false),
            }
        }
        if let Some(u) = ln {
            let a = xp.follow(&lc, lc.label.left_nbr)?;
            let b = xp.follow(&u, u.label.right_child)?;
            match (a, b) {
                (Some(a), Some(b)) if a.node == b.node => {}
                _ => return Ok(false),
            }
        }
    }
    Ok(true)
}

/// The deterministic `O(log n)`-distance solver of Proposition 4.8.
///
/// An internal compatible node explores its `G_T`-descendants down to its
/// nearest-leaf depth `d` (≤ `log n`). By Lemma 4.6, if the subtree is not a
/// fully compatible balanced tree there is an incompatible descendant within
/// depth `d`; the node then outputs `(U, p)` with `p` the first hop towards
/// the nearest (left-most) incompatible descendant, otherwise `(B, P(v))`.
#[derive(Clone, Copy, Debug, Default)]
pub struct DistanceSolver;

impl QueryAlgorithm for DistanceSolver {
    type Output = BtOutput;

    fn name(&self) -> &'static str {
        "balanced-tree/distance"
    }

    fn fallback(&self) -> BtOutput {
        BtOutput::unbalanced(None)
    }

    fn run(
        &self,
        oracle: &mut dyn Oracle,
        scratch: &mut SolverScratch,
    ) -> Result<BtOutput, QueryError> {
        let mut xp = Explorer::new(oracle, scratch);
        let root = xp.root();
        solve_bt(&mut xp, root)
    }
}

/// The Proposition 4.8 strategy as a reusable routine: solve BalancedTree
/// for `root` through an [`Explorer`]. Also the level-1 subroutine of the
/// Hybrid-THC solvers (§6).
pub(crate) fn solve_bt(xp: &mut Explorer<'_>, root: NodeView) -> Result<BtOutput, QueryError> {
    {
        if !xp.is_consistent(&root)? {
            // Unconstrained; any output is valid.
            return Ok(BtOutput::balanced(None));
        }
        if !is_compatible_q(xp, &root)? {
            return Ok(BtOutput::unbalanced(None));
        }
        if !xp.is_internal(&root)? {
            // Compatible leaf.
            return Ok(BtOutput::balanced(root.label.parent));
        }

        // BFS descendants level by level, tracking the first hop.
        let cap = 2 * (usize::BITS - (xp.n().max(2) - 1).leading_zeros()) + 4;
        let mut frontier: Vec<(NodeView, Option<Port>)> = vec![(root, None)];
        xp.start_search(root.node);
        let mut levels: Vec<Vec<(NodeView, Option<Port>)>> = Vec::new();
        let mut found_leaf = false;
        for _depth in 0..=cap as usize {
            if frontier.is_empty() {
                break;
            }
            levels.push(frontier.clone());
            if found_leaf {
                break; // the level containing the nearest leaf is complete
            }
            let mut next = Vec::new();
            for (v, hop) in &frontier {
                match xp.gt_children(v)? {
                    None => {
                        found_leaf = true;
                    }
                    Some((lc, rc)) => {
                        let lc_hop = hop.or(v.label.left_child);
                        let rc_hop = hop.or(v.label.right_child);
                        if xp.mark(lc.node) {
                            next.push((lc, lc_hop));
                        }
                        if xp.mark(rc.node) {
                            next.push((rc, rc_hop));
                        }
                    }
                }
            }
            frontier = next;
        }
        // Scan descendants in (depth, left-to-right) order; the first
        // incompatible one decides.
        for level in levels.iter().skip(1) {
            for (w, hop) in level {
                if !is_compatible_q(xp, w)? {
                    return Ok(BtOutput::unbalanced(*hop));
                }
            }
        }
        Ok(BtOutput::balanced(root.label.parent))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lcl::check_solution;
    use vc_graph::gen;
    use vc_model::run::{run_all, RunConfig};

    #[test]
    fn compatible_instance_is_fully_compatible() {
        let (inst, _) = gen::balanced_tree_compatible(4);
        for v in 0..inst.n() {
            if structure::status(&inst, v).is_consistent() {
                assert!(is_compatible(&inst, v), "node {v} should be compatible");
            }
        }
    }

    #[test]
    fn disjointness_marks_exactly_intersections() {
        let a = vec![false, true, true, false];
        let b = vec![true, true, false, false];
        let (inst, meta) = gen::disjointness_embedding(&a, &b);
        for (i, &vi) in meta.penultimate.iter().enumerate() {
            assert_eq!(
                is_compatible(&inst, vi),
                !(a[i] && b[i]),
                "pair {i} compatibility"
            );
        }
        // Everyone else stays compatible.
        for v in 0..inst.n() {
            if meta.penultimate.contains(&v) {
                continue;
            }
            if structure::status(&inst, v).is_consistent() {
                assert!(is_compatible(&inst, v), "node {v}");
            }
        }
    }

    #[test]
    fn all_balanced_output_accepted_on_compatible_instance() {
        let (inst, _) = gen::balanced_tree_compatible(3);
        let outputs: Vec<BtOutput> = (0..inst.n())
            .map(|v| BtOutput::balanced(inst.labels[v].parent))
            .collect();
        assert!(check_solution(&BalancedTree, &inst, &outputs).is_ok());
    }

    #[test]
    fn checker_rejects_unanimous_b_on_intersecting_embedding() {
        // Lemma 4.7 converse: with an incompatible node, ancestors cannot
        // all claim B.
        let (inst, _) = gen::disjointness_embedding(&[true, false], &[true, false]);
        let outputs: Vec<BtOutput> = (0..inst.n())
            .map(|v| BtOutput::balanced(inst.labels[v].parent))
            .collect();
        assert!(check_solution(&BalancedTree, &inst, &outputs).is_err());
    }

    #[test]
    fn solver_outputs_all_balanced_on_compatible_instance() {
        let (inst, meta) = gen::balanced_tree_compatible(4);
        let report = run_all(&inst, &DistanceSolver, &RunConfig::default()).unwrap();
        let outputs = report.complete_outputs().unwrap();
        assert!(check_solution(&BalancedTree, &inst, &outputs).is_ok());
        assert_eq!(outputs[meta.root], BtOutput::balanced(None));
        assert!(outputs.iter().all(|o| o.flag == BtFlag::Balanced));
    }

    #[test]
    fn solver_flags_unbalanced_on_intersecting_embedding() {
        let a = vec![false, true, false, false];
        let b = vec![false, true, false, false];
        let (inst, meta) = gen::disjointness_embedding(&a, &b);
        let report = run_all(&inst, &DistanceSolver, &RunConfig::default()).unwrap();
        let outputs = report.complete_outputs().unwrap();
        assert!(check_solution(&BalancedTree, &inst, &outputs).is_ok());
        // The root must report U (Lemma 4.7).
        assert_eq!(outputs[meta.root].flag, BtFlag::Unbalanced);
        // The incompatible v_1 reports (U, ⊥).
        assert_eq!(outputs[meta.penultimate[1]], BtOutput::unbalanced(None));
    }

    #[test]
    fn solver_valid_on_disjoint_embedding() {
        let a = vec![true, false, true, false];
        let b = vec![false, true, false, true];
        let (inst, meta) = gen::disjointness_embedding(&a, &b);
        let report = run_all(&inst, &DistanceSolver, &RunConfig::default()).unwrap();
        let outputs = report.complete_outputs().unwrap();
        assert!(check_solution(&BalancedTree, &inst, &outputs).is_ok());
        assert_eq!(outputs[meta.root].flag, BtFlag::Balanced);
    }

    #[test]
    fn solver_valid_on_unbalanced_tree() {
        let (inst, meta) = gen::unbalanced_tree(3);
        let report = run_all(&inst, &DistanceSolver, &RunConfig::default()).unwrap();
        let outputs = report.complete_outputs().unwrap();
        assert!(check_solution(&BalancedTree, &inst, &outputs).is_ok());
        assert_eq!(outputs[meta.root].flag, BtFlag::Unbalanced);
    }

    #[test]
    fn solver_distance_is_logarithmic_volume_linear_at_root() {
        let (inst, meta) = gen::balanced_tree_compatible(7);
        let report = run_all(&inst, &DistanceSolver, &RunConfig::default()).unwrap();
        let s = report.summary();
        // Distance ≈ depth + O(1); the +O(1) comes from compatibility
        // checks touching lateral neighbors and grandchildren.
        assert!(s.max_distance <= 7 + 3, "max distance {}", s.max_distance);
        // The root had to scan its whole subtree: volume Θ(n).
        let root_rec = report.records.iter().find(|r| r.root == meta.root).unwrap();
        assert!(root_rec.volume > inst.n() / 2);
        assert!(check_solution(&BalancedTree, &inst, &report.complete_outputs().unwrap()).is_ok());
    }

    #[test]
    fn checker_rejects_orphan_u_pointer() {
        let (inst, meta) = gen::balanced_tree_compatible(2);
        let mut outputs: Vec<BtOutput> = (0..inst.n())
            .map(|v| BtOutput::balanced(inst.labels[v].parent))
            .collect();
        // Root claims U towards its left child although the child says B.
        outputs[meta.root] = BtOutput::unbalanced(inst.labels[meta.root].left_child);
        let err = check_solution(&BalancedTree, &inst, &outputs).unwrap_err();
        assert_eq!(err.node, meta.root);
        assert_eq!(err.rule, "4.3:balanced-propagates");
    }

    #[test]
    fn checker_rejects_ignoring_unbalanced_child() {
        let a = vec![true, true];
        let b = vec![true, true];
        let (inst, meta) = gen::disjointness_embedding(&a, &b);
        let report = run_all(&inst, &DistanceSolver, &RunConfig::default()).unwrap();
        let mut outputs = report.complete_outputs().unwrap();
        // The root's children include a U-child; force the root to claim B.
        outputs[meta.root] = BtOutput::balanced(None);
        let err = check_solution(&BalancedTree, &inst, &outputs).unwrap_err();
        assert_eq!(err.rule, "4.3:points-to-unbalanced-child");
    }

    #[test]
    fn leaf_must_echo_parent_port() {
        let (inst, meta) = gen::balanced_tree_compatible(2);
        let leaf = meta.leaves[0];
        let mut outputs: Vec<BtOutput> = (0..inst.n())
            .map(|v| BtOutput::balanced(inst.labels[v].parent))
            .collect();
        outputs[leaf] = BtOutput::balanced(None);
        let err = check_solution(&BalancedTree, &inst, &outputs).unwrap_err();
        assert_eq!(err.node, leaf);
        assert_eq!(err.rule, "4.3:leaf-outputs-B-parent");
    }
}
