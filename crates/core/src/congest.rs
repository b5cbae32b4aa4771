//! CONGEST-model algorithms for §7.3.
//!
//! * [`BtFlood`] — Observation 7.4: BalancedTree is solvable in `O(log n)`
//!   CONGEST rounds with `B = O(log n)`-bit messages, although its query
//!   volume is `Ω(n)` (Proposition 4.9): nodes exchange labels and 2-hop
//!   identifiers in `O(1)` rounds to detect incompatibilities locally, then
//!   flood defect bits towards the roots for `O(log n)` rounds.
//! * [`BitTransfer`] + [`GadgetQuery`] — Example 7.6: the two-tree gadget
//!   requires `Ω(n/B)` CONGEST rounds (the whole bit vector crosses one
//!   edge) yet only `O(log n)` queries in the volume model.

use crate::output::BtOutput;
use std::collections::HashMap;
use std::collections::VecDeque;
use vc_graph::{NodeLabel, Port};
use vc_model::congest::{BitSize, CongestNode, LocalInfo};
use vc_model::oracle::{follow, Oracle, QueryError};
use vc_model::run::QueryAlgorithm;
use vc_model::SolverScratch;

/// Number of phase rounds reserved for port-by-port exchanges (an upper
/// bound on the degree in all of our constructions).
const MAX_PORTS: u8 = 8;

/// Messages of the [`BtFlood`] machine.
#[derive(Clone, Debug, PartialEq)]
pub enum BtMsg {
    /// Round 0: identifier and full input label.
    Hello {
        /// Sender's unique identifier.
        id: u64,
        /// Sender's input label.
        label: NodeLabel,
    },
    /// Rounds 1..Δ: the identifier of the sender's neighbor behind `port`.
    NbrId {
        /// The sender's port.
        port: u8,
        /// The identifier behind it (`None` when the port is out of range).
        id: Option<u64>,
    },
    /// Whether the sender is internal (Definition 3.3, first half).
    StatusInternal(bool),
    /// The sender's full status: 0 = internal, 1 = leaf, 2 = inconsistent.
    StatusFull(u8),
    /// Defect bit flooded towards the roots.
    Defect(bool),
}

impl BitSize for BtMsg {
    fn bits(&self) -> usize {
        match self {
            // id + 5 optional ports (9 bits each) + color flag + tag.
            BtMsg::Hello { .. } => 64 + 5 * 9 + 2 + 3,
            BtMsg::NbrId { .. } => 8 + 1 + 64 + 3,
            BtMsg::StatusInternal(_) => 1 + 3,
            BtMsg::StatusFull(_) => 2 + 3,
            BtMsg::Defect(_) => 1 + 3,
        }
    }
}

/// The Observation 7.4 CONGEST algorithm for BalancedTree.
///
/// Schedule (Δ = `MAX_PORTS`, `T = ⌈log₂ n⌉ + 4`):
///
/// * round 0 — broadcast `Hello`;
/// * rounds `1..=Δ` — broadcast the neighbor identifier behind port `r`;
/// * round Δ+1 — broadcast own internality;
/// * round Δ+2 — broadcast own full status;
/// * rounds Δ+3 .. Δ+3+T — compute compatibility (all conditions of
///   Definition 4.2 are functions of the gathered 2-hop information) and
///   flood defect bits to the parent;
/// * round Δ+3+T — decide the output exactly as the checker demands.
#[derive(Debug)]
pub struct BtFlood {
    hello: HashMap<u8, (u64, NodeLabel)>,
    nbr_ids: HashMap<(u8, u8), u64>,
    nbr_internal: HashMap<u8, bool>,
    nbr_status: HashMap<u8, u8>,
    defect_from: HashMap<u8, bool>,
    my_internal: Option<bool>,
    my_status: Option<u8>,
    my_compat: Option<bool>,
    decided: Option<BtOutput>,
}

impl BtFlood {
    fn rounds_for(n: usize) -> usize {
        let log_n = usize::BITS - n.max(2).leading_zeros();
        usize::from(MAX_PORTS) + 4 + log_n as usize + 4
    }

    fn port_in_range(info: &LocalInfo, p: Option<Port>) -> Option<u8> {
        p.filter(|p| p.index() < info.degree).map(Port::number)
    }

    /// 2-hop identifier: the id of `via`-neighbor's neighbor behind the
    /// neighbor's own `port`.
    fn two_hop(&self, via: u8, port: Option<Port>) -> Option<u64> {
        let p = port?;
        self.nbr_ids.get(&(via, p.number())).copied()
    }

    fn compute_internal(&self, info: &LocalInfo) -> bool {
        let l = info.label;
        let (Some(lc), Some(rc)) = (
            Self::port_in_range(info, l.left_child),
            Self::port_in_range(info, l.right_child),
        ) else {
            return false;
        };
        if lc == rc {
            return false;
        }
        if l.parent == l.left_child || l.parent == l.right_child {
            return false;
        }
        // Children must point back: child's neighbor behind its parent port
        // must be me.
        for child_port in [lc, rc] {
            let Some((_, child_label)) = self.hello.get(&child_port) else {
                return false;
            };
            let back = child_label
                .parent
                .and_then(|pp| self.nbr_ids.get(&(child_port, pp.number())));
            if back != Some(&info.id) {
                return false;
            }
        }
        true
    }

    fn compute_status(&self, info: &LocalInfo) -> u8 {
        if self.my_internal == Some(true) {
            return 0;
        }
        match Self::port_in_range(info, info.label.parent) {
            Some(pp) if self.nbr_internal.get(&pp) == Some(&true) => 1,
            _ => 2,
        }
    }

    fn compute_compat(&self, info: &LocalInfo) -> bool {
        let l = info.label;
        let internal = self.my_status == Some(0);
        let ln = Self::port_in_range(info, l.left_nbr);
        let rn = Self::port_in_range(info, l.right_nbr);
        // type-preserving / leaves.
        for p in [ln, rn].into_iter().flatten() {
            let st = self.nbr_status.get(&p).copied().unwrap_or(2);
            if internal && st != 0 {
                return false;
            }
            if !internal && st != 1 {
                return false;
            }
        }
        // agreement.
        if let Some(p) = ln {
            let u_label = self.hello.get(&p).map(|(_, l)| *l).unwrap_or_default();
            if self.two_hop(p, u_label.right_nbr) != Some(info.id) {
                return false;
            }
        }
        if let Some(p) = rn {
            let u_label = self.hello.get(&p).map(|(_, l)| *l).unwrap_or_default();
            if self.two_hop(p, u_label.left_nbr) != Some(info.id) {
                return false;
            }
        }
        if internal {
            let lc = Self::port_in_range(info, l.left_child).expect("internal");
            let rc = Self::port_in_range(info, l.right_child).expect("internal");
            let lc_label = self.hello.get(&lc).map(|(_, l)| *l).unwrap_or_default();
            let rc_label = self.hello.get(&rc).map(|(_, l)| *l).unwrap_or_default();
            let lc_id = self.hello.get(&lc).map(|(i, _)| *i);
            let rc_id = self.hello.get(&rc).map(|(i, _)| *i);
            // siblings.
            if self.two_hop(lc, lc_label.right_nbr) != rc_id
                || self.two_hop(rc, rc_label.left_nbr) != lc_id
            {
                return false;
            }
            // persistence.
            if let Some(w) = rn {
                let w_label = self.hello.get(&w).map(|(_, l)| *l).unwrap_or_default();
                let a = self.two_hop(rc, rc_label.right_nbr);
                let b = self.two_hop(w, w_label.left_child);
                if a.is_none() || a != b {
                    return false;
                }
            }
            if let Some(u) = ln {
                let u_label = self.hello.get(&u).map(|(_, l)| *l).unwrap_or_default();
                let a = self.two_hop(lc, lc_label.left_nbr);
                let b = self.two_hop(u, u_label.right_child);
                if a.is_none() || a != b {
                    return false;
                }
            }
        }
        true
    }

    fn my_defect(&self) -> bool {
        self.my_status == Some(0) || self.my_status == Some(1)
    }

    fn defect_now(&self, info: &LocalInfo) -> bool {
        let own = self.my_defect() && self.my_compat == Some(false);
        let lc = Self::port_in_range(info, info.label.left_child);
        let rc = Self::port_in_range(info, info.label.right_child);
        let below = [lc, rc]
            .into_iter()
            .flatten()
            .any(|p| self.defect_from.get(&p) == Some(&true));
        own || below
    }

    fn broadcast(info: &LocalInfo, msg: BtMsg) -> Vec<(Port, BtMsg)> {
        (1..=info.degree as u8)
            .map(|p| (Port::new(p), msg.clone()))
            .collect()
    }
}

impl CongestNode for BtFlood {
    type Msg = BtMsg;
    type Output = BtOutput;

    fn init(_info: &LocalInfo) -> Self {
        BtFlood {
            hello: HashMap::new(),
            nbr_ids: HashMap::new(),
            nbr_internal: HashMap::new(),
            nbr_status: HashMap::new(),
            defect_from: HashMap::new(),
            my_internal: None,
            my_status: None,
            my_compat: None,
            decided: None,
        }
    }

    fn round(
        &mut self,
        info: &LocalInfo,
        round: usize,
        inbox: &[(Port, BtMsg)],
    ) -> Vec<(Port, BtMsg)> {
        // Absorb everything, tagged by arrival port.
        for (port, msg) in inbox {
            let p = port.number();
            match msg {
                BtMsg::Hello { id, label } => {
                    self.hello.insert(p, (*id, *label));
                }
                BtMsg::NbrId { port: q, id } => {
                    if let Some(id) = id {
                        self.nbr_ids.insert((p, *q), *id);
                    }
                }
                BtMsg::StatusInternal(b) => {
                    self.nbr_internal.insert(p, *b);
                }
                BtMsg::StatusFull(s) => {
                    self.nbr_status.insert(p, *s);
                }
                BtMsg::Defect(d) => {
                    let e = self.defect_from.entry(p).or_insert(false);
                    *e = *e || *d;
                }
            }
        }
        let delta = usize::from(MAX_PORTS);
        let total = Self::rounds_for(info.n);
        match round {
            0 => Self::broadcast(
                info,
                BtMsg::Hello {
                    id: info.id,
                    label: info.label,
                },
            ),
            r if r >= 1 && r <= delta => {
                let q = r as u8;
                let id = self.hello.get(&q).map(|(i, _)| *i);
                Self::broadcast(info, BtMsg::NbrId { port: q, id })
            }
            r if r == delta + 1 => {
                self.my_internal = Some(self.compute_internal(info));
                Self::broadcast(info, BtMsg::StatusInternal(self.my_internal.unwrap()))
            }
            r if r == delta + 2 => {
                self.my_status = Some(self.compute_status(info));
                Self::broadcast(info, BtMsg::StatusFull(self.my_status.unwrap()))
            }
            r if r > delta + 2 && r < total => {
                if self.my_compat.is_none() {
                    self.my_compat = Some(self.compute_compat(info));
                }
                match Self::port_in_range(info, info.label.parent) {
                    Some(pp) => vec![(Port::new(pp), BtMsg::Defect(self.defect_now(info)))],
                    None => Vec::new(),
                }
            }
            _ => {
                if self.decided.is_none() {
                    let out = match self.my_status {
                        Some(2) | None => BtOutput::balanced(None), // unconstrained
                        Some(_) if self.my_compat == Some(false) => BtOutput::unbalanced(None),
                        Some(1) => BtOutput::balanced(info.label.parent),
                        _ => {
                            // Compatible internal: point at a defective
                            // child, or report balanced.
                            let lc = Self::port_in_range(info, info.label.left_child);
                            let rc = Self::port_in_range(info, info.label.right_child);
                            let defective = [lc, rc]
                                .into_iter()
                                .flatten()
                                .find(|p| self.defect_from.get(p) == Some(&true));
                            match defective {
                                Some(p) => BtOutput::unbalanced(Some(Port::new(p))),
                                None => BtOutput::balanced(info.label.parent),
                            }
                        }
                    };
                    self.decided = Some(out);
                }
                Vec::new()
            }
        }
    }

    fn output(&self, _info: &LocalInfo) -> Option<BtOutput> {
        self.decided
    }
}

/// Messages of the [`BitTransfer`] machine: packed `(index << 1) | bit`
/// entries, each 33 bits.
#[derive(Clone, Debug, Default)]
pub struct Packets(pub Vec<u64>);

impl BitSize for Packets {
    fn bits(&self) -> usize {
        2 + 33 * self.0.len()
    }
}

/// The Example 7.6 CONGEST algorithm: the input-side leaves send their
/// `(index, bit)` pairs up; everything funnels through the single bridge
/// edge (hence `Ω(n/B)` rounds) and floods down the output side. Each
/// round a node forwards as many entries per edge as the bandwidth `B`
/// of its [`LocalInfo`] carries.
#[derive(Debug)]
pub struct BitTransfer {
    /// Entries waiting to be forwarded.
    queue: VecDeque<u64>,
    /// Deduplication of forwarded entries.
    seen: std::collections::HashSet<u64>,
    /// The decided bit (output-side leaves only).
    my_bit: Option<bool>,
    started: bool,
}

impl BitTransfer {
    /// Per-edge-per-round entry budget for bandwidth `b` bits.
    fn cap(bandwidth_bits: usize) -> usize {
        ((bandwidth_bits.saturating_sub(2)) / 33).max(1)
    }

    fn is_root(info: &LocalInfo) -> bool {
        // Roots reach the other side through a port that is not port 1
        // (inner nodes' parent port is always 1 in the gadget).
        info.label.parent.map(Port::number) != Some(1)
    }

    fn is_leaf(info: &LocalInfo) -> bool {
        info.label.left_child.is_none()
    }
}

impl CongestNode for BitTransfer {
    type Msg = Packets;
    type Output = Option<bool>;

    fn init(_info: &LocalInfo) -> Self {
        BitTransfer {
            queue: VecDeque::new(),
            seen: std::collections::HashSet::new(),
            my_bit: None,
            started: false,
        }
    }

    fn round(
        &mut self,
        info: &LocalInfo,
        _round: usize,
        inbox: &[(Port, Packets)],
    ) -> Vec<(Port, Packets)> {
        let input_side = info.label.bit == Some(true);
        let leaf = Self::is_leaf(info);
        for (_, pkt) in inbox {
            for &e in &pkt.0 {
                if self.seen.insert(e) {
                    if !input_side && leaf {
                        if let Some(aux) = info.label.aux {
                            if e >> 1 == aux >> 1 {
                                self.my_bit = Some(e & 1 == 1);
                            }
                        }
                    }
                    self.queue.push_back(e);
                }
            }
        }
        if !self.started {
            self.started = true;
            if input_side && leaf {
                if let Some(aux) = info.label.aux {
                    self.queue.push_back(aux);
                }
            }
        }
        let cap = Self::cap(info.bandwidth);
        let batch: Vec<u64> = (0..cap).filter_map(|_| self.queue.pop_front()).collect();
        if batch.is_empty() {
            return Vec::new();
        }
        if input_side {
            // Funnel up: leaves/internals to parent; the root's parent port
            // is the bridge.
            match info.label.parent {
                Some(p) => vec![(p, Packets(batch))],
                None => Vec::new(),
            }
        } else {
            // Flood down both children.
            let mut out = Vec::new();
            for port in [info.label.left_child, info.label.right_child]
                .into_iter()
                .flatten()
            {
                out.push((port, Packets(batch.clone())));
            }
            out
        }
    }

    fn output(&self, info: &LocalInfo) -> Option<Option<bool>> {
        let input_side = info.label.bit == Some(true);
        if !input_side && Self::is_leaf(info) && !Self::is_root(info) {
            self.my_bit.map(Some)
        } else {
            Some(None)
        }
    }
}

/// The query-model counterpart for Example 7.6: an output-side leaf climbs
/// to its root, crosses the bridge, and descends by its index bits —
/// `O(log n)` volume against the CONGEST model's `Ω(n/B)` rounds.
#[derive(Clone, Copy, Debug, Default)]
pub struct GadgetQuery;

impl QueryAlgorithm for GadgetQuery {
    type Output = Option<bool>;

    fn name(&self) -> &'static str {
        "gadget/query"
    }

    fn fallback(&self) -> Option<bool> {
        None
    }

    fn run(
        &self,
        oracle: &mut dyn Oracle,
        _: &mut SolverScratch,
    ) -> Result<Option<bool>, QueryError> {
        let root = oracle.root();
        // Only output-side leaves have work to do.
        if root.label.bit != Some(false) || root.label.left_child.is_some() {
            return Ok(None);
        }
        let Some(aux) = root.label.aux else {
            return Ok(None);
        };
        let index = aux >> 1;
        // Climb to the output-side root, counting depth.
        let mut depth = 0u32;
        let mut cur = root;
        let bridge = loop {
            let Some(p) = follow(oracle, &cur, cur.label.parent)? else {
                return Ok(None);
            };
            if p.label.bit == Some(true) {
                break p;
            }
            cur = p;
            depth += 1;
        };
        // Descend the input side by the index bits (most significant
        // first).
        let mut v = bridge;
        for j in (0..depth).rev() {
            let bit = (index >> j) & 1;
            let port = if bit == 0 {
                v.label.left_child
            } else {
                v.label.right_child
            };
            let Some(next) = follow(oracle, &v, port)? else {
                return Ok(None);
            };
            v = next;
        }
        Ok(v.label.aux.map(|a| a & 1 == 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lcl::check_solution;
    use crate::problems::balanced_tree::BalancedTree;
    use vc_graph::gen;
    use vc_model::congest::run_congest;
    use vc_model::run::{run_all, RunConfig};

    #[test]
    fn bt_flood_matches_checker_on_compatible_instance() {
        let (inst, _) = gen::balanced_tree_compatible(4);
        let report = run_congest::<BtFlood>(&inst, 160, 200).unwrap();
        assert!(check_solution(&BalancedTree, &inst, &report.outputs).is_ok());
        // O(log n) rounds.
        assert!(report.rounds <= BtFlood::rounds_for(inst.n()) + 1);
        assert!(report.max_message_bits <= 160);
    }

    #[test]
    fn bt_flood_flags_defects() {
        let (inst, meta) = gen::disjointness_embedding(&[true, false], &[true, false]);
        let report = run_congest::<BtFlood>(&inst, 160, 200).unwrap();
        let check = check_solution(&BalancedTree, &inst, &report.outputs);
        assert!(check.is_ok(), "{check:?}");
        assert_eq!(
            report.outputs[meta.root].flag,
            crate::output::BtFlag::Unbalanced
        );
    }

    #[test]
    fn bt_flood_on_unbalanced_tree() {
        let (inst, meta) = gen::unbalanced_tree(3);
        let report = run_congest::<BtFlood>(&inst, 160, 200).unwrap();
        let check = check_solution(&BalancedTree, &inst, &report.outputs);
        assert!(check.is_ok(), "{check:?}");
        assert_eq!(
            report.outputs[meta.root].flag,
            crate::output::BtFlag::Unbalanced
        );
    }

    #[test]
    fn bit_transfer_delivers_all_bits() {
        let bits = vec![true, false, false, true, true, false, true, false];
        let (inst, meta) = gen::two_tree_gadget(3, &bits);
        let report = run_congest::<BitTransfer>(&inst, 35, 500).unwrap();
        for (i, &u) in meta.u_leaves.iter().enumerate() {
            assert_eq!(report.outputs[u], Some(bits[i]), "leaf {i}");
        }
    }

    #[test]
    fn bit_transfer_rounds_scale_with_bandwidth() {
        let bits: Vec<bool> = (0..32).map(|i| i % 3 == 0).collect();
        let (inst, _) = gen::two_tree_gadget(5, &bits);
        let narrow = run_congest::<BitTransfer>(&inst, 35, 2000).unwrap();
        let wide = run_congest::<BitTransfer>(&inst, 350, 2000).unwrap();
        assert!(
            narrow.rounds > wide.rounds + 10,
            "narrow {} vs wide {}",
            narrow.rounds,
            wide.rounds
        );
    }

    #[test]
    fn gadget_query_solves_with_logarithmic_volume() {
        let bits: Vec<bool> = (0..16).map(|i| i % 2 == 1).collect();
        let (inst, meta) = gen::two_tree_gadget(4, &bits);
        let report = run_all(&inst, &GadgetQuery, &RunConfig::default()).unwrap();
        let outputs = report.complete_outputs().unwrap();
        for (i, &u) in meta.u_leaves.iter().enumerate() {
            assert_eq!(outputs[u], Some(bits[i]), "leaf {i}");
        }
        // Volume O(log n): climb + descend.
        assert!(report.summary().max_volume <= 2 * 4 + 3);
    }

    #[test]
    fn message_sizes_are_accounted() {
        assert!(
            BtMsg::Hello {
                id: 0,
                label: NodeLabel::empty()
            }
            .bits()
                <= 160
        );
        assert_eq!(Packets(vec![1, 2]).bits(), 2 + 66);
    }
}
