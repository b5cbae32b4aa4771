//! A synchronous CONGEST simulator (§7.3).
//!
//! In each round every node may send at most `B` bits along each incident
//! edge (typically `B = O(log n)`). The simulator enforces the bandwidth
//! bound per message, delivers messages by port, counts rounds/messages/bits
//! and stops when every node has produced an output — enough to reproduce
//! Observations 7.4–7.5 and Example 7.6.

use std::error::Error;
use std::fmt;
use vc_graph::{Instance, NodeLabel, Port};

/// Bit-size accounting for messages.
pub trait BitSize {
    /// Number of bits needed to transmit the value.
    fn bits(&self) -> usize;
}

impl BitSize for bool {
    fn bits(&self) -> usize {
        1
    }
}

impl BitSize for u8 {
    fn bits(&self) -> usize {
        8
    }
}

impl BitSize for u32 {
    fn bits(&self) -> usize {
        32
    }
}

impl BitSize for u64 {
    fn bits(&self) -> usize {
        64
    }
}

impl<T: BitSize> BitSize for Vec<T> {
    fn bits(&self) -> usize {
        self.iter().map(BitSize::bits).sum()
    }
}

impl<T: BitSize> BitSize for Option<T> {
    fn bits(&self) -> usize {
        1 + self.as_ref().map_or(0, BitSize::bits)
    }
}

impl<A: BitSize, B: BitSize> BitSize for (A, B) {
    fn bits(&self) -> usize {
        self.0.bits() + self.1.bits()
    }
}

/// What a CONGEST node knows locally: its identifier, degree, input label,
/// and the global `n` and bandwidth `B`.
#[derive(Clone, Copy, Debug)]
pub struct LocalInfo {
    /// Unique identifier.
    pub id: u64,
    /// Degree.
    pub degree: usize,
    /// Input label.
    pub label: NodeLabel,
    /// Number of nodes in the network.
    pub n: usize,
    /// Per-edge bandwidth `B` in bits per round, which every node knows
    /// as it knows `n`.
    pub bandwidth: usize,
}

/// Per-node state machine for the CONGEST simulator.
pub trait CongestNode: Sized {
    /// Message alphabet.
    type Msg: Clone + BitSize;
    /// Local output type.
    type Output: Clone;

    /// Initializes the node's state from its local information.
    fn init(info: &LocalInfo) -> Self;

    /// One synchronous round: consume the inbox (messages tagged with their
    /// arrival port), emit messages tagged with departure ports.
    fn round(
        &mut self,
        info: &LocalInfo,
        round: usize,
        inbox: &[(Port, Self::Msg)],
    ) -> Vec<(Port, Self::Msg)>;

    /// The node's output, once decided. The simulation stops when every node
    /// has decided.
    fn output(&self, info: &LocalInfo) -> Option<Self::Output>;
}

/// Errors raised by the simulator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CongestError {
    /// A message exceeded the per-edge-per-round bandwidth.
    BandwidthExceeded {
        /// Sending node.
        node: usize,
        /// Departure port.
        port: Port,
        /// Message size.
        bits: usize,
        /// Bandwidth limit `B`.
        limit: usize,
    },
    /// A node addressed a port beyond its degree.
    InvalidPort {
        /// Sending node.
        node: usize,
        /// Offending port.
        port: Port,
    },
    /// Not all nodes decided within the round limit.
    RoundLimit {
        /// The limit that was hit.
        limit: usize,
    },
    /// The instance's adjacency is corrupt: an edge present at the sender
    /// has no reverse port at the receiver.
    AsymmetricEdge {
        /// Sending node.
        node: usize,
        /// Receiving node with no port back.
        neighbor: usize,
    },
}

impl fmt::Display for CongestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CongestError::BandwidthExceeded {
                node,
                port,
                bits,
                limit,
            } => write!(
                f,
                "node {node} sent {bits} bits through port {port}, limit is {limit}"
            ),
            CongestError::InvalidPort { node, port } => {
                write!(f, "node {node} addressed invalid port {port}")
            }
            CongestError::RoundLimit { limit } => {
                write!(f, "simulation did not terminate within {limit} rounds")
            }
            CongestError::AsymmetricEdge { node, neighbor } => {
                write!(
                    f,
                    "edge {node} -> {neighbor} has no reverse port at the receiver"
                )
            }
        }
    }
}

impl Error for CongestError {}

/// Result of a CONGEST simulation.
#[derive(Clone, Debug)]
pub struct CongestReport<O> {
    /// Rounds until every node decided.
    pub rounds: usize,
    /// Per-node outputs.
    pub outputs: Vec<O>,
    /// Total messages delivered.
    pub total_messages: u64,
    /// Total bits delivered.
    pub total_bits: u64,
    /// Largest single message observed.
    pub max_message_bits: usize,
}

/// Runs machines of type `N` on every node of `inst` with per-edge
/// bandwidth `bandwidth` bits per round.
///
/// # Errors
///
/// Fails when a message violates the bandwidth, a port is invalid, or the
/// round limit is reached before every node decides.
pub fn run_congest<N: CongestNode>(
    inst: &Instance,
    bandwidth: usize,
    max_rounds: usize,
) -> Result<CongestReport<N::Output>, CongestError> {
    let n = inst.n();
    let infos: Vec<LocalInfo> = (0..n)
        .map(|v| LocalInfo {
            id: inst.graph.id(v),
            degree: inst.graph.degree(v),
            label: inst.labels[v],
            n,
            bandwidth,
        })
        .collect();
    let mut machines: Vec<N> = infos.iter().map(N::init).collect();
    let mut inboxes: Vec<Vec<(Port, N::Msg)>> = vec![Vec::new(); n];
    let mut report = CongestReport {
        rounds: 0,
        outputs: Vec::new(),
        total_messages: 0,
        total_bits: 0,
        max_message_bits: 0,
    };

    for round in 0..max_rounds {
        if let Some(outputs) = (0..n)
            .map(|v| machines[v].output(&infos[v]))
            .collect::<Option<Vec<_>>>()
        {
            report.rounds = round;
            report.outputs = outputs;
            return Ok(report);
        }
        let mut next_inboxes: Vec<Vec<(Port, N::Msg)>> = vec![Vec::new(); n];
        for v in 0..n {
            let inbox = std::mem::take(&mut inboxes[v]);
            let outgoing = machines[v].round(&infos[v], round, &inbox);
            for (port, msg) in outgoing {
                let bits = msg.bits();
                if bits > bandwidth {
                    return Err(CongestError::BandwidthExceeded {
                        node: v,
                        port,
                        bits,
                        limit: bandwidth,
                    });
                }
                let Some(w) = inst.graph.neighbor(v, port) else {
                    return Err(CongestError::InvalidPort { node: v, port });
                };
                let Some(arrival) = inst.graph.port_to(w, v) else {
                    return Err(CongestError::AsymmetricEdge {
                        node: v,
                        neighbor: w,
                    });
                };
                report.total_messages += 1;
                report.total_bits += bits as u64;
                report.max_message_bits = report.max_message_bits.max(bits);
                next_inboxes[w].push((arrival, msg));
            }
        }
        inboxes = next_inboxes;
    }

    if let Some(outputs) = (0..n)
        .map(|v| machines[v].output(&infos[v]))
        .collect::<Option<Vec<_>>>()
    {
        report.rounds = max_rounds;
        report.outputs = outputs;
        return Ok(report);
    }
    Err(CongestError::RoundLimit { limit: max_rounds })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vc_graph::{GraphBuilder, Instance, NodeLabel};

    fn path_instance(n: usize) -> Instance {
        let mut b = GraphBuilder::with_nodes(n);
        for v in 0..n - 1 {
            b.connect_auto(v, v + 1).unwrap();
        }
        Instance::new(b.build().unwrap(), vec![NodeLabel::empty(); n])
    }

    /// Classic max-id flooding: every node learns the maximum identifier;
    /// decides after `n` rounds (a node knows `n` from its input).
    struct FloodMax {
        best: u64,
        round_seen: usize,
    }

    impl CongestNode for FloodMax {
        type Msg = u64;
        type Output = u64;

        fn init(info: &LocalInfo) -> Self {
            FloodMax {
                best: info.id,
                round_seen: 0,
            }
        }

        fn round(
            &mut self,
            info: &LocalInfo,
            round: usize,
            inbox: &[(Port, u64)],
        ) -> Vec<(Port, u64)> {
            self.round_seen = round + 1;
            for &(_, id) in inbox {
                self.best = self.best.max(id);
            }
            (1..=info.degree as u8)
                .map(|p| (Port::new(p), self.best))
                .collect()
        }

        fn output(&self, info: &LocalInfo) -> Option<u64> {
            (self.round_seen >= info.n).then_some(self.best)
        }
    }

    #[test]
    fn flood_max_converges() {
        let inst = path_instance(6);
        let report = run_congest::<FloodMax>(&inst, 64, 100).unwrap();
        assert!(report.outputs.iter().all(|&o| o == 6));
        assert_eq!(report.rounds, 6);
        assert!(report.total_messages > 0);
        assert_eq!(report.max_message_bits, 64);
    }

    #[test]
    fn bandwidth_violation_detected() {
        let inst = path_instance(3);
        let err = run_congest::<FloodMax>(&inst, 32, 100).unwrap_err();
        assert!(matches!(err, CongestError::BandwidthExceeded { .. }));
    }

    /// A machine that never decides.
    struct Mute;

    impl CongestNode for Mute {
        type Msg = bool;
        type Output = ();

        fn init(_: &LocalInfo) -> Self {
            Mute
        }

        fn round(&mut self, _: &LocalInfo, _: usize, _: &[(Port, bool)]) -> Vec<(Port, bool)> {
            Vec::new()
        }

        fn output(&self, _: &LocalInfo) -> Option<()> {
            None
        }
    }

    #[test]
    fn round_limit_enforced() {
        let inst = path_instance(3);
        let err = run_congest::<Mute>(&inst, 8, 5).unwrap_err();
        assert_eq!(err, CongestError::RoundLimit { limit: 5 });
        assert!(!err.to_string().is_empty());
    }

    /// A machine that addresses a port beyond its degree.
    struct BadPort;

    impl CongestNode for BadPort {
        type Msg = bool;
        type Output = ();

        fn init(_: &LocalInfo) -> Self {
            BadPort
        }

        fn round(&mut self, _: &LocalInfo, _: usize, _: &[(Port, bool)]) -> Vec<(Port, bool)> {
            vec![(Port::new(99), true)]
        }

        fn output(&self, _: &LocalInfo) -> Option<()> {
            None
        }
    }

    #[test]
    fn invalid_port_detected() {
        let inst = path_instance(3);
        let err = run_congest::<BadPort>(&inst, 8, 5).unwrap_err();
        assert!(matches!(err, CongestError::InvalidPort { .. }));
    }

    #[test]
    fn bit_sizes() {
        assert_eq!(true.bits(), 1);
        assert_eq!(0u8.bits(), 8);
        assert_eq!(0u32.bits(), 32);
        assert_eq!(0u64.bits(), 64);
        assert_eq!(vec![true, false, true].bits(), 3);
        assert_eq!(Some(7u8).bits(), 9);
        assert_eq!(None::<u8>.bits(), 1);
        assert_eq!((true, 1u8).bits(), 9);
    }
}
