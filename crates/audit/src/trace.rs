//! Probe traces: the auditor's own record of the query stream.
//!
//! A [`ProbeTrace`] is append-only and captures both directions of every
//! interaction — the probe the algorithm issued and the answer the world
//! gave — so that every contract check can be recomputed after the fact
//! without trusting the world's internal counters.

use vc_graph::Port;
use vc_model::oracle::{NodeView, QueryError};

/// One recorded interaction between an algorithm and an oracle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Probe {
    /// The initial view of the root node (the execution's `v`, already in
    /// `V_v` before any query).
    Root {
        /// The view the world presented for the root.
        view: NodeView,
    },
    /// A `query(from, port)` step (§2.2).
    Query {
        /// Query origin handle.
        from: usize,
        /// Queried port.
        port: Port,
        /// The world's answer.
        result: Result<NodeView, QueryError>,
    },
    /// A request for the next bit of `r_node`.
    RandBit {
        /// The node whose random string was read.
        node: usize,
        /// The world's answer.
        result: Result<bool, QueryError>,
    },
}

impl Probe {
    /// Short human-readable rendering used in diagnostics.
    pub fn describe(&self) -> String {
        match self {
            Probe::Root { view } => format!("root view of node {} (id {})", view.node, view.id),
            Probe::Query { from, port, result } => match result {
                Ok(v) => format!("query({from}, {port}) -> node {} (id {})", v.node, v.id),
                Err(e) => format!("query({from}, {port}) -> error: {e}"),
            },
            Probe::RandBit { node, result } => match result {
                Ok(b) => format!("rand_bit({node}) -> {b}"),
                Err(e) => format!("rand_bit({node}) -> error: {e}"),
            },
        }
    }
}

/// The full, append-only record of an audited execution.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProbeTrace {
    /// Recorded probes, in issue order. The first entry is always
    /// [`Probe::Root`].
    pub probes: Vec<Probe>,
}

impl ProbeTrace {
    /// Number of recorded probes (including the root view).
    pub fn len(&self) -> usize {
        self.probes.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.probes.is_empty()
    }

    /// The root view the trace started from, if recorded.
    pub fn root_view(&self) -> Option<&NodeView> {
        match self.probes.first() {
            Some(Probe::Root { view }) => Some(view),
            _ => None,
        }
    }
}
