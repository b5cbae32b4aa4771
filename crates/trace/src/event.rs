//! The typed event stream of a traced execution.
//!
//! Events mirror the observable transitions of the §2.2 query model (a
//! query leaves the algorithm, a node joins `V_v`, the frontier deepens,
//! the answer is fixed) plus the two things only a share of a chunk sees
//! (its wall time, and the retry of a panicked chunk). They carry only
//! primitive data so the crate stays below `vc-model` in the dependency
//! graph. The chunk plan and the claimed, merged and aborted chunks are
//! not events: `vc-engine`'s `EngineReport` and `plan_chunks` hold them.
//! Nor are fleet and service transitions: the `vc-fleet-report/v1` and
//! `vc-serve-report/v1` documents record them.

use std::fmt;

/// One observable transition of a traced execution or sweep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// The algorithm issued `query(from, port)` — counted whether or not
    /// the world answers it (budget refusals are part of the trace).
    QueryIssued {
        /// Query origin (world-internal node handle).
        from: usize,
        /// Queried port number (1-based, as in §2.1).
        port: u8,
    },
    /// A query admitted a previously unvisited node into `V_v`.
    NodeRevealed {
        /// The newly revealed node handle.
        node: usize,
        /// Its discovery depth (path-length distance bound).
        depth: u32,
    },
    /// The execution's maximum discovery depth increased — the exploration
    /// frontier moved strictly further from the initiating node.
    FrontierAdvanced {
        /// The new maximum depth.
        depth: u32,
    },
    /// The execution finished and its output was fixed (possibly the
    /// fallback output, when `completed` is false).
    AnswerFinalized {
        /// The initiating node.
        root: usize,
        /// Final `|V_v|` (volume, Definition 2.2).
        volume: usize,
        /// Final discovery-depth bound on the distance cost.
        distance_upper: u32,
        /// Queries issued over the whole execution.
        queries: u64,
        /// Whether the algorithm finished without a budget/oracle error.
        completed: bool,
    },
    /// A worker finished its share of a chunk — the starts it drew from
    /// the chunk's cursor, as claimer or helper — and recorded its wall
    /// time: one event per share, so a helped chunk emits several. The
    /// only event whose payload varies between runs.
    ChunkTimed {
        /// Chunk index.
        chunk: usize,
        /// Wall-clock nanoseconds the share's executions took.
        nanos: u64,
    },
    /// A chunk's executions panicked and the engine is re-running the
    /// chunk from a fresh scratch (bounded retry; see `vc-engine`).
    /// Deterministic: a chunk that panics once panics on every run, so
    /// retries are thread-count-invariant.
    ChunkRetried {
        /// Chunk index.
        chunk: usize,
        /// Retry attempt number (1 = first retry).
        attempt: u32,
    },
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceEvent::QueryIssued { from, port } => write!(f, "query({from}, {port})"),
            TraceEvent::NodeRevealed { node, depth } => {
                write!(f, "reveal node {node} at depth {depth}")
            }
            TraceEvent::FrontierAdvanced { depth } => write!(f, "frontier -> depth {depth}"),
            TraceEvent::AnswerFinalized {
                root,
                volume,
                distance_upper,
                queries,
                completed,
            } => write!(
                f,
                "finalize root {root}: volume {volume}, depth {distance_upper}, \
                 {queries} queries, {}",
                if *completed { "completed" } else { "truncated" }
            ),
            TraceEvent::ChunkTimed { chunk, nanos } => {
                write!(f, "chunk {chunk} took {nanos} ns")
            }
            TraceEvent::ChunkRetried { chunk, attempt } => {
                write!(f, "retry chunk {chunk} (attempt {attempt})")
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// One event of every variant, in declaration order.
    pub(crate) fn every_variant() -> [TraceEvent; 6] {
        [
            TraceEvent::QueryIssued { from: 3, port: 1 },
            TraceEvent::NodeRevealed { node: 4, depth: 2 },
            TraceEvent::FrontierAdvanced { depth: 2 },
            TraceEvent::AnswerFinalized {
                root: 3,
                volume: 5,
                distance_upper: 2,
                queries: 7,
                completed: true,
            },
            TraceEvent::ChunkTimed {
                chunk: 0,
                nanos: 12,
            },
            TraceEvent::ChunkRetried {
                chunk: 0,
                attempt: 1,
            },
        ]
    }

    #[test]
    fn events_display() {
        for e in every_variant() {
            assert!(!e.to_string().is_empty());
        }
    }
}
