//! The typed event stream of a traced execution.
//!
//! Events mirror the observable transitions of the §2.2 query model (a
//! query leaves the algorithm, a node joins `V_v`, the frontier deepens,
//! the answer is fixed) plus the scheduling transitions of the sharded
//! engine (a chunk of start nodes is claimed, timed and merged). They
//! carry only primitive data so the crate stays below `vc-model` in the
//! dependency graph. Fleet and service transitions are not events: the
//! `vc-fleet-report/v1` and `vc-serve-report/v1` documents record them.

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
    /// The engine planned the sweep's chunk partition (once per sweep,
    /// before any chunk is merged). The plan is a pure function of the
    /// start count, so the payload is thread-count-invariant.
    ChunkPlanned {
        /// Total chunks covering the start set.
        chunks: usize,
        /// Start nodes per chunk (the final chunk may be shorter).
        chunk_size: usize,
    },
    /// The sweep was restricted to a subset of the planned chunks — the
    /// fleet-worker path. Emitted right after [`TraceEvent::ChunkPlanned`],
    /// once per contiguous run `lo..hi` of the configured chunk set;
    /// unpartitioned sweeps emit none.
    PartitionRestricted {
        /// First chunk of the slice.
        lo: usize,
        /// Past-the-end chunk of the slice.
        hi: usize,
        /// Chunks in the full plan being sliced.
        total: usize,
    },
    /// An engine worker claimed a chunk of start nodes (once per chunk,
    /// however many workers help finish it).
    ChunkClaimed {
        /// Chunk index in the fixed partition of the start set.
        chunk: usize,
        /// Number of start nodes in the chunk.
        starts: usize,
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
    /// The merge loop absorbed a chunk's partial results (always in chunk
    /// order — the determinism anchor).
    ChunkMerged {
        /// Chunk index.
        chunk: usize,
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
    /// A chunk panicked on every permitted attempt and was abandoned; its
    /// start nodes carry no outputs or records in the merged report.
    ChunkAborted {
        /// Chunk index.
        chunk: usize,
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
            TraceEvent::ChunkPlanned { chunks, chunk_size } => {
                write!(f, "plan {chunks} chunks of {chunk_size} starts")
            }
            TraceEvent::PartitionRestricted { lo, hi, total } => {
                write!(f, "partition restricted to chunks {lo}..{hi}/{total}")
            }
            TraceEvent::ChunkClaimed { chunk, starts } => {
                write!(f, "claim chunk {chunk} ({starts} starts)")
            }
            TraceEvent::ChunkTimed { chunk, nanos } => {
                write!(f, "chunk {chunk} took {nanos} ns")
            }
            TraceEvent::ChunkMerged { chunk } => write!(f, "merge chunk {chunk}"),
            TraceEvent::ChunkRetried { chunk, attempt } => {
                write!(f, "retry chunk {chunk} (attempt {attempt})")
            }
            TraceEvent::ChunkAborted { chunk } => write!(f, "abort chunk {chunk}"),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// One event of every variant, in declaration order.
    pub(crate) fn every_variant() -> [TraceEvent; 11] {
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
            TraceEvent::ChunkPlanned {
                chunks: 2,
                chunk_size: 64,
            },
            TraceEvent::PartitionRestricted {
                lo: 0,
                hi: 1,
                total: 2,
            },
            TraceEvent::ChunkClaimed {
                chunk: 0,
                starts: 64,
            },
            TraceEvent::ChunkTimed {
                chunk: 0,
                nanos: 12,
            },
            TraceEvent::ChunkMerged { chunk: 0 },
            TraceEvent::ChunkRetried {
                chunk: 0,
                attempt: 1,
            },
            TraceEvent::ChunkAborted { chunk: 0 },
        ]
    }

    #[test]
    fn events_display() {
        for e in every_variant() {
            assert!(!e.to_string().is_empty());
        }
    }
}
