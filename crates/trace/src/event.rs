//! The typed event stream of a traced execution.
//!
//! Events mirror the observable transitions of the §2.2 query model (a
//! query leaves the algorithm, a node joins `V_v`, the frontier deepens,
//! the answer is fixed) plus the scheduling transitions of the sharded
//! engine (a chunk of start nodes is claimed, timed and merged). They
//! carry only primitive data so the crate stays below `vc-model` in the
//! dependency graph.

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
    /// A fleet supervisor declared a worker dead: its partial checkpoint
    /// made no progress for a full liveness deadline (or its process
    /// exited). Emitted by `vc-fleet`, never by the engine itself.
    WorkerSuspected {
        /// Fleet worker index.
        worker: usize,
        /// Chunks the worker had completed when suspected.
        completed: usize,
        /// Chunks the worker was assigned.
        assigned: usize,
    },
    /// A fleet supervisor reassigned a dead worker's chunk to a new
    /// launch.
    ChunkReassigned {
        /// Chunk index in the sweep's fixed partition.
        chunk: usize,
        /// How many launches have now been asked to run this chunk.
        attempt: u32,
    },
    /// Partial checkpoints were merged into a resumable checkpoint
    /// (`splice_partial`), possibly with gaps left to reassign.
    PartialSplice {
        /// Chunks present in the merged checkpoint.
        merged: usize,
        /// Chunks still missing after the merge.
        missing: usize,
    },
    /// A sweep service scheduler admitted a cache-miss job into its run
    /// queue. Emitted by `vc-serve`, never by the engine itself.
    JobAdmitted {
        /// The service-assigned job id.
        job: u64,
        /// Jobs waiting in the queue after admission (the admitted job
        /// included).
        queue_depth: usize,
    },
    /// A submitted sweep spec resolved to an already-stored result in the
    /// service's content-addressed store — no execution scheduled.
    CacheHit {
        /// The service-assigned job id of the hit submission.
        job: u64,
    },
    /// A running batch job was preempted so a higher-priority job could
    /// take the worker pool; its checkpoint of whole chunks is parked for
    /// a later resume.
    JobPreempted {
        /// The preempted job's id.
        job: u64,
        /// Chunks the job had completed when it yielded.
        completed_chunks: usize,
    },
    /// A parked, previously preempted job re-entered execution from its
    /// checkpoint.
    JobResumed {
        /// The resumed job's id.
        job: u64,
        /// Chunks already complete at resume time.
        completed_chunks: usize,
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
            TraceEvent::WorkerSuspected {
                worker,
                completed,
                assigned,
            } => write!(
                f,
                "suspect worker {worker} dead ({completed}/{assigned} chunks done)"
            ),
            TraceEvent::ChunkReassigned { chunk, attempt } => {
                write!(f, "reassign chunk {chunk} (attempt {attempt})")
            }
            TraceEvent::PartialSplice { merged, missing } => {
                write!(
                    f,
                    "partial splice: {merged} chunks merged, {missing} missing"
                )
            }
            TraceEvent::JobAdmitted { job, queue_depth } => {
                write!(f, "admit job {job} (queue depth {queue_depth})")
            }
            TraceEvent::CacheHit { job } => write!(f, "cache hit for job {job}"),
            TraceEvent::JobPreempted {
                job,
                completed_chunks,
            } => write!(f, "preempt job {job} ({completed_chunks} chunks done)"),
            TraceEvent::JobResumed {
                job,
                completed_chunks,
            } => write!(f, "resume job {job} ({completed_chunks} chunks done)"),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// One event of every variant, in declaration order.
    pub(crate) fn every_variant() -> [TraceEvent; 18] {
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
            TraceEvent::WorkerSuspected {
                worker: 1,
                completed: 2,
                assigned: 3,
            },
            TraceEvent::ChunkReassigned {
                chunk: 2,
                attempt: 2,
            },
            TraceEvent::PartialSplice {
                merged: 5,
                missing: 1,
            },
            TraceEvent::JobAdmitted {
                job: 1,
                queue_depth: 2,
            },
            TraceEvent::CacheHit { job: 1 },
            TraceEvent::JobPreempted {
                job: 1,
                completed_chunks: 3,
            },
            TraceEvent::JobResumed {
                job: 1,
                completed_chunks: 3,
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
