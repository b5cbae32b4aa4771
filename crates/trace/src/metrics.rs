//! [`SweepMetrics`]: the production tracer — counters, log2 histograms
//! and chunk timings aggregated over a whole sweep.
//!
//! The struct is split along the determinism boundary:
//!
//! * [`QueryStats`] holds everything derived from the *query stream* —
//!   counters and [`Log2Hist`]s of volume / distance / queries-per-start.
//!   All state is integral, so per-share partials absorbed chunk by chunk
//!   are bit-identical to a serial fold for **any worker-thread count**
//!   (the determinism suite asserts this directly).
//! * [`SchedStats`] holds the *scheduling* observations — wall time per
//!   share of a chunk — which legitimately vary between runs and are
//!   therefore excluded from every determinism comparison.

use crate::event::TraceEvent;
use crate::hist::Log2Hist;
use crate::tracer::{MergeTracer, Tracer};

/// Deterministic sweep totals: identical for every thread count.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Executions finalized (equals the cost summary's `runs`).
    pub executions: u64,
    /// Executions truncated by a budget/oracle error.
    pub truncated: u64,
    /// Queries issued, including ones the world refused.
    pub queries_issued: u64,
    /// Nodes admitted into some `V_v` across all executions.
    pub nodes_revealed: u64,
    /// Strict frontier advances (depth records) across all executions.
    pub frontier_advances: u64,
    /// Chunk plans announced (one per sweep; sums across absorbed sweeps).
    pub chunks_planned: u64,
    /// Planned starts-per-chunk (the adaptive chunk size; max across
    /// absorbed sweeps). Derived from the start count alone, so it is
    /// thread-invariant like every other field here.
    pub planned_chunk_size: u64,
    /// Partition restrictions announced (one per range-restricted sweep;
    /// 0 for unpartitioned sweeps). Absorbing every partition's metrics
    /// of an N-way fleet run sums this to N.
    pub partitions: u64,
    /// Chunks inside the announced partition slices (sums `hi - lo`
    /// across absorbed partitions; a full fleet's partitions sum to the
    /// planned chunk count).
    pub partition_chunks: u64,
    /// Chunks claimed by workers (= the planned chunk count of the sweep).
    pub chunks_claimed: u64,
    /// Chunks absorbed by the merge loop (= `chunks_claimed` minus any
    /// aborted chunks).
    pub chunks_merged: u64,
    /// Chunk retries after a panic. Deterministic: a panicking chunk
    /// panics identically on every run, so retries are thread-invariant.
    pub chunks_retried: u64,
    /// Chunks abandoned after exhausting their retries.
    pub chunks_aborted: u64,
    /// Distribution of per-execution volume `|V_v|`.
    pub volume: Log2Hist,
    /// Distribution of per-execution discovery-depth (distance bound).
    pub distance: Log2Hist,
    /// Distribution of queries issued per execution.
    pub queries_per_start: Log2Hist,
    /// Distribution of start nodes per claimed chunk (every chunk is the
    /// planned size except possibly the final remainder).
    pub chunk_starts: Log2Hist,
}

impl QueryStats {
    fn absorb(&mut self, other: &QueryStats) {
        self.executions += other.executions;
        self.truncated += other.truncated;
        self.queries_issued += other.queries_issued;
        self.nodes_revealed += other.nodes_revealed;
        self.frontier_advances += other.frontier_advances;
        self.chunks_planned += other.chunks_planned;
        self.planned_chunk_size = self.planned_chunk_size.max(other.planned_chunk_size);
        self.partitions += other.partitions;
        self.partition_chunks += other.partition_chunks;
        self.chunks_claimed += other.chunks_claimed;
        self.chunks_merged += other.chunks_merged;
        self.chunks_retried += other.chunks_retried;
        self.chunks_aborted += other.chunks_aborted;
        self.volume.merge(&other.volume);
        self.distance.merge(&other.distance);
        self.queries_per_start.merge(&other.queries_per_start);
        self.chunk_starts.merge(&other.chunk_starts);
    }
}

/// Wall-clock / scheduling observations. **Varies between runs** — never
/// compare these in a determinism test. Counted per *share*: the starts
/// one worker ran of one chunk, as its claimer or as a helper. A chunk
/// run alone is one share; a helped chunk is several.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Shares that reported a wall time (`ChunkTimed` events).
    pub chunks_timed: u64,
    /// Total wall-clock nanoseconds summed over shares (CPU-seconds-ish:
    /// overlapping shares on different workers both count in full).
    pub chunk_nanos_total: u128,
    /// Slowest single share in nanoseconds.
    pub chunk_nanos_max: u64,
}

impl SchedStats {
    fn absorb(&mut self, other: &SchedStats) {
        self.chunks_timed += other.chunks_timed;
        self.chunk_nanos_total += other.chunk_nanos_total;
        self.chunk_nanos_max = self.chunk_nanos_max.max(other.chunk_nanos_max);
    }
}

/// The aggregating tracer used by production sweeps: one per share in
/// the sharded engine, merged chunk by chunk into the sweep total.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SweepMetrics {
    /// Deterministic query-stream totals.
    pub query: QueryStats,
    /// Run-varying scheduling observations.
    pub sched: SchedStats,
}

impl SweepMetrics {
    /// A fresh, empty metrics sink.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Tracer for SweepMetrics {
    // Always inlined: each emission site passes a constant variant, so
    // the match folds to that one arm, as cheap as a dedicated method.
    #[inline(always)]
    fn event(&mut self, event: TraceEvent) {
        let q = &mut self.query;
        match event {
            TraceEvent::QueryIssued { .. } => q.queries_issued += 1,
            TraceEvent::NodeRevealed { .. } => q.nodes_revealed += 1,
            TraceEvent::FrontierAdvanced { .. } => q.frontier_advances += 1,
            TraceEvent::AnswerFinalized {
                volume,
                distance_upper,
                queries,
                completed,
                ..
            } => {
                q.executions += 1;
                q.truncated += u64::from(!completed);
                q.volume.observe(volume as u64);
                q.distance.observe(u64::from(distance_upper));
                q.queries_per_start.observe(queries);
            }
            TraceEvent::ChunkPlanned { chunk_size, .. } => {
                q.chunks_planned += 1;
                q.planned_chunk_size = q.planned_chunk_size.max(chunk_size as u64);
            }
            TraceEvent::PartitionRestricted { lo, hi, .. } => {
                q.partitions += 1;
                q.partition_chunks += (hi - lo) as u64;
            }
            TraceEvent::ChunkClaimed { starts, .. } => {
                q.chunks_claimed += 1;
                q.chunk_starts.observe(starts as u64);
            }
            TraceEvent::ChunkTimed { nanos, .. } => {
                self.sched.chunks_timed += 1;
                self.sched.chunk_nanos_total += u128::from(nanos);
                self.sched.chunk_nanos_max = self.sched.chunk_nanos_max.max(nanos);
            }
            TraceEvent::ChunkMerged { .. } => q.chunks_merged += 1,
            TraceEvent::ChunkRetried { .. } => q.chunks_retried += 1,
            TraceEvent::ChunkAborted { .. } => q.chunks_aborted += 1,
        }
    }
}

impl MergeTracer for SweepMetrics {
    fn absorb(&mut self, other: Self) {
        self.query.absorb(&other.query);
        self.sched.absorb(&other.sched);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn execution(m: &mut SweepMetrics, e: u64) {
        m.event(TraceEvent::QueryIssued { from: 0, port: 1 });
        m.event(TraceEvent::NodeRevealed { node: 1, depth: 1 });
        m.event(TraceEvent::FrontierAdvanced { depth: 1 });
        m.event(TraceEvent::AnswerFinalized {
            root: 0,
            volume: 2 + e as usize,
            distance_upper: 1,
            queries: 1 + e,
            completed: e.is_multiple_of(3),
        });
    }

    fn sample_events(m: &mut SweepMetrics, executions: u64) {
        (0..executions).for_each(|e| execution(m, e));
    }

    fn claimed(chunk: usize, starts: usize) -> TraceEvent {
        TraceEvent::ChunkClaimed { chunk, starts }
    }

    fn planned(chunks: usize, chunk_size: usize) -> TraceEvent {
        TraceEvent::ChunkPlanned { chunks, chunk_size }
    }

    fn timed(chunk: usize, nanos: u64) -> TraceEvent {
        TraceEvent::ChunkTimed { chunk, nanos }
    }

    #[test]
    fn counters_follow_the_event_stream() {
        let mut m = SweepMetrics::new();
        sample_events(&mut m, 6);
        assert_eq!(m.query.executions, 6);
        assert_eq!(m.query.truncated, 4); // e % 3 != 0 for e in {1,2,4,5}
        assert_eq!(m.query.queries_issued, 6);
        assert_eq!(m.query.nodes_revealed, 6);
        assert_eq!(m.query.frontier_advances, 6);
        assert_eq!(m.query.volume.count(), 6);
        assert_eq!(m.query.volume.max(), 7);
        assert_eq!(m.query.queries_per_start.max(), 6);
    }

    #[test]
    fn absorb_is_partition_independent() {
        let mut serial = SweepMetrics::new();
        sample_events(&mut serial, 20);
        serial.event(claimed(0, 64));
        serial.event(TraceEvent::ChunkMerged { chunk: 0 });

        let mut a = SweepMetrics::new();
        sample_events(&mut a, 13);
        a.event(claimed(0, 64));
        a.event(TraceEvent::ChunkMerged { chunk: 0 });
        let mut b = SweepMetrics::new();
        // The same tail: events 13..20 of the serial stream.
        (13..20).for_each(|e| execution(&mut b, e));
        a.absorb(b);
        assert_eq!(a.query, serial.query);
    }

    #[test]
    fn chunk_plan_observability_is_recorded() {
        let mut m = SweepMetrics::new();
        m.event(planned(3, 128));
        m.event(claimed(0, 128));
        m.event(claimed(1, 128));
        m.event(claimed(2, 40));
        assert_eq!(m.query.chunks_planned, 1);
        assert_eq!(m.query.planned_chunk_size, 128);
        assert_eq!(m.query.chunks_claimed, 3);
        assert_eq!(m.query.chunk_starts.count(), 3);
        assert_eq!(m.query.chunk_starts.max(), 128);
        assert_eq!(m.query.chunk_starts.sum(), 296);
        // Absorbing another sweep's metrics sums the plan count but keeps
        // the largest planned size.
        let mut other = SweepMetrics::new();
        other.event(planned(10, 64));
        m.absorb(other);
        assert_eq!(m.query.chunks_planned, 2);
        assert_eq!(m.query.planned_chunk_size, 128);
    }

    #[test]
    fn partition_metrics_absorb_across_partitions() {
        // Three fleet partitions of one 10-chunk sweep: absorbed, their
        // slices account for every planned chunk exactly once.
        let mut merged = SweepMetrics::new();
        for (lo, hi) in [(0, 4), (4, 7), (7, 10)] {
            let mut part = SweepMetrics::new();
            part.event(planned(10, 64));
            part.event(TraceEvent::PartitionRestricted { lo, hi, total: 10 });
            merged.absorb(part);
        }
        assert_eq!(merged.query.partitions, 3);
        assert_eq!(merged.query.partition_chunks, 10);
        // An unpartitioned sweep announces nothing.
        let mut solo = SweepMetrics::new();
        solo.event(planned(10, 64));
        assert_eq!(solo.query.partitions, 0);
        assert_eq!(solo.query.partition_chunks, 0);
    }

    #[test]
    fn sched_stats_aggregate_timings() {
        let mut m = SweepMetrics::new();
        m.event(timed(0, 100));
        m.event(timed(1, 300));
        let mut other = SweepMetrics::new();
        other.event(timed(2, 200));
        m.absorb(other);
        assert_eq!(m.sched.chunks_timed, 3);
        assert_eq!(m.sched.chunk_nanos_total, 600);
        assert_eq!(m.sched.chunk_nanos_max, 300);
    }
}
