//! [`TraceReport`]: the machine-readable sweep report
//! (`vc-trace-report/v1`).
//!
//! [`trace_case`] turns a traced sweep into a [`CaseTrace`] and a set of
//! cases makes a [`TraceReport`], whose [`TraceReport::to_json`] output is
//! what `examples/trace_report.rs` writes and `cargo run -p xtask --
//! check-json` validates in CI. The types live here rather than in
//! `vc-trace`, which stays dependency-free, so the document is written by
//! the `vc-json` writer.
//!
//! Schema stability contract: fields may be *added* under the `/v1`
//! schema name; renaming or removing any existing field requires bumping
//! to `/v2` (downstream dashboards key on these names).

use vc_engine::Engine;
use vc_graph::Instance;
use vc_json::{obj, Json};
use vc_model::run::{QueryAlgorithm, RunConfig};
use vc_trace::{Log2Hist, SweepMetrics};

/// Schema identifier written into every report.
pub const TRACE_REPORT_SCHEMA: &str = "vc-trace-report/v1";

/// One traced sweep: a named case, its merged metrics, its chunk ledger
/// (read off the `EngineReport` and the plan) and engine-level
/// throughput.
#[derive(Clone, Debug)]
pub struct CaseTrace {
    /// Case name (e.g. `leaf-coloring/rw`).
    pub case: String,
    /// Instance size.
    pub n: usize,
    /// Content-addressed instance identity (hex `InstanceId`). Pins the
    /// case to the exact `(G, L)` it measured.
    pub instance_id: String,
    /// Content-addressed sweep identity (hex `SweepId`): instance,
    /// algorithm, configuration, start set and chunk size.
    pub sweep_id: String,
    /// Worker threads the engine actually used.
    pub threads: usize,
    /// Wall-clock nanoseconds of the whole sweep.
    pub elapsed_nanos: u64,
    /// Executions per wall-clock second.
    pub starts_per_sec: f64,
    /// Oracle queries per wall-clock second.
    pub queries_per_sec: f64,
    /// Planned starts per chunk (`plan_chunks(starts).chunk_size`).
    pub planned_chunk_size: usize,
    /// Chunks merged into the report (its `completed_chunks`).
    pub chunks_merged: usize,
    /// Chunks abandoned after their retries (its `aborted_chunks`).
    pub chunks_aborted: usize,
    /// Starts per claimed chunk (merged or aborted), from the plan's
    /// bounds: every chunk is the planned size but possibly the last.
    pub chunk_starts: Log2Hist,
    /// The merged sweep metrics.
    pub metrics: SweepMetrics,
}

/// A set of traced sweeps, serializable as one `vc-trace-report/v1`
/// JSON document.
#[derive(Clone, Debug, Default)]
pub struct TraceReport {
    /// The traced cases, in emission order.
    pub cases: Vec<CaseTrace>,
}

fn hist(h: &Log2Hist) -> Json {
    let buckets = h.nonzero_buckets().into_iter();
    obj! {
        "count": h.count(), "sum": h.sum(), "max": h.max(),
        "mean": Json::Raw(format!("{:.3}", h.mean())),
        "p50_upper": h.quantile_upper(0.5), "p99_upper": h.quantile_upper(0.99),
        "buckets": Json::arr(buckets.map(|(b, c)| Json::arr([Json::from(b), c.into()]))),
    }
}

impl TraceReport {
    /// A report over the given cases.
    pub fn new(cases: Vec<CaseTrace>) -> Self {
        Self { cases }
    }

    /// Serializes the report as a `vc-trace-report/v1` JSON document.
    pub fn to_json(&self) -> String {
        let case = |c: &CaseTrace| {
            let (q, s) = (&c.metrics.query, &c.metrics.sched);
            obj! {
                "case": &c.case, "n": c.n, "instance_id": &c.instance_id,
                "sweep_id": &c.sweep_id, "threads": c.threads, "elapsed_nanos": c.elapsed_nanos,
                "starts_per_sec": Json::Raw(format!("{:.1}", c.starts_per_sec)),
                "queries_per_sec": Json::Raw(format!("{:.1}", c.queries_per_sec)),
                "executions": q.executions, "truncated": q.truncated,
                "queries_issued": q.queries_issued, "nodes_revealed": q.nodes_revealed,
                // A case is one sweep, so one plan; a claimed chunk is
                // either merged or aborted.
                "frontier_advances": q.frontier_advances, "chunks_planned": 1usize,
                "planned_chunk_size": c.planned_chunk_size,
                "chunks_claimed": c.chunks_merged + c.chunks_aborted,
                "chunks_merged": c.chunks_merged, "chunks_retried": q.chunks_retried,
                "chunks_aborted": c.chunks_aborted, "volume": hist(&q.volume),
                "distance": hist(&q.distance), "queries_per_start": hist(&q.queries_per_start),
                "chunk_starts": hist(&c.chunk_starts),
                "sched": obj! {
                    "chunks_timed": s.chunks_timed, "chunk_nanos_total": s.chunk_nanos_total,
                    "chunk_nanos_max": s.chunk_nanos_max,
                },
            }
        };
        let cases = Json::arr(self.cases.iter().map(case));
        vc_json::document(&obj! { "schema": TRACE_REPORT_SCHEMA, "cases": cases })
    }
}

/// Runs a traced engine sweep and packages it as a named [`CaseTrace`]
/// for a `vc-trace-report/v1` document (see `examples/trace_report.rs`).
/// `engine` carries no checkpoint: the chunk ledger counts this run's
/// chunks.
///
/// The deterministic half of the metrics (`metrics.query`) and the chunk
/// ledger are identical for every engine thread count; throughput and
/// `metrics.sched` are wall-clock observations that vary between runs.
pub fn trace_case<A>(
    engine: &Engine,
    case: &str,
    inst: &Instance,
    algo: &A,
    config: &RunConfig,
) -> CaseTrace
where
    A: QueryAlgorithm + Sync,
    A::Output: Send,
{
    let starts = config
        .starts
        .starts(inst.n())
        .expect("sweep configs always select at least one start");
    let identity = vc_engine::sweep_identity(inst, algo, config, &starts);
    let (report, metrics) = engine
        .run_all_traced::<A, SweepMetrics>(inst, algo, config)
        .expect("sweep configs always select at least one start");
    let plan = vc_engine::plan_chunks(starts.len());
    // Claimed chunks are those neither skipped nor left to another
    // partition of the sweep.
    let mut chunk_starts = Log2Hist::default();
    for c in 0..plan.num_chunks {
        if !report.skipped_chunks.contains(&c) && !report.out_of_range_chunks.contains(&c) {
            let (lo, hi) = plan.bounds(c, starts.len());
            chunk_starts.observe((hi - lo) as u64);
        }
    }
    CaseTrace {
        case: case.to_string(),
        n: inst.n(),
        instance_id: identity.instance_id.to_string(),
        sweep_id: identity.sweep_id.to_string(),
        threads: report.threads,
        elapsed_nanos: u64::try_from(report.elapsed.as_nanos()).unwrap_or(u64::MAX),
        starts_per_sec: report.starts_per_sec(),
        queries_per_sec: report.queries_per_sec(),
        planned_chunk_size: plan.chunk_size,
        chunks_merged: report.completed_chunks,
        chunks_aborted: report.aborted_chunks.len(),
        chunk_starts,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vc_trace::{TraceEvent, Tracer};

    fn sample_case() -> CaseTrace {
        let mut metrics = SweepMetrics::new();
        let finalized =
            |root, volume, distance_upper, queries, completed| TraceEvent::AnswerFinalized {
                root,
                volume,
                distance_upper,
                queries,
                completed,
            };
        for e in [
            TraceEvent::QueryIssued { from: 0, port: 1 },
            TraceEvent::NodeRevealed { node: 1, depth: 1 },
            TraceEvent::FrontierAdvanced { depth: 1 },
            finalized(0, 2, 1, 1, true),
            finalized(1, 1, 0, 0, false),
            TraceEvent::ChunkTimed {
                chunk: 0,
                nanos: 1234,
            },
        ] {
            metrics.event(e);
        }
        let mut chunk_starts = Log2Hist::default();
        chunk_starts.observe(2);
        CaseTrace {
            case: "toy/case".to_string(),
            n: 2,
            instance_id: "00000000deadbeef".to_string(),
            sweep_id: "0000000001234567".to_string(),
            threads: 1,
            elapsed_nanos: 5678,
            starts_per_sec: 123.4,
            queries_per_sec: 567.8,
            planned_chunk_size: 64,
            chunks_merged: 1,
            chunks_aborted: 0,
            chunk_starts,
            metrics,
        }
    }

    #[test]
    fn report_json_has_schema_and_fields() {
        let json = TraceReport::new(vec![sample_case()]).to_json();
        let case = r#"{"case": "toy/case", "n": 2, "instance_id": "00000000deadbeef", "sweep_id": "0000000001234567", "threads": 1, "elapsed_nanos": 5678, "starts_per_sec": 123.4, "queries_per_sec": 567.8, "executions": 2, "truncated": 1, "queries_issued": 1, "nodes_revealed": 1, "frontier_advances": 1, "chunks_planned": 1, "planned_chunk_size": 64, "chunks_claimed": 1, "chunks_merged": 1, "chunks_retried": 0, "chunks_aborted": 0, "volume": {"count": 2, "sum": 3, "max": 2, "mean": 1.500, "p50_upper": 1, "p99_upper": 3, "buckets": [[1, 1], [2, 1]]}, "distance": {"count": 2, "sum": 1, "max": 1, "mean": 0.500, "p50_upper": 0, "p99_upper": 1, "buckets": [[0, 1], [1, 1]]}, "queries_per_start": {"count": 2, "sum": 1, "max": 1, "mean": 0.500, "p50_upper": 0, "p99_upper": 1, "buckets": [[0, 1], [1, 1]]}, "chunk_starts": {"count": 1, "sum": 2, "max": 2, "mean": 2.000, "p50_upper": 3, "p99_upper": 3, "buckets": [[2, 1]]}, "sched": {"chunks_timed": 1, "chunk_nanos_total": 1234, "chunk_nanos_max": 1234}}"#;
        let head = "{\n  \"schema\": \"vc-trace-report/v1\",\n  \"cases\": [\n    ";
        assert_eq!(json, format!("{head}{case}\n  ]\n}}\n"));
        let two = TraceReport::new(vec![sample_case(), sample_case()]).to_json();
        assert_eq!(two, format!("{head}{case},\n    {case}\n  ]\n}}\n"));
        assert!(json.contains("\"schema\": \"vc-trace-report/v1\""));
        assert!(json.contains("\"case\": \"toy/case\""));
        assert!(json.contains("\"instance_id\": \"00000000deadbeef\""));
        assert!(json.contains("\"sweep_id\": \"0000000001234567\""));
        assert!(json.contains("\"executions\": 2"));
        assert!(json.contains("\"truncated\": 1"));
        assert!(json.contains("\"buckets\": "));
        assert!(json.contains("\"chunks_planned\": 1"));
        assert!(json.contains("\"planned_chunk_size\": 64"));
        assert!(json.contains("\"chunk_starts\": "));
        assert!(json.contains("\"chunk_nanos_max\": 1234"));
    }

    #[test]
    fn report_json_is_structurally_balanced() {
        // The real validation runs in CI via `xtask check-json`; here we
        // sanity-check nesting balance and the empty-report shape.
        for report in [
            TraceReport::default(),
            TraceReport::new(vec![sample_case()]),
        ] {
            let json = report.to_json();
            let opens = json.matches('{').count();
            let closes = json.matches('}').count();
            assert_eq!(opens, closes);
            let b_open = json.matches('[').count();
            let b_close = json.matches(']').count();
            assert_eq!(b_open, b_close);
            assert!(json.ends_with("}\n"));
        }
    }
}
