//! [`TraceReport`]: the machine-readable sweep report
//! (`vc-trace-report/v1`).
//!
//! `vc-bench` turns each traced sweep into a [`CaseTrace`] and a set of
//! cases into a [`TraceReport`], whose [`TraceReport::to_json`] output is
//! what `examples/trace_report.rs` writes and `cargo run -p xtask --
//! check-json` validates in CI. The JSON is emitted by hand because the
//! workspace builds offline against a no-op serde stand-in; only the
//! types below need encoding.
//!
//! Schema stability contract: fields may be *added* under the `/v1`
//! schema name; renaming or removing any existing field requires bumping
//! to `/v2` (downstream dashboards key on these names).

use crate::hist::Log2Hist;
use crate::metrics::SweepMetrics;
use std::fmt::Write as _;

/// Schema identifier written into every report.
pub const TRACE_REPORT_SCHEMA: &str = "vc-trace-report/v1";

/// One traced sweep: a named case plus its merged metrics and
/// engine-level throughput.
#[derive(Clone, Debug)]
pub struct CaseTrace {
    /// Case name (e.g. `leaf-coloring/rw`).
    pub case: String,
    /// Instance size.
    pub n: usize,
    /// Content-addressed instance identity (hex `InstanceId` from
    /// `vc-ident`, carried here as a string to keep this crate
    /// dependency-free). Pins the case to the exact `(G, L)` it measured.
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

fn push_hist(out: &mut String, name: &str, h: &Log2Hist) {
    let _ = write!(
        out,
        "\"{name}\": {{\"count\": {}, \"sum\": {}, \"max\": {}, \"mean\": {:.3}, \
         \"p50_upper\": {}, \"p99_upper\": {}, \"buckets\": [",
        h.count(),
        h.sum(),
        h.max(),
        h.mean(),
        h.quantile_upper(0.5),
        h.quantile_upper(0.99),
    );
    for (i, (bucket, count)) in h.nonzero_buckets().iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "[{bucket}, {count}]");
    }
    out.push_str("]}");
}

impl TraceReport {
    /// A report over the given cases.
    pub fn new(cases: Vec<CaseTrace>) -> Self {
        Self { cases }
    }

    /// Serializes the report as a `vc-trace-report/v1` JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\n  \"schema\": \"{TRACE_REPORT_SCHEMA}\",\n  \"cases\": [\n"
        );
        for (i, c) in self.cases.iter().enumerate() {
            let q = &c.metrics.query;
            let s = &c.metrics.sched;
            out.push_str("    {");
            let _ = write!(
                out,
                "\"case\": \"{}\", \"n\": {}, \"instance_id\": \"{}\", \"sweep_id\": \"{}\", \
                 \"threads\": {}, \"elapsed_nanos\": {}, \
                 \"starts_per_sec\": {:.1}, \"queries_per_sec\": {:.1}, ",
                c.case,
                c.n,
                c.instance_id,
                c.sweep_id,
                c.threads,
                c.elapsed_nanos,
                c.starts_per_sec,
                c.queries_per_sec
            );
            let _ = write!(
                out,
                "\"executions\": {}, \"truncated\": {}, \"queries_issued\": {}, \
                 \"nodes_revealed\": {}, \"frontier_advances\": {}, \
                 \"chunks_planned\": {}, \"planned_chunk_size\": {}, \
                 \"chunks_claimed\": {}, \"chunks_merged\": {}, \
                 \"chunks_retried\": {}, \"chunks_aborted\": {}, ",
                q.executions,
                q.truncated,
                q.queries_issued,
                q.nodes_revealed,
                q.frontier_advances,
                q.chunks_planned,
                q.planned_chunk_size,
                q.chunks_claimed,
                q.chunks_merged,
                q.chunks_retried,
                q.chunks_aborted
            );
            push_hist(&mut out, "volume", &q.volume);
            out.push_str(", ");
            push_hist(&mut out, "distance", &q.distance);
            out.push_str(", ");
            push_hist(&mut out, "queries_per_start", &q.queries_per_start);
            out.push_str(", ");
            push_hist(&mut out, "chunk_starts", &q.chunk_starts);
            let _ = write!(
                out,
                ", \"sched\": {{\"chunks_timed\": {}, \"chunk_nanos_total\": {}, \
                 \"chunk_nanos_max\": {}}}",
                s.chunks_timed, s.chunk_nanos_total, s.chunk_nanos_max
            );
            out.push('}');
            out.push_str(if i + 1 < self.cases.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent;
    use crate::tracer::Tracer;

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
            TraceEvent::ChunkPlanned {
                chunks: 1,
                chunk_size: 64,
            },
            TraceEvent::ChunkClaimed {
                chunk: 0,
                starts: 2,
            },
            TraceEvent::QueryIssued { from: 0, port: 1 },
            TraceEvent::NodeRevealed { node: 1, depth: 1 },
            TraceEvent::FrontierAdvanced { depth: 1 },
            finalized(0, 2, 1, 1, true),
            finalized(1, 1, 0, 0, false),
            TraceEvent::ChunkTimed {
                chunk: 0,
                nanos: 1234,
            },
            TraceEvent::ChunkMerged { chunk: 0 },
        ] {
            metrics.event(e);
        }
        CaseTrace {
            case: "toy/case".to_string(),
            n: 2,
            instance_id: "00000000deadbeef".to_string(),
            sweep_id: "0000000001234567".to_string(),
            threads: 1,
            elapsed_nanos: 5678,
            starts_per_sec: 123.4,
            queries_per_sec: 567.8,
            metrics,
        }
    }

    #[test]
    fn report_json_has_schema_and_fields() {
        let json = TraceReport::new(vec![sample_case()]).to_json();
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
