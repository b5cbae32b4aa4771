//! Integration: the tracer hooks sit *inside* [`vc_model::Execution`],
//! below the [`AuditedOracle`] interposer — so auditing an execution does
//! not change its typed event stream, and tracing does not change what the
//! auditor observes. The two observability layers compose without
//! interfering.

use vc_audit::AuditedOracle;
use vc_core::problems::leaf_coloring::DistanceSolver;
use vc_graph::gen;
use vc_model::run::QueryAlgorithm;
use vc_model::{Budget, Execution, SolverScratch};
use vc_trace::{RecordingTracer, TraceEvent};

/// Drives `DistanceSolver` over every start node, once against the bare
/// traced execution and once with the auditor interposed, and returns the
/// two event logs.
fn bare_and_audited_logs(n: usize, seed: u64) -> (RecordingTracer, RecordingTracer) {
    let inst = gen::random_full_binary_tree(n, seed);
    let mut scratch_bare = vc_model::ExecScratch::new();
    let mut scratch_audited = vc_model::ExecScratch::new();
    let mut bare_log = RecordingTracer::new();
    let mut audited_log = RecordingTracer::new();
    for root in 0..inst.n() {
        let mut bare = Execution::with_scratch_traced(
            &inst,
            root,
            None,
            Budget::unlimited(),
            &mut scratch_bare,
            &mut bare_log,
        );
        let bare_out = DistanceSolver.run(&mut bare, &mut SolverScratch::new());

        let traced = Execution::with_scratch_traced(
            &inst,
            root,
            None,
            Budget::unlimited(),
            &mut scratch_audited,
            &mut audited_log,
        );
        let mut audited = AuditedOracle::new(traced);
        let audited_out = DistanceSolver.run(&mut audited, &mut SolverScratch::new());
        assert_eq!(bare_out.is_ok(), audited_out.is_ok());
        let (_inner, report) = audited.finish();
        assert!(
            report.is_clean(),
            "the concrete world satisfies the contract"
        );
    }
    (bare_log, audited_log)
}

#[test]
fn auditing_does_not_perturb_the_event_stream() {
    let (bare, audited) = bare_and_audited_logs(151, 3);
    assert!(!bare.events.is_empty());
    assert_eq!(
        bare, audited,
        "the audited execution must emit the exact event log of the bare one"
    );
}

#[test]
fn event_stream_has_the_expected_shape() {
    let (bare, _) = bare_and_audited_logs(63, 1);
    // Every query either reveals a node or re-answers a known one; reveals
    // never outnumber queries, and frontier advances never outnumber
    // reveals.
    let queries = bare
        .events
        .iter()
        .filter(|e| matches!(e, TraceEvent::QueryIssued { .. }))
        .count();
    let reveals = bare
        .events
        .iter()
        .filter(|e| matches!(e, TraceEvent::NodeRevealed { .. }))
        .count();
    let advances = bare
        .events
        .iter()
        .filter(|e| matches!(e, TraceEvent::FrontierAdvanced { .. }))
        .count();
    assert!(queries >= reveals);
    assert!(reveals >= advances);
    assert!(queries > 0);
}
