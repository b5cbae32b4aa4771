//! Integration: the typed event stream an [`Execution`] emits matches the
//! §2.2 semantics hook for hook — one `QueryIssued` per oracle step
//! (answered or refused), a `NodeRevealed` exactly when `V_v` grows, a
//! `FrontierAdvanced` exactly when the discovery depth sets a new record,
//! and one `AnswerFinalized` per run carrying the final costs.

use vc_graph::{gen, Color, Port};
use vc_model::oracle::Oracle;
use vc_model::run::{run_from_traced, QueryAlgorithm, RunConfig};
use vc_model::{Budget, ExecScratch, Execution, QueryError, SolverScratch};
use vc_trace::{RecordingTracer, TraceEvent};

#[test]
fn query_events_follow_the_visited_set() {
    let inst = gen::complete_binary_tree(3, Color::R, Color::B);
    let mut scratch = ExecScratch::new();
    let mut log = RecordingTracer::new();
    {
        let mut ex = Execution::with_scratch_traced(
            &inst,
            0,
            None,
            Budget::unlimited(),
            &mut scratch,
            &mut log,
        );
        ex.query(0, Port::new(1)).unwrap(); // reveals node 1 at depth 1
        ex.query(0, Port::new(1)).unwrap(); // re-query: no reveal
        ex.query(0, Port::new(2)).unwrap(); // reveals node 2 at depth 1
        assert_eq!(
            ex.query(5, Port::new(1)).unwrap_err(),
            QueryError::NotVisited { node: 5 }
        ); // refused, but still issued
    }
    assert_eq!(
        log.events,
        vec![
            TraceEvent::QueryIssued { from: 0, port: 1 },
            TraceEvent::NodeRevealed { node: 1, depth: 1 },
            TraceEvent::FrontierAdvanced { depth: 1 },
            TraceEvent::QueryIssued { from: 0, port: 1 },
            TraceEvent::QueryIssued { from: 0, port: 2 },
            TraceEvent::NodeRevealed { node: 2, depth: 1 },
            TraceEvent::QueryIssued { from: 5, port: 1 },
        ]
    );
}

/// Walks left children to the leaf.
struct WalkLeft;

impl QueryAlgorithm for WalkLeft {
    type Output = u32;

    fn fallback(&self) -> u32 {
        u32::MAX
    }

    fn run(&self, oracle: &mut dyn Oracle, _: &mut SolverScratch) -> Result<u32, QueryError> {
        let mut cur = oracle.root();
        let mut steps = 0;
        while let Some(next) = vc_model::oracle::follow(oracle, &cur, cur.label.left_child)? {
            cur = next;
            steps += 1;
        }
        Ok(steps)
    }
}

#[test]
fn answer_finalized_carries_the_record() {
    let inst = gen::complete_binary_tree(3, Color::R, Color::B);
    let mut scratch = ExecScratch::new();
    let mut log = RecordingTracer::new();
    let (out, rec) = run_from_traced(
        &inst,
        &WalkLeft,
        0,
        &RunConfig::default(),
        &mut scratch,
        &mut log,
    );
    assert_eq!(out, 3);
    let last = log.events.last().expect("stream is non-empty");
    assert_eq!(
        *last,
        TraceEvent::AnswerFinalized {
            root: 0,
            volume: rec.volume,
            distance_upper: rec.distance_upper,
            queries: rec.queries,
            completed: true,
        }
    );
    let finals = log
        .events
        .iter()
        .filter(|e| matches!(e, TraceEvent::AnswerFinalized { .. }))
        .count();
    assert_eq!(finals, 1, "exactly one finalization per execution");
}

#[test]
fn truncated_runs_finalize_as_incomplete() {
    let inst = gen::complete_binary_tree(4, Color::R, Color::B);
    let mut scratch = ExecScratch::new();
    let mut log = RecordingTracer::new();
    let config = RunConfig {
        budget: Budget::volume(2),
        ..RunConfig::default()
    };
    let (out, rec) = run_from_traced(&inst, &WalkLeft, 0, &config, &mut scratch, &mut log);
    assert_eq!(out, u32::MAX);
    assert!(!rec.completed);
    assert!(matches!(
        log.events.last(),
        Some(TraceEvent::AnswerFinalized {
            completed: false,
            ..
        })
    ));
}
