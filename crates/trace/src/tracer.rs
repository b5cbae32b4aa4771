//! The [`Tracer`] hook trait and its stock implementations.
//!
//! `vc-model` threads a `Tracer` through every execution, `vc-engine`
//! through every sweep chunk, and `vc-fleet` / `vc-serve` through their
//! supervisors and schedulers. The trait has one hook, [`Tracer::event`],
//! with an empty default body, so the zero-sized [`NoopTracer`]
//! implements nothing at all and the untraced hot path monomorphizes
//! every emission away.

use crate::event::TraceEvent;

/// Receiver of the typed execution/sweep events of [`TraceEvent`].
///
/// The one hook defaults to a no-op. Every event variant holds only
/// `Copy` primitives, so when the empty body is inlined into a
/// monomorphized execution loop the event value an emission site builds
/// is dead and the optimizer deletes it with the call: tracing is free
/// when disabled.
pub trait Tracer {
    /// Observes one event (see [`TraceEvent`] for when each is emitted).
    #[inline]
    fn event(&mut self, event: TraceEvent) {
        let _ = event;
    }
}

/// Forward events through mutable references, so a long-lived tracer can
/// be lent to each execution of a sweep (`run_from_traced` takes the
/// tracer by value; passing `&mut metrics` keeps ownership with the
/// sweep loop).
impl<T: Tracer + ?Sized> Tracer for &mut T {
    #[inline(always)]
    fn event(&mut self, event: TraceEvent) {
        (**self).event(event);
    }
}

/// The disabled tracer: a zero-sized type whose hooks are all the empty
/// defaults. Instantiating the execution loop with `NoopTracer` produces
/// the same machine code as not tracing at all.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NoopTracer;

impl Tracer for NoopTracer {}

/// A tracer aggregated per share by the sharded engine and merged chunk
/// by chunk in chunk order.
///
/// Implementations must make `absorb` order-compatible with serial
/// accumulation: folding events share by share and absorbing the
/// partials — chunks in index order, a helped chunk's shares in whatever
/// order they landed, each share holding an arbitrary subset of the
/// chunk's starts — must equal folding the whole sweep into one tracer.
/// Purely integral, commutative state (counters, histograms, integer
/// sums) satisfies this for free.
pub trait MergeTracer: Tracer + Default + Send {
    /// Whether the engine should wall-clock each share and emit
    /// [`TraceEvent::ChunkTimed`]. `false` for [`NoopTracer`] so the
    /// untraced sharded path performs no clock reads at all.
    const TIMED: bool = true;

    /// Folds another tracer's state (a later chunk's partial) into this
    /// one.
    fn absorb(&mut self, other: Self);
}

impl MergeTracer for NoopTracer {
    const TIMED: bool = false;

    #[inline]
    fn absorb(&mut self, _other: Self) {}
}

/// A tracer that records the full typed event log — the "per-problem
/// query trace" view used by `examples/trace_report.rs` and the audit
/// transparency tests.
///
/// Recording every event of a large sweep would allocate without bound,
/// so a capacity can be set: once `cap` events are stored, later events
/// are counted in [`RecordingTracer::dropped`] instead of stored.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecordingTracer {
    /// The recorded events, in emission order.
    pub events: Vec<TraceEvent>,
    /// Maximum number of events to store (`None` = unbounded).
    pub cap: Option<usize>,
    /// Events dropped after the capacity was reached.
    pub dropped: u64,
}

impl RecordingTracer {
    /// An unbounded recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// A recorder that stores at most `cap` events.
    pub fn with_capacity_limit(cap: usize) -> Self {
        Self {
            events: Vec::new(),
            cap: Some(cap),
            dropped: 0,
        }
    }
}

impl Tracer for RecordingTracer {
    fn event(&mut self, event: TraceEvent) {
        if self.cap.is_some_and(|c| self.events.len() >= c) {
            self.dropped += 1;
        } else {
            self.events.push(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_tracer_is_zero_sized() {
        assert_eq!(std::mem::size_of::<NoopTracer>(), 0);
    }

    #[test]
    fn recording_tracer_stores_events_in_order() {
        let events = [
            TraceEvent::QueryIssued { from: 0, port: 1 },
            TraceEvent::NodeRevealed { node: 1, depth: 1 },
            TraceEvent::FrontierAdvanced { depth: 1 },
            TraceEvent::AnswerFinalized {
                root: 0,
                volume: 2,
                distance_upper: 1,
                queries: 1,
                completed: true,
            },
        ];
        let mut t = RecordingTracer::new();
        events.into_iter().for_each(|e| t.event(e));
        assert_eq!(t.events, events);
        assert_eq!(t.dropped, 0);
    }

    #[test]
    fn recording_tracer_caps_and_counts_drops() {
        let mut t = RecordingTracer::with_capacity_limit(2);
        for from in 0..5 {
            t.event(TraceEvent::QueryIssued { from, port: 1 });
        }
        assert_eq!(t.events.len(), 2);
        assert_eq!(t.dropped, 3);
    }

    #[test]
    fn mut_reference_forwards_all_hooks() {
        // Drive through a generic bound so the `&mut T` forwarding impl
        // (the one sweep loops rely on) is the impl actually exercised.
        fn drive<T: Tracer>(mut t: T) {
            crate::event::tests::every_variant()
                .into_iter()
                .for_each(|e| t.event(e));
        }
        let mut inner = RecordingTracer::new();
        drive(&mut inner);
        assert_eq!(inner.events, crate::event::tests::every_variant());
    }
}
