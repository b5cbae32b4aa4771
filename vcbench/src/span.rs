//! In-memory span recorder for the traced run.
//!
//! Every span carries a name, its start and end in nanoseconds from one
//! [`Stopwatch`] epoch, and the id of the request it belongs to. Spans
//! stay in memory until the run ends and are written out in one go, so
//! recording costs two clock reads and a `Vec` push.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use vc_trace::time::Stopwatch;

/// Name of the span that covers one whole request; its self time is the
/// time no layer span accounts for.
pub const REQUEST: &str = "request";

/// One recorded call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer call name, e.g. `store.read`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// The request this call served.
    pub request: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }

    fn covers(&self, other: &Span) -> bool {
        self.start_ns <= other.start_ns && other.end_ns <= self.end_ns
    }
}

/// Collects spans against one epoch.
#[derive(Debug)]
pub struct Recorder {
    epoch: Stopwatch,
    spans: Vec<Span>,
    enabled: bool,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// A recorder whose epoch is now.
    pub fn new() -> Self {
        Self {
            epoch: Stopwatch::start(),
            spans: Vec::new(),
            enabled: true,
        }
    }

    /// A recorder that reads no clock and keeps nothing: the untraced run.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            ..Self::new()
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the epoch (0 when disabled).
    pub fn now(&self) -> u64 {
        if self.enabled {
            self.epoch.elapsed_nanos()
        } else {
            0
        }
    }

    /// Records a span that ran from `start_ns` until now.
    pub fn close(&mut self, name: &'static str, request: u64, start_ns: u64) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            request,
        });
    }

    /// Runs `f` inside a span named `name` of request `request`.
    pub fn span<R>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
        let start = self.now();
        let out = f();
        self.close(name, request, start);
        out
    }

    /// Every span recorded so far, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, grouped by name, in milliseconds: a
    /// span's duration minus the part of it that its child spans (spans
    /// of the same request nested directly inside it) cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut by_request: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
        for s in &self.spans {
            by_request.entry(s.request).or_default().push(s);
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for spans in by_request.values() {
            for (i, parent) in spans.iter().enumerate() {
                let inside = |j: usize| j != i && parent.covers(spans[j]);
                let children: Vec<&Span> = (0..spans.len())
                    .filter(|&j| inside(j))
                    .filter(|&j| {
                        !(0..spans.len()).any(|k| k != j && inside(k) && spans[k].covers(spans[j]))
                    })
                    .map(|j| spans[j])
                    .collect();
                let covered: f64 = children.iter().map(|c| c.ms()).sum();
                out.entry(parent.name)
                    .or_default()
                    .push((parent.ms() - covered).max(0.0));
            }
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut text = String::with_capacity(self.spans.len() * 80);
        for s in &self.spans {
            let _ = writeln!(
                text,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(name: &'static str, start_ns: u64, end_ns: u64, request: u64) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            request,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let rec = Recorder {
            epoch: Stopwatch::start(),
            enabled: true,
            spans: vec![
                at("a", 1_000_000, 2_000_000, 1),
                at("b", 3_000_000, 6_000_000, 1),
                at("b.inner", 4_000_000, 5_000_000, 1),
                at(REQUEST, 0, 10_000_000, 1),
                // Another request overlapping in time is not a child.
                at("a", 0, 10_000_000, 2),
            ],
        };
        let t = rec.self_times();
        assert_eq!(t[REQUEST], vec![6.0]);
        assert_eq!(t["b"], vec![2.0]);
        assert_eq!(t["b.inner"], vec![1.0]);
        assert_eq!(t["a"], vec![1.0, 10.0]);
    }
}
