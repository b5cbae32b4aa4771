//! [`Stopwatch`]: the workspace's single sanctioned wall-clock access.
//!
//! Clock reads are syscalls; scattered `Instant::now()` calls are how
//! hot paths silently grow per-iteration overhead. Rule VC006
//! (`clippy.toml`'s `disallowed-methods`) therefore forbids
//! `Instant::now` everywhere except [`Stopwatch::start`] —
//! timing-consuming code (the engine's per-sweep and per-chunk
//! measurements) goes through `Stopwatch`, which keeps every clock read
//! greppable and reviewable in one place.

use std::time::{Duration, Instant};

/// A started monotonic stopwatch.
#[derive(Clone, Copy, Debug)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts timing now.
    #[expect(
        clippy::disallowed_methods,
        reason = "VC006: this is the workspace's one clock read"
    )]
    pub fn start() -> Self {
        Self {
            start: Instant::now(),
        }
    }

    /// Time elapsed since [`Stopwatch::start`].
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Elapsed nanoseconds, saturated into `u64` (584 years of headroom).
    pub fn elapsed_nanos(&self) -> u64 {
        u64::try_from(self.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_is_monotone() {
        let sw = Stopwatch::start();
        let a = sw.elapsed_nanos();
        let b = sw.elapsed_nanos();
        assert!(b >= a);
        assert!(sw.elapsed() >= Duration::ZERO);
    }
}
