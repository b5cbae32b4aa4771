//! [`KillPlan`]: the seeded, deterministic worker-kill schedule for
//! fleet execution drills.
//!
//! `examples/fleet_sweep.rs` demonstrates the fleet recovery story:
//! worker processes are killed mid-sweep, their unfinished chunks are
//! reassigned, and the spliced result must still be byte-identical to
//! the serial run. For that drill to be a *reproducible* test rather
//! than a flaky race, the kills themselves must be deterministic — which
//! workers die, after how many completed chunks, and *how* (a clean exit
//! or a mid-chunk stall the supervisor must detect by deadline) are pure
//! hashes of the plan seed, exactly like every
//! [`FaultPlan`](crate::FaultPlan) decision. Same seed, same murders,
//! every run, any machine.

use crate::splitmix::mix_words;

/// Domain-separation constants for kill decisions, disjoint from the
/// [`rule`](crate::plan::rule) constants of the per-query fault classes.
mod rule {
    /// Which workers of the fleet die.
    pub const VICTIM: u64 = 0x4b_49_4c;
    /// After how many completed chunks a victim dies.
    pub const POINT: u64 = 0x50_54_53;
    /// How a victim dies (clean exit vs mid-chunk stall).
    pub const STYLE: u64 = 0x53_54_59;
}

/// How a scheduled victim dies. Both styles leave a valid (atomic,
/// never torn) partial checkpoint behind; they differ in what the
/// supervisor observes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrashStyle {
    /// The worker exits with a failure status after its allotted chunks —
    /// the supervisor sees the death immediately at poll time.
    CleanExit,
    /// The worker finishes its allotted chunks and then hangs without
    /// exiting or making progress — the supervisor only learns of the
    /// death when the liveness deadline expires, exercising the
    /// heartbeat path.
    MidChunkStall,
}

/// A seeded, deterministic schedule for killing fleet workers
/// mid-sweep. Every decision — which workers die, after how many chunks
/// each, and how — is a pure hash of the seed, so a fleet drill replays
/// identically.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KillPlan {
    /// Seed for every kill decision.
    pub seed: u64,
}

impl KillPlan {
    /// A kill plan for the given seed.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// The distinct workers to kill, ascending: `count` victims drawn
    /// from `0..workers` by a seeded partial Fisher–Yates, clamped to the
    /// fleet size. Each draw folds its index into the `rule::VICTIM` hash.
    pub fn victims(&self, workers: usize, count: usize) -> Vec<usize> {
        let mut pool: Vec<usize> = (0..workers).collect();
        let count = count.min(workers);
        for i in 0..count {
            let remaining = (workers - i) as u64;
            let j = i + (mix_words(&[self.seed, rule::VICTIM, i as u64]) % remaining) as usize;
            pool.swap(i, j);
        }
        let mut chosen = pool;
        chosen.truncate(count);
        chosen.sort_unstable();
        chosen
    }

    /// How many of its `assigned` chunks `worker` completes before dying,
    /// in `0..assigned` — strictly fewer than its assignment, so a
    /// victim's partial checkpoint is always incomplete and the drill
    /// always exercises reassignment. Domain-separated by the worker
    /// index, so two victims of one plan die at independent points.
    /// Returns 0 for an empty assignment.
    pub fn kill_after_chunks_for(&self, worker: usize, assigned: usize) -> usize {
        if assigned == 0 {
            return 0;
        }
        (mix_words(&[self.seed, rule::POINT, worker as u64]) % assigned as u64) as usize
    }

    /// How `worker` dies: a seeded coin between [`CrashStyle::CleanExit`]
    /// (immediately observable) and [`CrashStyle::MidChunkStall`] (only
    /// the liveness deadline catches it).
    pub fn crash_style(&self, worker: usize) -> CrashStyle {
        if mix_words(&[self.seed, rule::STYLE, worker as u64]) & 1 == 0 {
            CrashStyle::CleanExit
        } else {
            CrashStyle::MidChunkStall
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multi_victims_are_distinct_sorted_and_deterministic() {
        for seed in 0..64 {
            let plan = KillPlan::new(seed);
            for count in 0..=5 {
                let victims = plan.victims(4, count);
                assert_eq!(victims, KillPlan::new(seed).victims(4, count));
                assert_eq!(victims.len(), count.min(4));
                assert!(victims.windows(2).all(|w| w[0] < w[1]), "{victims:?}");
                assert!(victims.iter().all(|&v| v < 4));
            }
        }
        // Asking for the whole fleet kills the whole fleet.
        assert_eq!(KillPlan::new(9).victims(3, 3), vec![0, 1, 2]);
        assert_eq!(KillPlan::new(9).victims(0, 2), Vec::<usize>::new());
    }

    #[test]
    fn multi_victim_selection_actually_varies() {
        // Across seeds, 2-of-4 selections hit every pair.
        let pairs: std::collections::BTreeSet<Vec<usize>> =
            (0..64).map(|s| KillPlan::new(s).victims(4, 2)).collect();
        assert_eq!(pairs.len(), 6, "{pairs:?}");
    }

    #[test]
    fn per_worker_kill_points_are_independent_and_in_range() {
        for seed in 0..64 {
            let plan = KillPlan::new(seed);
            for worker in 0..4 {
                for assigned in 1..8 {
                    assert!(plan.kill_after_chunks_for(worker, assigned) < assigned);
                }
                assert_eq!(plan.kill_after_chunks_for(worker, 0), 0);
            }
        }
        // Two victims of one plan must not be forced to die at the same
        // point.
        assert!((0..64).any(|s| {
            let p = KillPlan::new(s);
            p.kill_after_chunks_for(0, 7) != p.kill_after_chunks_for(1, 7)
        }));
    }

    #[test]
    fn crash_styles_are_deterministic_and_take_both_values() {
        let styles: std::collections::BTreeSet<bool> = (0..64)
            .map(|s| KillPlan::new(s).crash_style(0) == CrashStyle::CleanExit)
            .collect();
        assert_eq!(styles.len(), 2);
        for seed in 0..8 {
            for worker in 0..4 {
                assert_eq!(
                    KillPlan::new(seed).crash_style(worker),
                    KillPlan::new(seed).crash_style(worker)
                );
            }
        }
        // Style is domain-separated per worker: one plan can mix styles.
        assert!((0..64).any(|s| {
            let p = KillPlan::new(s);
            p.crash_style(0) != p.crash_style(1)
        }));
    }
}
