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
    /// Which worker of the fleet dies.
    pub const VICTIM: u64 = 0x4b_49_4c;
    /// After how many completed chunks it dies.
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

/// A seeded, deterministic schedule for killing one fleet worker
/// mid-sweep. Both decisions — the victim and the kill point — are pure
/// hashes of the seed, so a fleet drill replays identically.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KillPlan {
    /// Seed for both kill decisions.
    pub seed: u64,
}

impl KillPlan {
    /// A kill plan for the given seed.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// The index of the worker to kill, in `0..workers`. Returns 0 for an
    /// empty fleet rather than dividing by zero.
    pub fn victim(&self, workers: usize) -> usize {
        if workers == 0 {
            return 0;
        }
        (mix_words(&[self.seed, rule::VICTIM]) % workers as u64) as usize
    }

    /// How many chunks of a `range_len`-chunk slice the victim completes
    /// before dying, in `0..range_len` — strictly fewer than its
    /// assignment, so the victim's partial checkpoint is always genuinely
    /// incomplete and the drill always exercises reassignment. Returns 0
    /// when the slice is empty.
    pub fn kill_after_chunks(&self, range_len: usize) -> usize {
        if range_len == 0 {
            return 0;
        }
        (mix_words(&[self.seed, rule::POINT]) % range_len as u64) as usize
    }

    /// The distinct workers to kill, ascending: `count` victims drawn
    /// from `0..workers` by a seeded partial Fisher–Yates, clamped to the
    /// fleet size. Folds each draw index into the `rule::VICTIM` hash,
    /// so `victims(w, 1)` need not equal `[victim(w)]` — the multi-victim
    /// schedule is its own deterministic decision.
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
    /// in `0..assigned` — the per-worker generalization of
    /// [`KillPlan::kill_after_chunks`], domain-separated by the worker
    /// index so two victims of one plan die at independent points.
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
    fn kill_decisions_are_deterministic() {
        let plan = KillPlan::new(42);
        assert_eq!(plan.victim(4), KillPlan::new(42).victim(4));
        assert_eq!(
            plan.kill_after_chunks(6),
            KillPlan::new(42).kill_after_chunks(6)
        );
    }

    #[test]
    fn victim_and_kill_point_stay_in_range() {
        for seed in 0..64 {
            let plan = KillPlan::new(seed);
            for workers in 1..8 {
                assert!(plan.victim(workers) < workers);
            }
            for len in 1..8 {
                assert!(plan.kill_after_chunks(len) < len);
            }
        }
    }

    #[test]
    fn empty_fleet_and_empty_slice_do_not_divide_by_zero() {
        let plan = KillPlan::new(7);
        assert_eq!(plan.victim(0), 0);
        assert_eq!(plan.kill_after_chunks(0), 0);
    }

    #[test]
    fn seeds_vary_the_schedule() {
        // Not a distribution claim — just that the hash actually feeds
        // the decision: across 64 seeds both outputs take every value.
        let victims: std::collections::BTreeSet<usize> =
            (0..64).map(|s| KillPlan::new(s).victim(4)).collect();
        assert_eq!(victims.len(), 4);
        let points: std::collections::BTreeSet<usize> = (0..64)
            .map(|s| KillPlan::new(s).kill_after_chunks(5))
            .collect();
        assert_eq!(points.len(), 5);
    }

    #[test]
    fn victim_rule_is_domain_separated_from_kill_point() {
        // With equal ranges the two decisions must not be forced equal.
        assert!((0..64).any(|s| {
            let p = KillPlan::new(s);
            p.victim(7) != p.kill_after_chunks(7)
        }));
    }

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
