//! Cost accounting: Definitions 2.1 (distance cost) and 2.2 (volume cost),
//! execution budgets, and Lemma 2.5 sanity checks.

/// Resource limits imposed on a single execution.
///
/// Truncation is how the paper turns Las-Vegas-style algorithms into
/// worst-case ones (Remark 3.11: "an execution can be truncated after
/// `O(log n)` steps … with the node producing arbitrary output") and how the
/// lower-bound experiments constrain algorithms to a sublinear budget.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Budget {
    /// Maximum number of *visited nodes* `|V_v|` (volume, Definition 2.2).
    pub max_volume: Option<usize>,
    /// Maximum distance from the initiating node of any visited node
    /// (Definition 2.1), enforced via discovery-path length.
    pub max_distance: Option<u32>,
    /// Maximum number of queries (steps).
    pub max_queries: Option<u64>,
}

impl Budget {
    /// No limits.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Limit only the volume.
    pub fn volume(max_volume: usize) -> Self {
        Self {
            max_volume: Some(max_volume),
            ..Self::default()
        }
    }

    /// Limit only the distance.
    pub fn distance(max_distance: u32) -> Self {
        Self {
            max_distance: Some(max_distance),
            ..Self::default()
        }
    }

    /// Limit only the number of queries.
    pub fn queries(max_queries: u64) -> Self {
        Self {
            max_queries: Some(max_queries),
            ..Self::default()
        }
    }
}

/// Measured costs of one execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExecutionRecord {
    /// The initiating node.
    pub root: usize,
    /// `VOL(A, G, L, v) = |V_v|` (Definition 2.2).
    pub volume: usize,
    /// Exact `DIST(A, G, L, v) = max { dist(v, w) : w ∈ V_v }`
    /// (Definition 2.1), measured in the host graph. `None` when the runner
    /// was configured to skip exact distance measurement or the world has no
    /// concrete host graph (adaptive adversaries).
    pub distance: Option<u32>,
    /// Upper bound on the distance via discovery-path lengths (always
    /// available, `≥ distance`).
    pub distance_upper: u32,
    /// Number of queries issued.
    pub queries: u64,
    /// Number of random bits consumed.
    pub random_bits: u64,
    /// Whether the algorithm finished without a budget/oracle error (if it
    /// did not, its fallback output was recorded).
    pub completed: bool,
}

impl ExecutionRecord {
    /// Lemma 2.5 sanity check: `DIST ≤ VOL ≤ Δ^DIST + 1` for executions on a
    /// graph of maximum degree `Δ ≥ 2`.
    ///
    /// Uses the exact distance when available, the upper bound otherwise
    /// (the upper bound only weakens the right inequality, which we then
    /// evaluate with saturating arithmetic).
    pub fn lemma_2_5_holds(&self, delta: u32) -> bool {
        let d = self.distance.unwrap_or(self.distance_upper);
        let dist_le_vol = d as usize <= self.volume;
        let bound = (delta as u128)
            .checked_pow(d)
            .map(|b| b.saturating_add(1))
            .unwrap_or(u128::MAX);
        dist_le_vol && (self.volume as u128) <= bound
    }
}

/// Aggregate of many execution records — the empirical `VOL_n` / `DIST_n`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CostSummary {
    /// Number of executions aggregated.
    pub runs: usize,
    /// `max` volume over all executions (Definition 2.2's sup).
    pub max_volume: usize,
    /// Mean volume.
    pub mean_volume: f64,
    /// `max` exact distance over executions where it was measured.
    pub max_distance: u32,
    /// Mean exact distance over executions where it was measured.
    pub mean_distance: f64,
    /// `max` queries.
    pub max_queries: u64,
    /// Number of executions that hit a budget or oracle error.
    pub incomplete: usize,
}

impl CostSummary {
    /// Summarizes a slice of execution records: the one fold behind every
    /// reported summary. Sums stay integral and the means are divided out
    /// once at the end, so the summary of a sweep's merged records is the
    /// same bits for any thread count.
    pub fn from_records(records: &[ExecutionRecord]) -> Self {
        let mut s = Self {
            runs: records.len(),
            ..Self::default()
        };
        let (mut vol_sum, mut dist_sum, mut dist_count) = (0u128, 0u64, 0usize);
        for r in records {
            s.max_volume = s.max_volume.max(r.volume);
            vol_sum += r.volume as u128;
            s.max_queries = s.max_queries.max(r.queries);
            if let Some(d) = r.distance {
                s.max_distance = s.max_distance.max(d);
                dist_sum += u64::from(d);
                dist_count += 1;
            }
            s.incomplete += usize::from(!r.completed);
        }
        if s.runs > 0 {
            s.mean_volume = vol_sum as f64 / s.runs as f64;
        }
        if dist_count > 0 {
            s.mean_distance = dist_sum as f64 / dist_count as f64;
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(volume: usize, distance: u32) -> ExecutionRecord {
        ExecutionRecord {
            root: 0,
            volume,
            distance: Some(distance),
            distance_upper: distance,
            queries: volume as u64,
            random_bits: 0,
            completed: true,
        }
    }

    #[test]
    fn budgets_compose() {
        assert_eq!(Budget::volume(5).max_volume, Some(5));
        assert_eq!(Budget::distance(3).max_distance, Some(3));
        assert_eq!(Budget::queries(9).max_queries, Some(9));
        assert_eq!(Budget::unlimited(), Budget::default());
    }

    #[test]
    fn lemma_2_5_accepts_legal_pairs() {
        // Δ = 3, distance 2: volume must be ≤ 3^2 + 1 = 10 and ≥ 2.
        assert!(rec(10, 2).lemma_2_5_holds(3));
        assert!(rec(2, 2).lemma_2_5_holds(3));
    }

    #[test]
    fn lemma_2_5_rejects_illegal_pairs() {
        // Volume below distance.
        assert!(!rec(1, 2).lemma_2_5_holds(3));
        // Volume above Δ^d + 1.
        assert!(!rec(11, 2).lemma_2_5_holds(3));
    }

    #[test]
    fn lemma_2_5_huge_distance_saturates() {
        // Δ^d overflows; bound saturates to max, so any volume passes the
        // upper inequality.
        assert!(rec(1_000_000, 200).lemma_2_5_holds(3));
    }

    #[test]
    fn summary_aggregates() {
        let records = vec![rec(4, 2), rec(9, 3), rec(1, 0)];
        let s = CostSummary::from_records(&records);
        assert_eq!(s.runs, 3);
        assert_eq!(s.max_volume, 9);
        assert_eq!(s.max_distance, 3);
        assert!((s.mean_volume - 14.0 / 3.0).abs() < 1e-9);
        assert_eq!(s.incomplete, 0);
    }

    #[test]
    fn summary_empty() {
        let s = CostSummary::from_records(&[]);
        assert_eq!(s.runs, 0);
        assert_eq!(s.max_volume, 0);
    }
}
