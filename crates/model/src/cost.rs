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
    /// Summarizes a slice of execution records.
    pub fn from_records(records: &[ExecutionRecord]) -> Self {
        let mut acc = CostAccumulator::default();
        for r in records {
            acc.add(r);
        }
        acc.finish()
    }
}

/// Streaming, mergeable accumulator behind [`CostSummary`].
///
/// The parallel engine (`vc-engine`) keeps one accumulator per worker thread
/// and merges them at the end. All partial state is integral (`max`es and
/// exact integer sums; the means are divided out only in
/// [`CostAccumulator::finish`]), so the merged summary is bit-for-bit
/// identical no matter how records were partitioned across threads or in
/// which order partials are merged — the determinism anchor the engine's
/// N-thread vs. serial equality test relies on.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CostAccumulator {
    runs: usize,
    max_volume: usize,
    vol_sum: u128,
    max_distance: u32,
    dist_sum: u64,
    dist_count: usize,
    max_queries: u64,
    query_sum: u128,
    incomplete: usize,
}

impl CostAccumulator {
    /// Folds one execution record into the running totals.
    pub fn add(&mut self, r: &ExecutionRecord) {
        self.runs += 1;
        self.max_volume = self.max_volume.max(r.volume);
        self.vol_sum += r.volume as u128;
        self.max_queries = self.max_queries.max(r.queries);
        self.query_sum += u128::from(r.queries);
        if let Some(d) = r.distance {
            self.max_distance = self.max_distance.max(d);
            self.dist_sum += u64::from(d);
            self.dist_count += 1;
        }
        if !r.completed {
            self.incomplete += 1;
        }
    }

    /// Absorbs another accumulator (e.g. a different worker thread's).
    pub fn merge(&mut self, other: &CostAccumulator) {
        self.runs += other.runs;
        self.max_volume = self.max_volume.max(other.max_volume);
        self.vol_sum += other.vol_sum;
        self.max_distance = self.max_distance.max(other.max_distance);
        self.dist_sum += other.dist_sum;
        self.dist_count += other.dist_count;
        self.max_queries = self.max_queries.max(other.max_queries);
        self.query_sum += other.query_sum;
        self.incomplete += other.incomplete;
    }

    /// Total queries across all accumulated executions (used for
    /// queries/sec throughput reporting).
    pub fn total_queries(&self) -> u128 {
        self.query_sum
    }

    /// Number of records accumulated so far.
    pub fn runs(&self) -> usize {
        self.runs
    }

    /// Finalizes into a [`CostSummary`], dividing out the means.
    pub fn finish(&self) -> CostSummary {
        CostSummary {
            runs: self.runs,
            max_volume: self.max_volume,
            mean_volume: if self.runs > 0 {
                self.vol_sum as f64 / self.runs as f64
            } else {
                0.0
            },
            max_distance: self.max_distance,
            mean_distance: if self.dist_count > 0 {
                self.dist_sum as f64 / self.dist_count as f64
            } else {
                0.0
            },
            max_queries: self.max_queries,
            incomplete: self.incomplete,
        }
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

    #[test]
    fn accumulator_merge_is_partition_independent() {
        let records: Vec<ExecutionRecord> =
            (0..37).map(|i| rec(i * 3 + 1, (i % 7) as u32)).collect();
        let serial = CostSummary::from_records(&records);
        // Any chunking, merged in any order, must be bit-identical.
        for chunk in [1, 2, 5, 36, 37] {
            let mut parts: Vec<CostAccumulator> = records
                .chunks(chunk)
                .map(|c| {
                    let mut a = CostAccumulator::default();
                    c.iter().for_each(|r| a.add(r));
                    a
                })
                .collect();
            parts.reverse(); // merge order must not matter
            let mut total = CostAccumulator::default();
            for p in &parts {
                total.merge(p);
            }
            assert_eq!(total.finish(), serial);
        }
    }

    #[test]
    fn accumulator_tracks_query_totals() {
        let mut a = CostAccumulator::default();
        a.add(&rec(4, 2));
        a.add(&rec(9, 3));
        assert_eq!(a.total_queries(), 13);
        assert_eq!(a.runs(), 2);
    }
}
