//! [`Log2Hist`]: the fixed-shape power-of-two histogram behind every
//! cost distribution in [`crate::SweepMetrics`].
//!
//! The related LCL landscape literature (and Table 1 of the source
//! paper) classifies problems by the *distribution* of per-start costs,
//! not just their maxima; log2 buckets capture those distributions at
//! every scale with a fixed, partition-independent shape. All state is
//! integral, so merging per-chunk partials in any grouping is
//! bit-identical to serial accumulation — the same argument that makes
//! `CostAccumulator` safe under the sharded engine.

// VC012: no truncating `as` cast on a merge path (non-test code).
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]

/// Number of buckets: bucket 0 holds the value 0 and bucket `i ≥ 1`
/// holds values in `[2^(i-1), 2^i)`, so every `u64` lands in a bucket.
pub const BUCKETS: usize = 65;

/// A power-of-two histogram over `u64` observations with exact count,
/// sum and max side-channels.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Log2Hist {
    counts: [u64; BUCKETS],
    count: u64,
    sum: u128,
    max: u64,
}

impl Default for Log2Hist {
    fn default() -> Self {
        Self {
            counts: [0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl Log2Hist {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bucket index of `value`: 0 for 0, otherwise `floor(log2) + 1`.
    pub fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// The half-open value range `[lo, hi)` covered by `bucket`
    /// (saturating at `u64::MAX` for the top bucket).
    pub fn bucket_range(bucket: usize) -> (u64, u64) {
        match bucket {
            0 => (0, 1),
            b if b >= 64 => (1 << 63, u64::MAX),
            b => (1 << (b - 1), 1 << b),
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, value: u64) {
        self.counts[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum += u128::from(value);
        self.max = self.max.max(value);
    }

    /// Folds another histogram into this one (bucket-wise addition).
    pub fn merge(&mut self, other: &Log2Hist) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all observations.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Largest observation (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean observation (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// `(bucket index, count)` for every non-empty bucket, ascending.
    pub fn nonzero_buckets(&self) -> Vec<(usize, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
            .collect()
    }

    /// Count in one bucket.
    pub fn bucket_count(&self, bucket: usize) -> u64 {
        self.counts.get(bucket).copied().unwrap_or(0)
    }

    /// An upper bound on the `q`-quantile (`0.0 ..= 1.0`): the exclusive
    /// upper edge of the first bucket whose cumulative count reaches
    /// `ceil(q * count)`. Returns 0 for an empty histogram.
    pub fn quantile_upper(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let clamped = q.clamp(0.0, 1.0);
        #[expect(
            clippy::cast_possible_truncation,
            reason = "VC012: with q in [0, 1] the value lies in [1, count as f64], \
                      at most 2^64, and a float-to-int `as` saturates at u64::MAX"
        )]
        let target = (clamped * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                // The inclusive upper edge of bucket i.
                let (lo, hi) = Self::bucket_range(i);
                return if i == 0 { lo } else { hi - 1 };
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(Log2Hist::bucket_of(0), 0);
        assert_eq!(Log2Hist::bucket_of(1), 1);
        assert_eq!(Log2Hist::bucket_of(2), 2);
        assert_eq!(Log2Hist::bucket_of(3), 2);
        assert_eq!(Log2Hist::bucket_of(4), 3);
        assert_eq!(Log2Hist::bucket_of(1023), 10);
        assert_eq!(Log2Hist::bucket_of(1024), 11);
        assert_eq!(Log2Hist::bucket_of(u64::MAX), 64);
    }

    #[test]
    fn ranges_cover_their_buckets() {
        for v in [0u64, 1, 2, 3, 7, 8, 1000, 1 << 40] {
            let b = Log2Hist::bucket_of(v);
            let (lo, hi) = Log2Hist::bucket_range(b);
            assert!(
                lo <= v && (v < hi || hi == u64::MAX),
                "value {v} bucket {b}"
            );
        }
    }

    #[test]
    fn observe_tracks_count_sum_max() {
        let mut h = Log2Hist::new();
        for v in [0u64, 1, 5, 5, 16] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 27);
        assert_eq!(h.max(), 16);
        assert!((h.mean() - 5.4).abs() < 1e-12);
        assert_eq!(h.bucket_count(0), 1);
        assert_eq!(h.bucket_count(1), 1);
        assert_eq!(h.bucket_count(3), 2);
        assert_eq!(h.bucket_count(5), 1);
        assert_eq!(h.nonzero_buckets(), vec![(0, 1), (1, 1), (3, 2), (5, 1)]);
    }

    #[test]
    fn merge_is_partition_independent() {
        let values: Vec<u64> = (0..97).map(|i| (i * i * 7 + i) % 5000).collect();
        let mut serial = Log2Hist::new();
        values.iter().for_each(|&v| serial.observe(v));
        for chunk in [1, 3, 10, 96, 97] {
            let mut parts: Vec<Log2Hist> = values
                .chunks(chunk)
                .map(|c| {
                    let mut h = Log2Hist::new();
                    c.iter().for_each(|&v| h.observe(v));
                    h
                })
                .collect();
            parts.reverse();
            let mut total = Log2Hist::new();
            for p in &parts {
                total.merge(p);
            }
            assert_eq!(total, serial, "chunk size {chunk}");
        }
    }

    #[test]
    fn quantiles_bound_from_above() {
        let mut h = Log2Hist::new();
        for v in 1..=100u64 {
            h.observe(v);
        }
        // The median of 1..=100 is ~50; its bucket [32, 64) upper edge is 63.
        assert_eq!(h.quantile_upper(0.5), 63);
        // The max lands in [64, 128).
        assert_eq!(h.quantile_upper(1.0), 127);
        assert_eq!(Log2Hist::new().quantile_upper(0.5), 0);
        let mut zeros = Log2Hist::new();
        zeros.observe(0);
        assert_eq!(zeros.quantile_upper(0.5), 0);
    }
}
