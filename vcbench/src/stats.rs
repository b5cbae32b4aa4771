//! Order statistics over per-unit samples.
//!
//! Rates and latencies are reported from medians of per-unit samples, so
//! a burst of hypervisor steal that slows a few units does not move them.

/// The median of `samples` (mean of the middle two for an even count);
/// 0 for an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    let sorted = sorted(samples);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The nearest-rank `q`-quantile of `samples` (`q` in `(0, 1]`); 0 for an
/// empty slice.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    let sorted = sorted(samples);
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// How many samples lie strictly above the nearest-rank `q`-quantile.
pub fn beyond(samples: &[f64], q: f64) -> usize {
    let cut = quantile(samples, q);
    samples.iter().filter(|&&s| s > cut).count()
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.9), 90.0);
        assert_eq!(beyond(&xs, 0.9), 10);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
        let eighteen: Vec<f64> = (1..=18).map(f64::from).collect();
        assert_eq!(quantile(&eighteen, 0.9), 17.0);
        assert_eq!(beyond(&eighteen, 0.9), 1);
    }
}
