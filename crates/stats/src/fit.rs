//! Complexity-class fitting: turning measured `(n, cost)` curves into
//! claimed `Θ`-classes.
//!
//! The paper's results are asymptotic classes (Table 1); our experiments
//! measure exact worst-case costs on instance sweeps. This module fits the
//! measured curve `cost(n) ≈ c · g(n)` against every candidate class `g` in
//! the landscape of Figures 1–3, scoring each by normalized RMSE, and
//! reports the best-fitting class. The polynomial class fits its exponent
//! `α` from a log–log regression, so `Θ(n^{1/k})` families report `α ≈ 1/k`.

use crate::logstar::{log2f, log_star};
use std::fmt;

/// Candidate growth classes from the paper's landscape figures.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ComplexityClass {
    /// `Θ(1)` — class A.
    Constant,
    /// `Θ(log* n)` — class B.
    LogStar,
    /// `Θ(log log n)` — the randomized shattering region.
    LogLog,
    /// `Θ(log n)` — class C/D boundary.
    Log,
    /// `Θ(log² n)` — polylog region (the `Θ̃` factors).
    LogSquared,
    /// `Θ(n^α)` with a fitted exponent `0 < α < 1`.
    Poly {
        /// Fitted exponent.
        alpha: f64,
    },
    /// `Θ(n / log n)` — the Proposition 5.20 lower-bound shape.
    NOverLog,
    /// `Θ(n)` — global problems.
    Linear,
}

/// Coarse Θ-family of a fitted class, matching the three regimes the
/// paper's Table 1 separates: bounded/near-bounded volume, logarithmic
/// volume (`Θ(log n)`, up to polylog factors), and near-linear volume
/// (`Θ(n)` and its `n/log n` / `n^{α≈1}` neighbours).
///
/// The empirical classifier reports families rather than raw classes so a
/// fit that lands on, say, `Θ(n^{0.97})` instead of `Θ(n)` on a noisy
/// curve still machine-checks as "linear-family" — the distinction Table 1
/// actually draws.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClassFamily {
    /// `Θ(1)`, `Θ(log* n)`, `Θ(log log n)` — the sub-logarithmic regime.
    Bounded,
    /// `Θ(log n)` and `Θ(log² n)` — the logarithmic/polylog regime.
    Logarithmic,
    /// Genuinely polynomial but sublinear: `Θ(n^α)` with `α` bounded away
    /// from both 0 and 1 (e.g. the `Θ(n^{1/k})` hierarchy of Theorem 5.6).
    Polynomial,
    /// `Θ(n)`, `Θ(n/log n)` and `Θ(n^α)` with `α ≈ 1` — the near-linear
    /// regime of the global problems.
    NearLinear,
}

impl fmt::Display for ClassFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClassFamily::Bounded => write!(f, "bounded"),
            ClassFamily::Logarithmic => write!(f, "logarithmic"),
            ClassFamily::Polynomial => write!(f, "polynomial"),
            ClassFamily::NearLinear => write!(f, "near-linear"),
        }
    }
}

impl ComplexityClass {
    /// The coarse [`ClassFamily`] this class belongs to.
    ///
    /// Polynomial fits with `α ≥ 0.9` count as near-linear (a noisy `Θ(n)`
    /// curve often fits `n^{0.9..1}` marginally better than `n`).
    pub fn family(&self) -> ClassFamily {
        match *self {
            ComplexityClass::Constant | ComplexityClass::LogStar | ComplexityClass::LogLog => {
                ClassFamily::Bounded
            }
            ComplexityClass::Log | ComplexityClass::LogSquared => ClassFamily::Logarithmic,
            ComplexityClass::Poly { alpha } if alpha >= 0.9 => ClassFamily::NearLinear,
            ComplexityClass::Poly { .. } => ClassFamily::Polynomial,
            ComplexityClass::NOverLog | ComplexityClass::Linear => ClassFamily::NearLinear,
        }
    }

    /// The growth function `g(n)` of the class.
    pub fn g(&self, n: f64) -> f64 {
        match *self {
            ComplexityClass::Constant => 1.0,
            ComplexityClass::LogStar => f64::from(log_star(n)).max(1.0),
            ComplexityClass::LogLog => log2f(log2f(n)).max(1.0),
            ComplexityClass::Log => log2f(n).max(1.0),
            ComplexityClass::LogSquared => {
                let l = log2f(n).max(1.0);
                l * l
            }
            ComplexityClass::Poly { alpha } => n.powf(alpha),
            ComplexityClass::NOverLog => n / log2f(n).max(1.0),
            ComplexityClass::Linear => n,
        }
    }

    /// Whether two classes agree (polynomial exponents within `tol`).
    pub fn matches(&self, other: &ComplexityClass, tol: f64) -> bool {
        match (self, other) {
            (ComplexityClass::Poly { alpha: a }, ComplexityClass::Poly { alpha: b }) => {
                (a - b).abs() <= tol
            }
            _ => self == other,
        }
    }
}

impl fmt::Display for ComplexityClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ComplexityClass::Constant => write!(f, "Θ(1)"),
            ComplexityClass::LogStar => write!(f, "Θ(log* n)"),
            ComplexityClass::LogLog => write!(f, "Θ(log log n)"),
            ComplexityClass::Log => write!(f, "Θ(log n)"),
            ComplexityClass::LogSquared => write!(f, "Θ(log² n)"),
            ComplexityClass::Poly { alpha } => write!(f, "Θ(n^{alpha:.2})"),
            ComplexityClass::NOverLog => write!(f, "Θ(n/log n)"),
            ComplexityClass::Linear => write!(f, "Θ(n)"),
        }
    }
}

/// Result of fitting a measured curve.
#[derive(Clone, Debug)]
pub struct FitResult {
    /// The best-fitting class.
    pub class: ComplexityClass,
    /// Fitted slope `c` in `cost ≈ a + c · g(n)`.
    pub scale: f64,
    /// Fitted intercept `a`.
    pub intercept: f64,
    /// Normalized RMSE of the winning class.
    pub score: f64,
    /// Score of every candidate, best first.
    pub candidates: Vec<(ComplexityClass, f64)>,
}

impl fmt::Display for FitResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (c ≈ {:.2}, nrmse {:.3})",
            self.class, self.scale, self.score
        )
    }
}

/// Affine least-squares fit `y ≈ a + c · g(n)` (the intercept absorbs the
/// additive constants every real algorithm has), returning the slope `c`
/// and the normalized RMSE. Fits with a negative slope are rejected (a
/// decreasing "growth" curve is not evidence for the class).
fn score_class(samples: &[(f64, f64)], class: &ComplexityClass) -> (f64, f64, f64) {
    let m = samples.len() as f64;
    let mut sg = 0.0;
    let mut sy = 0.0;
    let mut sgg = 0.0;
    let mut sgy = 0.0;
    for &(n, y) in samples {
        let g = class.g(n);
        sg += g;
        sy += y;
        sgg += g * g;
        sgy += g * y;
    }
    let denom = m * sgg - sg * sg;
    let (a, c) = if denom.abs() < 1e-12 {
        // g is (numerically) constant: pure intercept fit.
        (sy / m, 0.0)
    } else {
        let c = (m * sgy - sg * sy) / denom;
        let a = (sy - c * sg) / m;
        (a, c)
    };
    if c < 0.0 {
        return (c, a, f64::INFINITY);
    }
    let mut sse = 0.0;
    for &(n, y) in samples {
        let e = y - (a + c * class.g(n));
        sse += e * e;
    }
    let mean_y = sy / m;
    let rmse = (sse / m).sqrt();
    let nrmse = if mean_y.abs() < f64::EPSILON {
        rmse
    } else {
        rmse / mean_y.abs()
    };
    (c, a, nrmse)
}

/// Log–log regression estimate of the exponent `α` in `y ≈ c · n^α`:
/// the least-squares slope of `ln y` against `ln n` over the samples with
/// `n > 1` and `y > 0` (0 when fewer than two remain). Defined for every
/// curve, so it also orders growth rates whose best class is not
/// polynomial (the hierarchy check of Figure 3).
pub fn fit_exponent(samples: &[(f64, f64)]) -> f64 {
    let pts: Vec<(f64, f64)> = samples
        .iter()
        .filter(|&&(n, y)| n > 1.0 && y > 0.0)
        .map(|&(n, y)| (n.ln(), y.ln()))
        .collect();
    if pts.len() < 2 {
        return 0.0;
    }
    let m = pts.len() as f64;
    let sx: f64 = pts.iter().map(|p| p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.1).sum();
    let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
    let denom = m * sxx - sx * sx;
    if denom.abs() < f64::EPSILON {
        return 0.0;
    }
    (m * sxy - sx * sy) / denom
}

/// Fits a measured `(n, cost)` curve against every candidate class and
/// returns the ranking.
///
/// # Panics
///
/// Panics if fewer than two samples are supplied.
pub fn fit_complexity(samples: &[(f64, f64)]) -> FitResult {
    assert!(samples.len() >= 2, "need at least two (n, cost) samples");
    let alpha = fit_exponent(samples).clamp(0.0, 1.5);
    let mut candidates = vec![
        ComplexityClass::Constant,
        ComplexityClass::LogStar,
        ComplexityClass::LogLog,
        ComplexityClass::Log,
        ComplexityClass::LogSquared,
        ComplexityClass::NOverLog,
        ComplexityClass::Linear,
    ];
    // Only offer the fitted polynomial when it is meaningfully sublinear and
    // super-polylog; otherwise the named classes should win.
    if alpha > 0.05 && alpha < 0.95 {
        candidates.push(ComplexityClass::Poly { alpha });
    }
    let mut scored: Vec<(ComplexityClass, f64, f64, f64)> = candidates
        .into_iter()
        .map(|cl| {
            let (c, a, s) = score_class(samples, &cl);
            (cl, c, a, s)
        })
        .collect();
    // Stable sort with a small tolerance: when two classes explain the data
    // (almost) equally well, the simpler one (earlier in the candidate
    // list) wins.
    scored.sort_by(|a, b| {
        let (x, y) = (a.3, b.3);
        if (x - y).abs() <= 0.002 + 0.01 * x.min(y) {
            std::cmp::Ordering::Equal
        } else {
            x.partial_cmp(&y).unwrap_or(std::cmp::Ordering::Equal)
        }
    });
    let best = scored[0];
    FitResult {
        class: best.0,
        scale: best.1,
        intercept: best.2,
        score: best.3,
        candidates: scored.into_iter().map(|(cl, _, _, s)| (cl, s)).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep(f: impl Fn(f64) -> f64) -> Vec<(f64, f64)> {
        (8..=17)
            .map(|e| {
                let n = f64::from(1 << e);
                (n, f(n))
            })
            .collect()
    }

    #[test]
    fn fits_logarithmic_curves() {
        let r = fit_complexity(&sweep(|n| 3.0 * n.log2() + 2.0));
        assert_eq!(r.class, ComplexityClass::Log, "{r}");
    }

    #[test]
    fn fits_linear_curves() {
        let r = fit_complexity(&sweep(|n| 0.5 * n));
        assert_eq!(r.class, ComplexityClass::Linear, "{r}");
        assert!((r.scale - 0.5).abs() < 0.05);
        assert!(r.intercept.abs() < 10.0);
    }

    #[test]
    fn fits_affine_log_exactly() {
        // Distance curves are typically a·log n + b; the intercept must not
        // push the fit towards a small polynomial.
        let r = fit_complexity(&sweep(|n| 0.5 * n.log2() + 3.0));
        assert_eq!(r.class, ComplexityClass::Log, "{r}");
        assert!((r.scale - 0.5).abs() < 0.01);
        assert!((r.intercept - 3.0).abs() < 0.1);
    }

    #[test]
    fn fits_square_root_exponent() {
        let r = fit_complexity(&sweep(|n| 2.0 * n.sqrt()));
        match r.class {
            ComplexityClass::Poly { alpha } => {
                assert!((alpha - 0.5).abs() < 0.05, "alpha = {alpha}")
            }
            other => panic!("expected Θ(n^0.5), got {other}"),
        }
    }

    #[test]
    fn fits_cube_root_exponent() {
        let r = fit_complexity(&sweep(|n| 1.5 * n.powf(1.0 / 3.0)));
        match r.class {
            ComplexityClass::Poly { alpha } => {
                assert!((alpha - 1.0 / 3.0).abs() < 0.05, "alpha = {alpha}")
            }
            other => panic!("expected Θ(n^0.33), got {other}"),
        }
    }

    #[test]
    fn fit_exponent_recovers_the_power() {
        let series: Vec<(f64, f64)> = (3..10)
            .map(|e| {
                let n = f64::from(1 << e);
                (n, n.sqrt())
            })
            .collect();
        assert!((fit_exponent(&series) - 0.5).abs() < 1e-9);
        assert_eq!(fit_exponent(&[(8.0, 0.0), (16.0, 3.0)]), 0.0);
    }

    #[test]
    fn fits_constant_curves() {
        let r = fit_complexity(&sweep(|_| 7.0));
        assert_eq!(r.class, ComplexityClass::Constant);
        // For the constant class the level lives in the intercept.
        assert!((r.intercept + r.scale - 7.0).abs() < 1e-6, "{r}");
    }

    #[test]
    fn fits_n_over_log() {
        let r = fit_complexity(&sweep(|n| 2.0 * n / n.log2()));
        // n/log n and n^α with α slightly below 1 are close; accept either
        // but the exponent must be near 1.
        match r.class {
            ComplexityClass::NOverLog => {}
            ComplexityClass::Poly { alpha } => assert!(alpha > 0.75, "alpha = {alpha}"),
            ComplexityClass::Linear => {}
            other => panic!("unexpected class {other}"),
        }
    }

    #[test]
    fn noisy_log_still_wins() {
        let samples: Vec<(f64, f64)> = sweep(|n| 5.0 * n.log2())
            .into_iter()
            .enumerate()
            .map(|(i, (n, y))| (n, y * (1.0 + 0.02 * if i % 2 == 0 { 1.0 } else { -1.0 })))
            .collect();
        let r = fit_complexity(&samples);
        assert_eq!(r.class, ComplexityClass::Log, "{r}");
    }

    #[test]
    fn matches_compares_exponents() {
        let a = ComplexityClass::Poly { alpha: 0.52 };
        let b = ComplexityClass::Poly { alpha: 0.5 };
        assert!(a.matches(&b, 0.05));
        assert!(!a.matches(&b, 0.01));
        assert!(ComplexityClass::Log.matches(&ComplexityClass::Log, 0.0));
        assert!(!ComplexityClass::Log.matches(&ComplexityClass::Linear, 0.0));
    }

    #[test]
    fn display_forms() {
        assert_eq!(ComplexityClass::Log.to_string(), "Θ(log n)");
        assert_eq!(
            ComplexityClass::Poly { alpha: 0.333 }.to_string(),
            "Θ(n^0.33)"
        );
        let r = fit_complexity(&sweep(|n| n));
        assert!(r.to_string().contains("Θ(n)"));
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn needs_two_samples() {
        let _ = fit_complexity(&[(8.0, 1.0)]);
    }

    #[test]
    fn families_partition_the_landscape() {
        use ClassFamily::*;
        assert_eq!(ComplexityClass::Constant.family(), Bounded);
        assert_eq!(ComplexityClass::LogStar.family(), Bounded);
        assert_eq!(ComplexityClass::LogLog.family(), Bounded);
        assert_eq!(ComplexityClass::Log.family(), Logarithmic);
        assert_eq!(ComplexityClass::LogSquared.family(), Logarithmic);
        assert_eq!(ComplexityClass::Poly { alpha: 0.5 }.family(), Polynomial);
        assert_eq!(ComplexityClass::Poly { alpha: 0.93 }.family(), NearLinear);
        assert_eq!(ComplexityClass::NOverLog.family(), NearLinear);
        assert_eq!(ComplexityClass::Linear.family(), NearLinear);
        assert_eq!(NearLinear.to_string(), "near-linear");
    }

    #[test]
    fn fitted_families_are_robust_to_class_ambiguity() {
        // A linear curve must land in the near-linear family even if the
        // class-level winner is n/log n or n^{0.96}.
        let r = fit_complexity(&sweep(|n| 0.8 * n + 40.0));
        assert_eq!(r.class.family(), ClassFamily::NearLinear, "{r}");
        let r = fit_complexity(&sweep(|n| 4.0 * n.log2() + 9.0));
        assert_eq!(r.class.family(), ClassFamily::Logarithmic, "{r}");
    }

    #[test]
    fn candidates_ranked_best_first() {
        let r = fit_complexity(&sweep(|n| n.log2()));
        // Ranking is by score up to the simplicity tie-break.
        for w in r.candidates.windows(2) {
            assert!(w[0].1 <= w[1].1 + 0.002 + 0.01 * w[0].1.min(w[1].1));
        }
        assert_eq!(r.candidates[0].0, r.class);
        assert!(r.candidates.last().unwrap().1 >= r.candidates[0].1);
    }
}
