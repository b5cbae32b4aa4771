//! The gates of the Table 1 report (`examples/table1_report.rs`): what the
//! curves behind a cell of the paper's Table 1 must show, and the
//! landscape checks of Figures 1 and 3.

use vc_graph::Instance;
use vc_stats::{fit_complexity, fit_exponent, ClassFamily, ComplexityClass, FitResult};

/// How far a polynomial cell's fitted exponent may sit from its `1/k`
/// (or `1/ℓ`).
///
/// Run-to-run spread cannot justify any value: seed offsets 0–4 move no
/// fitted exponent by more than 0.01. It absorbs the systematic
/// finite-`n` gap of the measured curves, the largest of which is 0.053
/// (Hierarchical-THC(3) and Hybrid-THC(3) R-VOL fit `n^0.28` against
/// `1/3`). It must stay below `1/12`, half the distance between `1/2` and
/// `1/3`, so that those two classes cannot pass for each other.
pub const EXPONENT_TOLERANCE: f64 = 0.07;

/// The growth a cell claims: a class family and, if polynomial, its exponent.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Claim {
    /// The family the fitted class must fall in.
    pub family: ClassFamily,
    /// The exponent `1/k` a polynomial fit must sit near.
    pub exponent: Option<f64>,
}

impl Claim {
    /// `Θ(log n)`.
    pub const LOG: Claim = Claim {
        family: ClassFamily::Logarithmic,
        exponent: None,
    };

    /// `Θ(n)` and `Θ̃(n)`.
    pub const LINEAR: Claim = Claim {
        family: ClassFamily::NearLinear,
        exponent: None,
    };

    /// `Θ(n^{1/k})` and `Θ̃(n^{1/k})`.
    pub fn root(k: u32) -> Claim {
        Claim {
            family: ClassFamily::Polynomial,
            exponent: Some(1.0 / f64::from(k)),
        }
    }

    /// Whether a fit of `class` with log–log slope `exponent` meets the
    /// claim.
    pub fn admits(&self, class: ComplexityClass, exponent: f64) -> bool {
        let near = |e: f64| (exponent - e).abs() <= EXPONENT_TOLERANCE;
        class.family() == self.family && self.exponent.is_none_or(near)
    }
}

/// Where a curve comes from: `solver`, `adversary` or `embedding`; a
/// cell with no curve of its own has source `bound`.
pub type Source = &'static str;

/// One measured point.
#[derive(Clone, Debug)]
pub struct Point {
    /// Instance size.
    pub n: usize,
    /// The cost measured at `n`.
    pub cost: u64,
    /// Content identity of the instance.
    pub instance_id: String,
    /// Failed checks: the checker's violations of the solver's outputs
    /// (`None` when starts were sampled), or 1 for a failed certificate.
    pub violations: Option<usize>,
}

impl Point {
    /// The point `(inst.n(), cost)`, labeled with `inst`'s identity.
    pub fn on(inst: &Instance, cost: u64, violations: Option<usize>) -> Self {
        let (n, instance_id) = (inst.n(), inst.instance_id().to_string());
        Point {
            n,
            cost,
            instance_id,
            violations,
        }
    }
}

/// A fitted cost curve and its failed checks.
#[derive(Clone, Debug)]
pub struct Curve {
    /// Where the numbers come from.
    pub source: Source,
    /// The solver, or the adversary and the solver it runs against.
    pub algorithm: String,
    /// The instance family.
    pub family: String,
    /// What `cost` counts.
    pub measure: &'static str,
    /// The points, in sweep order.
    pub points: Vec<Point>,
    /// The points' violations plus any the caller adds.
    pub violations: usize,
    /// The best-fitting class.
    pub fit: FitResult,
    /// The log–log slope of the points.
    pub exponent: f64,
}

impl Curve {
    /// Fits `points` (at least two) and totals their violations. The
    /// label is `(source, algorithm, family, measure)`.
    pub fn new<A, F>(label: (Source, A, F, &'static str), points: Vec<Point>) -> Self
    where
        A: Into<String>,
        F: Into<String>,
    {
        let (source, algorithm, family, measure) = label;
        let xy: Vec<(f64, f64)> = points.iter().map(|p| (p.n as f64, p.cost as f64)).collect();
        Curve {
            source,
            algorithm: algorithm.into(),
            family: family.into(),
            measure,
            violations: points.iter().filter_map(|p| p.violations).sum(),
            fit: fit_complexity(&xy),
            exponent: fit_exponent(&xy),
            points,
        }
    }

    /// Whether the curve meets `claim` with no failed check.
    pub fn meets(&self, claim: Claim) -> bool {
        self.violations == 0 && claim.admits(self.fit.class, self.exponent)
    }
}

/// One Table 1 entry and the curves behind it.
#[derive(Clone, Debug)]
pub struct Cell {
    /// The paper's class, as Table 1 prints it.
    pub expected: String,
    /// What the gate checks.
    pub claim: Claim,
    /// For a cell with no curves, the bound it inherits, in words.
    pub bound: Option<String>,
    /// Every curve must meet the claim.
    pub curves: Vec<Curve>,
    /// A remark the reader needs to weigh the evidence.
    pub note: Option<&'static str>,
    /// Whether the entry is reproduced.
    pub ok: bool,
}

impl Cell {
    /// A cell backed by `curves`; it passes if all of them meet `claim`.
    pub fn measured(expected: impl Into<String>, claim: Claim, curves: Vec<Curve>) -> Self {
        Cell {
            expected: expected.into(),
            claim,
            bound: None,
            ok: !curves.is_empty() && curves.iter().all(|c| c.meets(claim)),
            curves,
            note: None,
        }
    }

    /// A cell bounded by `upper` and passing exactly when it does.
    pub fn bounded_by(upper: &Cell, bound: String) -> Self {
        Cell {
            bound: Some(bound),
            curves: Vec::new(),
            note: None,
            ..upper.clone()
        }
    }
}

/// The Figure 1 gap check: whether a fitted deterministic distance class
/// is one LCLs on bounded-degree trees can have: `O(1)`, `Θ(log* n)`,
/// `Θ(log n)`, `Θ(n^{1/k})` (Chang, arXiv:2009.09645; Grunau–Rozhoň–
/// Brandt, arXiv:2202.04724) or near-linear. `Θ(log log n)` lies in the
/// gap, inside [`ClassFamily::Bounded`], so the family alone cannot tell.
pub fn in_distance_landscape(class: ComplexityClass) -> bool {
    matches!(class, ComplexityClass::Constant | ComplexityClass::LogStar)
        || class.family() != ClassFamily::Bounded
}

/// The Figure 3 hierarchy check: exponents for `k = 2, 3, …` decrease strictly.
pub fn strictly_decreasing(exponents: &[f64]) -> bool {
    exponents.windows(2).all(|w| w[0] > w[1])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn curve(cost: impl Fn(f64) -> f64, bad_at: Option<usize>) -> Curve {
        let points = (8..=15)
            .map(|e| Point {
                n: 1 << e,
                cost: cost(f64::from(1 << e)).round() as u64,
                instance_id: String::new(),
                violations: Some(usize::from(bad_at == Some(e))),
            })
            .collect();
        Curve::new(("solver", "solver", "family", "max_volume"), points)
    }

    #[test]
    fn an_exponent_of_0_28_is_a_cube_root_not_a_square_root() {
        let fitted = ComplexityClass::Poly { alpha: 0.28 };
        assert!(!Claim::root(2).admits(fitted, 0.28));
        assert!(Claim::root(3).admits(fitted, 0.28));
        let c = curve(|n| 1000.0 * n.powf(0.28), None);
        let (cube, square) = (c.meets(Claim::root(3)), c.meets(Claim::root(2)));
        assert!(cube && !square, "{}", c.fit);
    }

    #[test]
    fn a_log_log_distance_fails_the_gap_check() {
        use ComplexityClass::*;
        assert!(!in_distance_landscape(LogLog));
        for ok in [Constant, LogStar, Log, Poly { alpha: 0.5 }, Linear] {
            assert!(in_distance_landscape(ok), "{ok}");
        }
    }

    #[test]
    fn a_cell_with_one_violation_fails() {
        assert!(Cell::measured("Θ(n)", Claim::LINEAR, vec![curve(|n| n, None)]).ok);
        let dirty = Cell::measured("Θ(n)", Claim::LINEAR, vec![curve(|n| n, Some(11))]);
        assert_eq!((dirty.curves[0].violations, dirty.ok), (1, false));
        let bound = Cell::bounded_by(&dirty, "≤ D-DIST".into());
        assert!(bound.curves.is_empty() && !bound.ok);
    }

    #[test]
    fn equal_exponents_fail_the_strict_hierarchy() {
        assert!(strictly_decreasing(&[0.48, 0.28, 0.16]));
        assert!(!strictly_decreasing(&[0.48, 0.28, 0.28]));
        assert!(!strictly_decreasing(&[0.28, 0.48]));
    }
}
