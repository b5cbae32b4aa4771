//! # vc-stats
//!
//! Statistical substrate for the volume-complexity experiments:
//!
//! * [`logstar`] — iterated logarithms (`log* n` appears throughout the
//!   landscape of Figures 1–2).
//! * [`fit`] — complexity-class fitting: turning a measured `(n, cost)`
//!   curve into a claimed `Θ`-class, used by the Table 1 report to
//!   compare measured growth against the paper's Table 1.

pub mod fit;
pub mod logstar;

pub use fit::{fit_complexity, fit_exponent, ClassFamily, ComplexityClass, FitResult};
pub use logstar::{log2f, log_star};
