//! # vc-faults
//!
//! Seeded, deterministic fault injection for query-model oracles.
//!
//! The paper's model assumes a perfectly reliable world: every
//! `query(v, p)` answers, every label is truthful, every budget is the
//! one configured. Real sweeps — and adversarial settings like §6's
//! lower-bound constructions — are not so kind. This crate makes
//! unreliability a *first-class, reproducible input*: a [`FaultPlan`]
//! describes which queries are refused, which nodes lie, which nodes
//! crash and when budgets collapse, and every decision is a pure hash of
//! `(seed, fault class, stable key)` — so a faulty sweep replays
//! bit-for-bit, composes with `vc-audit`'s contract auditor and any
//! `vc-trace` tracer, and parallelizes under `vc-engine` with the same
//! any-thread-count determinism as a clean sweep.
//!
//! Three layers:
//!
//! * [`FaultPlan`] — the declarative, seedable plan (builders, a
//!   `key=value` spec string, the `VC_FAULTS` environment variable).
//! * [`FaultyOracle`] — wraps any [`Oracle`](vc_model::Oracle) and
//!   injects the plan's faults; refused queries surface as
//!   [`QueryError::FaultInjected`](vc_model::QueryError::FaultInjected),
//!   loudly.
//! * [`FaultedAlgorithm`] — wraps any
//!   [`QueryAlgorithm`](vc_model::QueryAlgorithm) so whole sweeps run
//!   under the plan; outputs come back as [`Faulted`] values carrying the
//!   per-execution injection count.
//!
//! The degradation contract these pieces support (enforced by
//! `tests/fault_degradation.rs` for every Table-1 solver): an execution
//! either completes untouched (then its output and record are
//! bit-identical to the fault-free run), or it is *loudly* degraded —
//! truncated (`completed == false`), flagged (`injected > 0`), or both.
//! Never silently wrong, with one deliberate exception: label corruption
//! models Byzantine nodes, is flagged in the injection count, and is
//! caught against ground truth by `vc-audit`'s instance replay.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
// VC001: library code returns errors and never aborts. Test code may
// unwrap, expect and panic (clippy.toml).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

mod algo;
mod fleet;
mod oracle;
mod plan;

pub use algo::{Faulted, FaultedAlgorithm};
pub use fleet::{CrashStyle, KillPlan};
pub use oracle::FaultyOracle;
pub use plan::{FaultPlan, SpecError, FAULTS_ENV};
