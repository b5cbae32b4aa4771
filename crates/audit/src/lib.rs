//! # vc-audit
//!
//! An independent auditor for the query-model contract of §2.2.
//!
//! Every other crate in this workspace *trusts* its [`vc_model::Oracle`]
//! implementation: [`vc_model::Execution`] answers from a concrete instance,
//! and the adversaries of `vc-adversary` grow their worlds lazily. This
//! crate trusts none of them. [`AuditedOracle`] interposes on the full query
//! stream between an algorithm and any oracle, records every probe and its
//! answer in a [`ProbeTrace`], and re-verifies the model contract from the
//! trace alone:
//!
//! * **connected region** — `V_v` grows only through queries issued at
//!   already-visited nodes (Definition 2.2);
//! * **volume accounting** — the reported volume equals `|V_v|` recomputed
//!   from the trace, never trusted from the world's own counters
//!   (Definition 2.2);
//! * **distance accounting** — the reported distance upper bound dominates
//!   the BFS radius of the probe-revealed region (Definition 2.1) and never
//!   exceeds the discovery-path depth;
//! * **answer consistency** — re-querying `(w, j)` yields the identical
//!   answer, and errors agree with previously revealed degrees;
//! * **node immutability** — a node's identifier, degree and input label
//!   never change across revisits;
//! * **identifier uniqueness** — distinct node handles never share an
//!   identifier (§2.1);
//! * **randomness discipline** — a run declared deterministic never touches
//!   a random tape, and secret-randomness mode (§7.4) never reveals a
//!   foreign node's random string.
//!
//! The [`replay`] module closes the loop for the *lazily built* worlds: a
//! trace captured against an adaptive adversary is replayed against the
//! finalized [`vc_graph::Instance`], asserting that every answer the
//! adversary gave is realized by the world it ultimately committed to
//! (including port symmetry, which a live trace alone cannot observe).
//!
//! Violations are never panics: they accumulate as structured
//! [`Violation`] diagnostics naming the §2.2 invariant and the offending
//! probe, so a single audited run can report every breach at once.

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

pub mod oracle;
pub mod replay;
pub mod report;
pub mod trace;

pub use oracle::AuditedOracle;
pub use replay::replay_trace;
pub use report::{AuditReport, Invariant, Violation};
pub use trace::{Probe, ProbeTrace};
