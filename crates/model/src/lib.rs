//! # vc-model
//!
//! The models of computing from paper §2 (and §7.3–7.4):
//!
//! * [`oracle`] — the query model: an algorithm initiated at a node `v`
//!   maintains a set `V_v` of visited nodes and in each step issues
//!   `query(w, j)` for a visited `w` and port `j`, learning the identity,
//!   degree and input of the `j`-th neighbor of `w` (§2.2). The
//!   [`oracle::Oracle`] trait abstracts the *world* being queried so that
//!   both concrete instances ([`oracle::Execution`]) and the adaptive
//!   lower-bound adversaries of `vc-adversary` can serve queries.
//! * [`randomness`] — per-node random strings `r_v` (iid fair bits,
//!   sequentially accessed, shared consistently between executions started
//!   at different nodes), in the *private*, *public* and *secret* flavors
//!   discussed in §7.4.
//! * [`cost`] — volume and distance cost accounting (Definitions 2.1–2.2)
//!   and execution budgets for truncated runs (Remark 3.11).
//! * [`run`] — the [`run::QueryAlgorithm`] trait and a runner that executes
//!   an algorithm from every node, collecting the induced output labeling
//!   and exact worst-case costs `VOL_n`, `DIST_n`.
//! * [`congest`] — a synchronous CONGEST simulator with B-bit links (§7.3,
//!   Observations 7.4–7.5, Example 7.6).

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

pub mod congest;
pub mod cost;
pub mod oracle;
pub mod randomness;
pub mod run;

pub use cost::{Budget, CostAccumulator, CostSummary, ExecutionRecord};
pub use oracle::{ExecScratch, Execution, NodeView, Oracle, QueryError, SolverScratch};
pub use randomness::{RandomTape, RandomnessMode};
pub use run::{
    run_all, run_all_traced, run_from, run_from_traced, run_from_with, QueryAlgorithm, RunReport,
    StartError, StartSelection,
};
