//! # vc-adversary
//!
//! Executable lower-bound adversaries for the paper's constructions. The
//! paper proves its lower bounds against *all* algorithms; this crate turns
//! each proof's adversary into a concrete process that can be run against
//! any [`vc_model::QueryAlgorithm`], producing a finalized instance and a
//! machine-checkable failure certificate:
//!
//! * [`hidden_leaf`] — the distance lower bound of Proposition 3.12: on the
//!   complete binary tree with a uniformly random hidden leaf color, any
//!   algorithm restricted to distance `< log n − 1` answers correctly with
//!   probability at most 1/2.
//! * [`leaf_coloring`] — the deterministic volume lower bound of
//!   Proposition 3.13: an adaptive process grows a binary tree in response
//!   to the algorithm's queries, then colors all unseen leaves with the
//!   *opposite* of the algorithm's answer, defeating any deterministic
//!   algorithm that uses fewer than `n/3` queries.
//! * [`hierarchical`] — the deterministic volume lower bound of
//!   Proposition 5.20: a lazily grown Hierarchical-THC(k) world in which a
//!   volume-bounded deterministic algorithm is cornered into an invalid
//!   output (declining at the top level, coloring against its visible
//!   monochromatic region, or producing adjacent conflicting colors found
//!   via binary search).

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

pub mod hidden_leaf;
pub mod hierarchical;
pub mod leaf_coloring;
