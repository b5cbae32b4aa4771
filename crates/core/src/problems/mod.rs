//! The problem constructions of the paper and their solvers.

// VC005: per-node state lives in flat scratch, tests included.
#![deny(clippy::disallowed_types)]

pub mod balanced_tree;
pub mod classic;
pub mod hh;
pub mod hierarchical;
pub mod hybrid;
pub mod leaf_coloring;
pub mod util;
