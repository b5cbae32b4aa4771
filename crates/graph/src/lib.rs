//! # vc-graph
//!
//! Bounded-degree, port-numbered graphs and the input labelings used by the
//! volume-complexity model of Rosenbaum & Suomela, *Seeing Far vs. Seeing
//! Wide: Volume Complexity of Local Graph Problems* (PODC 2020).
//!
//! This crate is the bottom substrate of the workspace. It provides:
//!
//! * [`Graph`] — an undirected graph of maximum degree `Δ = O(1)` in which
//!   every node orders its incident edges by *port numbers* `1..=deg(v)`
//!   (paper §2.1), together with a validating [`GraphBuilder`].
//! * [`NodeLabel`] — the per-node input label: the (colored, balanced) tree
//!   labelings of Definitions 3.1, 4.1, 6.1 and 6.4, expressed as one record
//!   over finite alphabets.
//! * [`Instance`] — a labeled graph, the unit every algorithm, checker and
//!   generator operates on.
//! * [`structure`] — the derived pseudo-forest `G_T` (Observation 3.7), node
//!   status classification (Definition 3.3), levels (Definition 5.1) and the
//!   hierarchical forest `G_k` (Observations 5.3–5.4).
//! * [`gen`] — every instance family used in the paper's constructions and
//!   lower bounds (complete binary trees, pseudo-trees with one cycle,
//!   balanced-tree instances and disjointness embeddings, hierarchical /
//!   hybrid / HH instances, cycles, the CONGEST two-tree gadget).
//! * [`store`] — the versioned binary on-disk instance format
//!   (`vc-instance/v1`): flat little-endian CSR arrays plus fixed-width
//!   label records, identity-checked on load, so million-node instances
//!   are generated once and reloaded across sweeps.
//!
//! ## Example
//!
//! ```
//! use vc_graph::{gen, structure::NodeStatus};
//!
//! // The complete binary tree of Proposition 3.12, with red internals and
//! // blue leaves.
//! let inst = gen::complete_binary_tree(3, vc_graph::Color::R, vc_graph::Color::B);
//! assert_eq!(inst.graph.n(), 15);
//! let status = vc_graph::structure::statuses(&inst);
//! assert_eq!(status.iter().filter(|s| **s == NodeStatus::Leaf).count(), 8);
//! ```

#![deny(missing_docs)]

pub mod gen;
mod graph;
mod instance;
mod label;
pub mod store;
pub mod structure;

pub use graph::{Graph, GraphBuilder, GraphError};
pub use instance::Instance;
pub use label::{Color, NodeLabel, Port};
pub use store::{
    decode_instance, encode_instance, load_instance, save_instance, write_atomically, StoreError,
    STORE_MAGIC, STORE_VERSION,
};

/// Convenience alias: internal node index (dense, `0..n`).
///
/// Distinct from the *unique identifier* (`Graph::id`), which is an arbitrary
/// `u64` drawn from `[n^α]` as in paper §2.1.
pub type NodeIdx = usize;
