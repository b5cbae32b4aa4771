//! Port-numbered bounded-degree graphs (paper §2.1).

use crate::label::Port;
use crate::NodeIdx;
use std::collections::{BTreeSet, HashSet, VecDeque};
use std::error::Error;
use std::fmt;

/// Errors produced while building or validating a [`Graph`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GraphError {
    /// A node index referenced a node that does not exist.
    NoSuchNode(NodeIdx),
    /// A port on a node was assigned twice.
    PortInUse {
        /// The node whose port was reused.
        node: NodeIdx,
        /// The doubly assigned port.
        port: Port,
    },
    /// The ports of a node do not form a contiguous range `1..=deg(v)`.
    PortsNotContiguous {
        /// The node with a gap in its port numbering.
        node: NodeIdx,
    },
    /// An undirected edge is present in only one endpoint's adjacency.
    AsymmetricEdge {
        /// The endpoint that has the edge.
        from: NodeIdx,
        /// The endpoint missing the reverse port.
        to: NodeIdx,
    },
    /// Two nodes share the same unique identifier.
    DuplicateId {
        /// The repeated identifier.
        id: u64,
    },
    /// A self-loop was requested; the model uses simple graphs.
    SelfLoop {
        /// The node that was connected to itself.
        node: NodeIdx,
    },
    /// The flat CSR arrays are internally inconsistent (possible only for
    /// graphs deserialized from untrusted data; the builder always produces
    /// well-formed CSR).
    MalformedCsr,
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NoSuchNode(v) => write!(f, "node {v} does not exist"),
            GraphError::PortInUse { node, port } => {
                write!(f, "port {port} of node {node} is already in use")
            }
            GraphError::PortsNotContiguous { node } => {
                write!(
                    f,
                    "ports of node {node} do not form a contiguous range 1..=deg"
                )
            }
            GraphError::AsymmetricEdge { from, to } => {
                write!(f, "edge {from}->{to} has no reverse counterpart")
            }
            GraphError::DuplicateId { id } => write!(f, "duplicate unique identifier {id}"),
            GraphError::SelfLoop { node } => write!(f, "self-loop requested at node {node}"),
            GraphError::MalformedCsr => write!(f, "flat CSR adjacency arrays are inconsistent"),
        }
    }
}

impl Error for GraphError {}

/// An undirected graph with port-numbered edges and unique node identifiers.
///
/// Every edge `{v, w}` is realized as the two ordered edges `(v, w)` and
/// `(w, v)`; node `v` reaches `w` through a port `p(v, w) ∈ [deg(v)]`, and
/// `p` is a bijection between `v`'s ordered out-edges and `[deg(v)]`
/// (paper §2.1). Unique identifiers are arbitrary distinct `u64` values
/// (the paper draws them from `[n^α]`).
///
/// Construct via [`GraphBuilder`]; a built graph is always structurally
/// valid (validated ports, symmetric edges, distinct identifiers).
///
/// ## Representation
///
/// Adjacency is stored in *compressed sparse row* (CSR) form: three flat
/// arrays shared by all nodes. Node `v`'s ports occupy the contiguous slice
/// `offsets[v] .. offsets[v + 1]` of `neighbors` (the endpoint behind each
/// port, in port order — ports are contiguous `1..=deg(v)`, so the slice
/// *is* the port table) and of `ports` (the reverse port `p(w, v)` of the
/// same slot). Both `neighbor` and `reverse_port` lookups are a single
/// bounds-checked flat-array access — no per-node `Vec` indirection — which
/// is what keeps the query-model hot loop in `vc-model` cache-friendly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Graph {
    /// CSR row offsets; node `v`'s slots are `offsets[v]..offsets[v+1]`.
    /// Always `n + 1` entries with `offsets[0] == 0`.
    offsets: Vec<u32>,
    /// `neighbors[offsets[v] + p - 1]` = neighbor reached from `v` through
    /// port `p`.
    neighbors: Vec<u32>,
    /// `ports[offsets[v] + p - 1]` = the port through which that neighbor
    /// reaches `v` back (the mirror port `p(w, v)`).
    ports: Vec<u8>,
    /// Unique identifiers.
    ids: Vec<u64>,
}

impl Graph {
    /// Node `v`'s neighbor row (port order).
    #[inline]
    fn row(&self, v: NodeIdx) -> &[u32] {
        &self.neighbors[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// Number of nodes `n = |V|`.
    pub fn n(&self) -> usize {
        self.ids.len()
    }

    /// Node `v`'s neighbor row in port order, as the raw CSR slice.
    ///
    /// The slice view performs the offset lookup once, so hot loops (the
    /// exact-distance BFS in `vc-model`) can iterate a node's neighbors
    /// without a per-neighbor bounds check through [`Graph::neighbors`].
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    #[inline]
    pub fn neighbor_row(&self, v: NodeIdx) -> &[u32] {
        self.row(v)
    }

    /// The flat CSR arrays `(offsets, neighbors, ports, ids)` backing this
    /// graph, for the binary instance store's encoder.
    pub(crate) fn raw_parts(&self) -> (&[u32], &[u32], &[u8], &[u64]) {
        (&self.offsets, &self.neighbors, &self.ports, &self.ids)
    }

    /// Reassembles a graph from raw CSR arrays (the instance store's
    /// decode path), running the full structural validation — bytes from
    /// disk never become a [`Graph`] unchecked.
    ///
    /// # Errors
    ///
    /// Returns the first violated structural constraint, exactly like
    /// [`Graph::validate`] on a hand-assembled graph.
    pub(crate) fn from_raw_parts(
        offsets: Vec<u32>,
        neighbors: Vec<u32>,
        ports: Vec<u8>,
        ids: Vec<u64>,
    ) -> Result<Graph, GraphError> {
        let g = Graph {
            offsets,
            neighbors,
            ports,
            ids,
        };
        g.validate()?;
        Ok(g)
    }

    /// Folds the full adjacency content — node count, CSR offsets,
    /// neighbors, reverse ports and unique identifiers — into `h`.
    /// Streaming: no allocation regardless of graph size. Part of the
    /// [`crate::Instance::instance_id`] computation; every array is
    /// length-prefixed so structurally different graphs cannot collide by
    /// concatenation.
    pub fn fold_content(&self, h: &mut vc_ident::IdHasher) {
        h.word(self.n() as u64);
        h.word(self.offsets.len() as u64);
        for &o in &self.offsets {
            h.word(u64::from(o));
        }
        h.word(self.neighbors.len() as u64);
        for &w in &self.neighbors {
            h.word(u64::from(w));
        }
        h.word(self.ports.len() as u64);
        for &p in &self.ports {
            h.word(u64::from(p));
        }
        h.word(self.ids.len() as u64);
        for &id in &self.ids {
            h.word(id);
        }
    }

    /// Degree of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    #[inline]
    pub fn degree(&self, v: NodeIdx) -> usize {
        (self.offsets[v + 1] - self.offsets[v]) as usize
    }

    /// Maximum degree `Δ` over all nodes (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        self.offsets
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .max()
            .unwrap_or(0)
    }

    /// Unique identifier of `v`.
    #[inline]
    pub fn id(&self, v: NodeIdx) -> u64 {
        self.ids[v]
    }

    /// The neighbor reached from `v` through `port`, or `None` if the port
    /// number exceeds `deg(v)`.
    #[inline]
    pub fn neighbor(&self, v: NodeIdx, port: Port) -> Option<NodeIdx> {
        self.row(v).get(port.index()).map(|&w| w as NodeIdx)
    }

    /// The port through which the neighbor behind `(v, port)` reaches `v`
    /// back: `p(w, v)` for `w = neighbor(v, port)`. `None` when the port
    /// number exceeds `deg(v)`.
    ///
    /// O(1) via the flat CSR mirror-port array — walk-style solvers use this
    /// to step back across an edge without scanning the far endpoint's row.
    #[inline]
    pub fn reverse_port(&self, v: NodeIdx, port: Port) -> Option<Port> {
        let lo = self.offsets[v] as usize;
        let hi = self.offsets[v + 1] as usize;
        self.ports[lo..hi].get(port.index()).map(|&p| Port::new(p))
    }

    /// The port through which `v` reaches `w`, if `{v, w}` is an edge.
    pub fn port_to(&self, v: NodeIdx, w: NodeIdx) -> Option<Port> {
        self.row(v)
            .iter()
            .position(|&u| u as usize == w)
            .map(Port::from_index)
    }

    /// Iterates over the neighbors of `v` in port order.
    pub fn neighbors(&self, v: NodeIdx) -> impl Iterator<Item = NodeIdx> + '_ {
        self.row(v).iter().map(|&w| w as NodeIdx)
    }

    /// Number of undirected edges.
    pub fn m(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// BFS distances from `src`; unreachable nodes get `u32::MAX`.
    ///
    /// This is the graph metric used by the distance cost of Definition 2.1.
    pub fn bfs_distances(&self, src: NodeIdx) -> Vec<u32> {
        let mut dist = vec![u32::MAX; self.n()];
        let mut queue = VecDeque::new();
        dist[src] = 0;
        queue.push_back(src);
        while let Some(v) = queue.pop_front() {
            let dv = dist[v];
            for w in self.neighbors(v) {
                if dist[w] == u32::MAX {
                    dist[w] = dv + 1;
                    queue.push_back(w);
                }
            }
        }
        dist
    }

    /// Distance between two nodes, or `None` if disconnected.
    pub fn distance(&self, v: NodeIdx, w: NodeIdx) -> Option<u32> {
        let d = self.bfs_distances(v)[w];
        (d != u32::MAX).then_some(d)
    }

    /// All nodes within distance `r` of `v` — the ball `N_v(r)` of §2.1.
    pub fn ball(&self, v: NodeIdx, r: u32) -> Vec<NodeIdx> {
        let mut out = Vec::new();
        let mut dist = vec![u32::MAX; self.n()];
        let mut queue = VecDeque::new();
        dist[v] = 0;
        queue.push_back(v);
        out.push(v);
        while let Some(u) = queue.pop_front() {
            if dist[u] >= r {
                continue;
            }
            for w in self.neighbors(u) {
                if dist[w] == u32::MAX {
                    dist[w] = dist[u] + 1;
                    out.push(w);
                    queue.push_back(w);
                }
            }
        }
        out
    }

    /// Checks structural validity (well-formed CSR arrays, symmetric edges,
    /// consistent mirror ports, unique identifiers, no self-loops). Builders
    /// enforce this, so it only fails for graphs deserialized from untrusted
    /// data.
    ///
    /// # Errors
    ///
    /// Returns the first violated structural constraint.
    pub fn validate(&self) -> Result<(), GraphError> {
        // CSR shape first, so the per-edge checks below can index freely.
        let n = self.ids.len();
        if self.offsets.len() != n + 1
            || self.offsets.first() != Some(&0)
            || self.offsets.windows(2).any(|w| w[0] > w[1])
            || self.offsets.last().map(|&e| e as usize) != Some(self.neighbors.len())
            || self.ports.len() != self.neighbors.len()
        {
            return Err(GraphError::MalformedCsr);
        }
        // Generated ids are 1..=n, which an n-bit bitmap checks; a stored
        // file's ids are outside input, so any others keep the default-hashed
        // set.
        let repeat = if self.ids.iter().all(|id| (1..=n as u64).contains(id)) {
            let mut seen = vec![0u64; n.div_ceil(64)];
            self.ids.iter().find(|&&id| {
                let (word, bit) = ((id - 1) as usize / 64, 1 << ((id - 1) % 64));
                let repeated = seen[word] & bit != 0;
                seen[word] |= bit;
                repeated
            })
        } else {
            let mut seen = HashSet::with_capacity(n);
            self.ids.iter().find(|&&id| !seen.insert(id))
        };
        if let Some(&id) = repeat {
            return Err(GraphError::DuplicateId { id });
        }
        for v in 0..n {
            for (i, &w) in self.row(v).iter().enumerate() {
                let w = w as usize;
                if w >= self.n() {
                    return Err(GraphError::NoSuchNode(w));
                }
                if w == v {
                    return Err(GraphError::SelfLoop { node: v });
                }
                // The mirror port must lead straight back along this edge.
                let back = self.ports[self.offsets[v] as usize + i];
                if back == 0 || usize::from(back) > self.degree(w) {
                    return Err(GraphError::AsymmetricEdge { from: v, to: w });
                }
                let mirror_slot = self.offsets[w] as usize + usize::from(back) - 1;
                if self.neighbors[mirror_slot] as usize != v
                    || usize::from(self.ports[mirror_slot]) != i + 1
                {
                    return Err(GraphError::AsymmetricEdge { from: v, to: w });
                }
            }
        }
        Ok(())
    }
}

/// Incremental builder for [`Graph`].
///
/// Nodes are added first, then edges are connected either at explicit port
/// pairs ([`GraphBuilder::connect`]) or at the next free ports
/// ([`GraphBuilder::connect_auto`]). [`GraphBuilder::build`] validates that
/// each node's assigned ports form exactly `1..=deg(v)`.
///
/// # Example
///
/// ```
/// use vc_graph::GraphBuilder;
///
/// # fn main() -> Result<(), vc_graph::GraphError> {
/// let mut b = GraphBuilder::new();
/// let u = b.add_node();
/// let v = b.add_node();
/// b.connect(u, 1, v, 1)?;
/// let g = b.build()?;
/// assert_eq!(g.n(), 2);
/// assert_eq!(g.degree(u), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    /// One `(v, p(v, w), w, p(w, v))` per edge, in connect order; `build`
    /// writes its two half-edges straight to their CSR slots.
    edges: Vec<(u32, u8, u32, u8)>,
    /// Ports taken per node.
    degrees: Vec<u32>,
    /// Per node, bit `p` is set when port `p < 64` is taken.
    low_ports: Vec<u64>,
    /// Taken ports `p ≥ 64`, as `(node, p)`: no generator goes that high.
    high_ports: BTreeSet<(NodeIdx, u8)>,
    ids: Vec<u64>,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder pre-populated with `n` isolated nodes whose
    /// identifiers are `1..=n`.
    pub fn with_nodes(n: usize) -> Self {
        let mut b = Self::new();
        for _ in 0..n {
            b.add_node();
        }
        b
    }

    /// Number of nodes added so far.
    pub fn n(&self) -> usize {
        self.ids.len()
    }

    /// Adds a node with default identifier `index + 1`; returns its index.
    pub fn add_node(&mut self) -> NodeIdx {
        let idx = self.ids.len();
        self.degrees.push(0);
        self.low_ports.push(0);
        self.ids.push(idx as u64 + 1);
        idx
    }

    /// Adds a node with an explicit unique identifier; returns its index.
    pub fn add_node_with_id(&mut self, id: u64) -> NodeIdx {
        let idx = self.add_node();
        self.ids[idx] = id;
        idx
    }

    /// Overrides the unique identifier of `v`.
    pub fn set_id(&mut self, v: NodeIdx, id: u64) {
        self.ids[v] = id;
    }

    /// Appends a copy of `g` — its nodes with identifiers raised by
    /// `id_offset`, and its edges at their ports — and returns the index
    /// of its first node.
    pub fn append(&mut self, g: &Graph, id_offset: u64) -> NodeIdx {
        let base = self.n();
        for v in 0..g.n() {
            let u = self.add_node_with_id(g.id(v) + id_offset);
            let row = g.offsets[v] as usize..g.offsets[v + 1] as usize;
            for (i, slot) in row.enumerate() {
                let p = Port::from_index(i).number();
                self.take_port(u, p);
                let w = g.neighbors[slot] as usize;
                if v < w {
                    self.edges
                        .push((u as u32, p, (base + w) as u32, g.ports[slot]));
                }
            }
        }
        base
    }

    /// Degree of `v` as currently built.
    pub fn degree(&self, v: NodeIdx) -> usize {
        self.degrees[v] as usize
    }

    /// The smallest unused port number at `v` (1-based).
    pub fn next_free_port(&self, v: NodeIdx) -> u8 {
        (1..=255u8)
            .find(|&p| !self.port_taken(v, p))
            .expect("more than 254 ports on one node")
    }

    fn port_taken(&self, v: NodeIdx, p: u8) -> bool {
        if p < 64 {
            self.low_ports[v] >> p & 1 == 1
        } else {
            self.high_ports.contains(&(v, p))
        }
    }

    fn take_port(&mut self, v: NodeIdx, p: u8) {
        if p < 64 {
            self.low_ports[v] |= 1 << p;
        } else {
            self.high_ports.insert((v, p));
        }
        self.degrees[v] += 1;
    }

    /// Connects `u` (through port `pu`) to `v` (through port `pv`).
    ///
    /// # Errors
    ///
    /// Fails if either node does not exist, either port is already in use,
    /// or `u == v`.
    pub fn connect(&mut self, u: NodeIdx, pu: u8, v: NodeIdx, pv: u8) -> Result<(), GraphError> {
        if u >= self.n() {
            return Err(GraphError::NoSuchNode(u));
        }
        if v >= self.n() {
            return Err(GraphError::NoSuchNode(v));
        }
        if u == v {
            return Err(GraphError::SelfLoop { node: u });
        }
        for (node, p) in [(u, pu), (v, pv)] {
            if self.port_taken(node, p) {
                return Err(GraphError::PortInUse {
                    node,
                    port: Port::new(p),
                });
            }
        }
        self.take_port(u, pu);
        self.take_port(v, pv);
        self.edges.push((u as u32, pu, v as u32, pv));
        Ok(())
    }

    /// Connects `u` and `v` at the next free port on each side; returns the
    /// chosen ports `(p(u,v), p(v,u))`.
    ///
    /// # Errors
    ///
    /// Fails if either node does not exist or `u == v`.
    pub fn connect_auto(&mut self, u: NodeIdx, v: NodeIdx) -> Result<(Port, Port), GraphError> {
        if u >= self.n() {
            return Err(GraphError::NoSuchNode(u));
        }
        if v >= self.n() {
            return Err(GraphError::NoSuchNode(v));
        }
        let pu = self.next_free_port(u);
        let pv = self.next_free_port(v);
        self.connect(u, pu, v, pv)?;
        Ok((Port::new(pu), Port::new(pv)))
    }

    /// Finalizes the graph into its flat CSR representation, validating port
    /// contiguity, edge symmetry and identifier uniqueness.
    ///
    /// # Errors
    ///
    /// Returns the first violated structural constraint.
    pub fn build(self) -> Result<Graph, GraphError> {
        let mut offsets = Vec::with_capacity(self.degrees.len() + 1);
        let mut end = 0u32;
        offsets.push(end);
        for &d in &self.degrees {
            end += d;
            offsets.push(end);
        }
        let (mut neighbors, mut ports) = (vec![0u32; end as usize], vec![0u8; end as usize]);
        // A node's ports are distinct, so they are exactly 1..=deg(v) when
        // none is 0 or above deg(v); each half-edge then has its own slot.
        let mut gap = None::<NodeIdx>;
        for &(v, p, w, q) in &self.edges {
            for (a, pa, b, pb) in [(v, p, w, q), (w, q, v, p)] {
                let a = a as usize;
                if pa == 0 || u32::from(pa) > self.degrees[a] {
                    gap = Some(gap.map_or(a, |g| g.min(a)));
                    continue;
                }
                let slot = offsets[a] as usize + usize::from(pa) - 1;
                neighbors[slot] = b;
                ports[slot] = pb;
            }
        }
        if let Some(node) = gap {
            return Err(GraphError::PortsNotContiguous { node });
        }
        let g = Graph {
            offsets,
            neighbors,
            ports,
            ids: self.ids,
        };
        g.validate()?;
        Ok(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(n: usize) -> Graph {
        let mut b = GraphBuilder::with_nodes(n);
        for v in 0..n - 1 {
            b.connect_auto(v, v + 1).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new().build().unwrap();
        assert_eq!(g.n(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.m(), 0);
    }

    #[test]
    fn path_structure() {
        let g = path(5);
        assert_eq!(g.n(), 5);
        assert_eq!(g.m(), 4);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(2), 2);
        assert_eq!(g.max_degree(), 2);
        assert_eq!(g.neighbor(0, Port::new(1)), Some(1));
        assert_eq!(g.neighbor(0, Port::new(2)), None);
        assert_eq!(g.port_to(1, 0), Some(Port::new(1)));
        assert_eq!(g.port_to(1, 2), Some(Port::new(2)));
        assert_eq!(g.port_to(0, 3), None);
    }

    #[test]
    fn bfs_distances_on_path() {
        let g = path(6);
        let d = g.bfs_distances(0);
        assert_eq!(d, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(g.distance(1, 4), Some(3));
    }

    #[test]
    fn disconnected_distance_is_none() {
        let b = GraphBuilder::with_nodes(2);
        let g = b.build().unwrap();
        assert_eq!(g.distance(0, 1), None);
        assert_eq!(g.bfs_distances(0)[1], u32::MAX);
    }

    #[test]
    fn ball_respects_radius() {
        let g = path(7);
        let mut ball = g.ball(3, 2);
        ball.sort_unstable();
        assert_eq!(ball, vec![1, 2, 3, 4, 5]);
        assert_eq!(g.ball(3, 0), vec![3]);
    }

    #[test]
    fn explicit_ports() {
        let mut b = GraphBuilder::with_nodes(3);
        b.connect(0, 2, 1, 1).unwrap();
        b.connect(0, 1, 2, 1).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.neighbor(0, Port::new(1)), Some(2));
        assert_eq!(g.neighbor(0, Port::new(2)), Some(1));
    }

    #[test]
    fn port_in_use_rejected() {
        let mut b = GraphBuilder::with_nodes(3);
        b.connect(0, 1, 1, 1).unwrap();
        let err = b.connect(0, 1, 2, 1).unwrap_err();
        assert_eq!(
            err,
            GraphError::PortInUse {
                node: 0,
                port: Port::new(1)
            }
        );
    }

    #[test]
    fn ports_past_the_low_word_are_exact() {
        // Node 0 takes 70 neighbours: ports 64..=70 lie past its 64-bit word.
        let mut b = GraphBuilder::with_nodes(71);
        for w in 1..=70 {
            let ports = b.connect_auto(0, w).unwrap();
            assert_eq!(ports, (Port::from_index(w - 1), Port::new(1)));
        }
        assert_eq!(
            b.connect(0, 66, 1, 2).unwrap_err(),
            GraphError::PortInUse {
                node: 0,
                port: Port::new(66)
            }
        );
        let g = b.build().unwrap();
        assert!(g.neighbors(0).eq(1..=70));
        assert_eq!(g.reverse_port(0, Port::new(70)), Some(Port::new(1)));
    }

    #[test]
    fn non_contiguous_ports_rejected() {
        let mut skip = GraphBuilder::with_nodes(2);
        skip.connect(0, 2, 1, 1).unwrap();
        // Each of the next two gaps is at node 3, then at node 1: the lowest
        // node is named, not the first connected.
        let mut zero = GraphBuilder::with_nodes(4);
        zero.connect(3, 0, 0, 1).unwrap();
        zero.connect(1, 0, 2, 1).unwrap();
        let mut high = GraphBuilder::with_nodes(4 + 65);
        for hub in [3, 1] {
            for (leaf, p) in (4..).zip((1..=64).chain([66])) {
                let q = high.next_free_port(leaf);
                high.connect(hub, p, leaf, q).unwrap();
            }
        }
        for (b, node) in [(skip, 0), (zero, 1), (high, 1)] {
            let err = b.build().unwrap_err();
            assert_eq!(err, GraphError::PortsNotContiguous { node });
        }
    }

    #[test]
    fn self_loop_rejected() {
        let mut b = GraphBuilder::with_nodes(1);
        assert_eq!(
            b.connect(0, 1, 0, 2).unwrap_err(),
            GraphError::SelfLoop { node: 0 }
        );
        assert!(b.connect_auto(0, 0).is_err());
    }

    #[test]
    fn duplicate_ids_rejected() {
        // The first repeat in node order is named, with every id in 1..=n
        // (the bitmap) and with one above n (the hashed set).
        for (ids, id) in [(&[1, 1][..], 1), (&[2, 3, 3, 2], 3), (&[2, 9, 9, 2], 9)] {
            let mut b = GraphBuilder::new();
            for &id in ids {
                b.add_node_with_id(id);
            }
            assert_eq!(b.build().unwrap_err(), GraphError::DuplicateId { id });
        }
        let mut b = GraphBuilder::new();
        b.add_node_with_id(9);
        b.add_node_with_id(2);
        assert!(b.build().is_ok());
    }

    #[test]
    fn missing_node_rejected() {
        let mut b = GraphBuilder::with_nodes(1);
        assert_eq!(
            b.connect(0, 1, 7, 1).unwrap_err(),
            GraphError::NoSuchNode(7)
        );
        assert!(b.connect_auto(5, 0).is_err());
    }

    #[test]
    fn reverse_port_mirrors_every_edge() {
        let mut b = GraphBuilder::with_nodes(3);
        b.connect(0, 2, 1, 1).unwrap();
        b.connect(0, 1, 2, 1).unwrap();
        let g = b.build().unwrap();
        // Edge {0, 1} uses ports (2, 1); edge {0, 2} uses ports (1, 1).
        assert_eq!(g.reverse_port(0, Port::new(2)), Some(Port::new(1)));
        assert_eq!(g.reverse_port(1, Port::new(1)), Some(Port::new(2)));
        assert_eq!(g.reverse_port(0, Port::new(1)), Some(Port::new(1)));
        assert_eq!(g.reverse_port(2, Port::new(1)), Some(Port::new(1)));
        // Out-of-range port resolves to None, mirroring `neighbor`.
        assert_eq!(g.reverse_port(1, Port::new(5)), None);
    }

    #[test]
    fn reverse_port_agrees_with_port_to() {
        let g = path(6);
        for v in 0..g.n() {
            for p in 1..=g.degree(v) as u8 {
                let w = g.neighbor(v, Port::new(p)).unwrap();
                assert_eq!(g.reverse_port(v, Port::new(p)), g.port_to(w, v));
            }
        }
    }

    #[test]
    fn errors_display_nonempty() {
        let errs: Vec<GraphError> = vec![
            GraphError::NoSuchNode(1),
            GraphError::PortInUse {
                node: 0,
                port: Port::new(1),
            },
            GraphError::PortsNotContiguous { node: 2 },
            GraphError::AsymmetricEdge { from: 0, to: 1 },
            GraphError::DuplicateId { id: 9 },
            GraphError::SelfLoop { node: 3 },
            GraphError::MalformedCsr,
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }
}
