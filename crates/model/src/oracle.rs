//! The query model of §2.2.
//!
//! An execution initiated at `v` maintains the visited set `V_v` (initially
//! `{v}`) and issues queries `query(w, j)` with `w ∈ V_v`, `j ∈ [deg(w)]`.
//! The response reveals the identity, degree and entire input of the `j`-th
//! neighbor of `w`, which joins `V_v`.
//!
//! [`Oracle`] abstracts the queried *world*: [`Execution`] answers from a
//! concrete [`Instance`], while the lower-bound adversaries in
//! `vc-adversary` construct the graph lazily in response to queries — the
//! process `P` of Propositions 3.13 and 5.20.

// VC005: per-node state lives in flat scratch, tests included.
#![deny(clippy::disallowed_types)]

use crate::cost::{Budget, ExecutionRecord};
use crate::randomness::{RandomTape, RandomnessMode};
use std::collections::VecDeque;
use std::error::Error;
use std::fmt;
use vc_graph::{Instance, NodeLabel, Port};
use vc_trace::{NoopTracer, TraceEvent, Tracer};

/// What a query reveals about a node: its handle, unique identifier, degree
/// and entire input label (§2.2).
///
/// The `node` handle is world-internal (for [`Execution`] it is the node
/// index) and is how the algorithm addresses later queries; algorithms may
/// compare handles to detect revisits, mirroring the paper's algorithms that
/// recognize "the walk returned to `v_0`".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeView {
    /// World-internal node handle.
    pub node: usize,
    /// Unique identifier.
    pub id: u64,
    /// Degree (number of ports).
    pub degree: usize,
    /// The node's input label.
    pub label: NodeLabel,
}

/// Errors surfaced to a running algorithm.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryError {
    /// The query origin is not in the visited set `V_v`.
    NotVisited {
        /// Offending node handle.
        node: usize,
    },
    /// The port number exceeds the origin's degree.
    InvalidPort {
        /// Query origin.
        node: usize,
        /// Offending port.
        port: Port,
    },
    /// Admitting the queried node would exceed the volume budget.
    VolumeExhausted,
    /// Admitting the queried node would exceed the distance budget.
    DistanceExhausted,
    /// The query budget (number of steps) is spent.
    QueriesExhausted,
    /// Secret-randomness mode forbids reading another node's random string
    /// (§7.4).
    SecretRandomness {
        /// The node whose string was requested.
        node: usize,
    },
    /// The adversarial world refused to answer (used by `vc-adversary` when
    /// an algorithm exceeds the budget the adversary was built for).
    AdversaryRefused,
    /// A deterministic fault plan (the `vc-faults` crate) suppressed the
    /// answer: a refused query, a crashed origin node, or an injected
    /// budget squeeze. Always loud — a faulted answer is an error, never a
    /// silently-wrong view.
    FaultInjected,
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::NotVisited { node } => {
                write!(f, "query origin {node} is not a visited node")
            }
            QueryError::InvalidPort { node, port } => {
                write!(f, "port {port} exceeds the degree of node {node}")
            }
            QueryError::VolumeExhausted => write!(f, "volume budget exhausted"),
            QueryError::DistanceExhausted => write!(f, "distance budget exhausted"),
            QueryError::QueriesExhausted => write!(f, "query budget exhausted"),
            QueryError::SecretRandomness { node } => {
                write!(f, "random string of node {node} is secret")
            }
            QueryError::AdversaryRefused => write!(f, "adversary refused to answer"),
            QueryError::FaultInjected => write!(f, "fault plan suppressed the answer"),
        }
    }
}

impl Error for QueryError {}

/// Running totals of an execution, available from any [`Oracle`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OracleStats {
    /// `|V_v|` so far.
    pub volume: usize,
    /// Maximum discovery-path length so far (an upper bound on the distance
    /// cost of Definition 2.1).
    pub distance_upper: u32,
    /// Queries issued so far.
    pub queries: u64,
    /// Random bits consumed so far.
    pub random_bits: u64,
}

/// A queryable world (§2.2).
///
/// Implemented by [`Execution`] (a concrete labeled graph) and by the
/// adaptive adversaries of `vc-adversary`.
pub trait Oracle {
    /// The number of nodes `n`, which the paper provides to every algorithm
    /// as part of its input (§2.1).
    fn n(&self) -> usize;

    /// The view of the initiating node (already in `V_v`).
    fn root(&self) -> NodeView;

    /// Performs `query(from, port)`: reveals the neighbor of `from` behind
    /// `port` and adds it to `V_v`.
    ///
    /// # Errors
    ///
    /// See [`QueryError`]. Re-querying an edge whose endpoint is already
    /// visited is permitted and costs a query but no volume.
    fn query(&mut self, from: usize, port: Port) -> Result<NodeView, QueryError>;

    /// Draws the next unread bit of the random string `r_node`.
    ///
    /// Bits are consumed sequentially per node, as the paper's model
    /// requires (§2.2). The node must be visited.
    ///
    /// # Errors
    ///
    /// Fails for unvisited nodes, in secret mode for non-root nodes, or
    /// when the world is deterministic-only.
    fn rand_bit(&mut self, node: usize) -> Result<bool, QueryError>;

    /// Current cost totals.
    fn stats(&self) -> OracleStats;
}

/// Forwarding impl so wrapper layers (fault injection, auditing) can hand a
/// `&mut O` where an owned oracle is expected: every method delegates to the
/// referent. This is what lets `vc-faults` wrap a `&mut dyn Oracle` borrowed
/// from the runner without taking ownership of the world.
impl<O: Oracle + ?Sized> Oracle for &mut O {
    fn n(&self) -> usize {
        (**self).n()
    }

    fn root(&self) -> NodeView {
        (**self).root()
    }

    fn query(&mut self, from: usize, port: Port) -> Result<NodeView, QueryError> {
        (**self).query(from, port)
    }

    fn rand_bit(&mut self, node: usize) -> Result<bool, QueryError> {
        (**self).rand_bit(node)
    }

    fn stats(&self) -> OracleStats {
        (**self).stats()
    }
}

/// Follows an *optional port label* from a view: `None` (the label `⊥`)
/// and out-of-range ports resolve to `Ok(None)`; real ports are queried.
///
/// This mirrors [`Instance::resolve`] and is the primitive the solvers use
/// to walk `P` / `LC` / `RC` / `LN` / `RN` pointers.
///
/// # Errors
///
/// Propagates budget and visitation errors from [`Oracle::query`].
pub fn follow<O: Oracle + ?Sized>(
    oracle: &mut O,
    from: &NodeView,
    port: Option<Port>,
) -> Result<Option<NodeView>, QueryError> {
    match port {
        None => Ok(None),
        Some(p) if p.index() >= from.degree => Ok(None),
        Some(p) => oracle.query(from.node, p).map(Some),
    }
}

/// Epoch stamps, the one copy of the trick behind every scratch buffer
/// here: slot `i` is live iff `stamp[i] == epoch`, so one increment kills
/// every slot (a real wipe happens once per `u32::MAX` epochs). Slots grow
/// on demand; call [`Stamps::advance`] before first use.
#[derive(Debug, Default)]
struct Stamps {
    epoch: u32,
    stamp: Vec<u32>,
}

impl Stamps {
    /// Kills every slot.
    fn advance(&mut self) {
        if self.epoch == u32::MAX {
            self.stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    #[inline]
    fn is_live(&self, i: usize) -> bool {
        self.stamp.get(i) == Some(&self.epoch)
    }

    /// Makes slot `i` live; returns whether it was dead.
    #[inline]
    fn revive(&mut self, i: usize) -> bool {
        if i >= self.stamp.len() {
            self.stamp.resize(i + 1, 0);
        }
        let dead = self.stamp[i] != self.epoch;
        self.stamp[i] = self.epoch;
        dead
    }
}

/// Reusable, epoch-stamped scratch buffers for sequential executions.
///
/// The serial runner allocates one visited set per start node; over a sweep
/// with `n` starts that is `Θ(n)` allocator round-trips on the hottest path
/// in the workspace. `ExecScratch` replaces the per-start `HashMap`s with
/// flat `Stamps` arrays, so "clearing" between starts is an integer
/// increment and no memory is touched or allocated. The runner splits it:
/// an [`Execution`] borrows the visit half, and
/// [`QueryAlgorithm::run`](crate::run::QueryAlgorithm::run) the
/// [`SolverScratch`].
///
/// One scratch serves any number of sequential executions (see
/// [`Execution::with_scratch`]); worker threads in `vc-engine` each own one.
/// Buffers grow to the largest instance seen and are never shrunk.
#[derive(Debug, Default)]
pub struct ExecScratch {
    pub(crate) visits: VisitScratch,
    pub(crate) solver: SolverScratch,
}

impl ExecScratch {
    /// A fresh scratch; buffers are sized lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The visit half of an [`ExecScratch`].
#[derive(Debug, Default)]
pub(crate) struct VisitScratch {
    /// `v ∈ V_v` iff slot `v` is live.
    visited: Stamps,
    /// Discovery distance (path-length upper bound) of visited nodes.
    visit_dist: Vec<u32>,
    /// Next unread bit of `r_v`, reset lazily when `v` is first visited.
    rand_cursor: Vec<u64>,
    /// Visit order (first element is the root); cleared per start, capacity
    /// retained.
    order: Vec<usize>,
    /// Stamps/distances/queue for the exact-distance BFS, which walks
    /// nodes *outside* `V_v` and therefore needs its own stamp generation.
    bfs: Stamps,
    bfs_dist: Vec<u32>,
    bfs_queue: VecDeque<usize>,
}

impl VisitScratch {
    /// Opens a new epoch for an execution rooted at `root` on an `n`-node
    /// instance: grows buffers to `n`, clears the order list and stamps the
    /// root as visited at distance 0.
    fn begin(&mut self, n: usize, root: usize) {
        if self.visit_dist.len() < n {
            self.visit_dist.resize(n, 0);
            self.rand_cursor.resize(n, 0);
            self.bfs_dist.resize(n, 0);
        }
        self.order.clear();
        self.visited.advance();
        self.mark_visited(root, 0);
    }

    #[inline]
    fn is_visited(&self, v: usize) -> bool {
        self.visited.is_live(v)
    }

    /// Discovery distance of `v`, or `None` when unvisited this epoch.
    #[inline]
    fn dist_of(&self, v: usize) -> Option<u32> {
        self.is_visited(v).then(|| self.visit_dist[v])
    }

    #[inline]
    fn mark_visited(&mut self, v: usize, d: u32) {
        self.visited.revive(v);
        self.visit_dist[v] = d;
        self.rand_cursor[v] = 0;
        self.order.push(v);
    }
}

/// The solver half of an [`ExecScratch`]: per-execution solver memory, so a
/// solver keeps caches, search marks and memo tables without hashing or
/// allocating per start. Both parts are indexed by node handle and grow on
/// demand, because an adversary may hand out more handles than its `n`.
#[derive(Debug, Default)]
pub struct SolverScratch {
    words: Vec<u32>,
    live: Stamps,
    marks: Stamps,
}

impl SolverScratch {
    /// A fresh scratch; buffers are sized lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens a new epoch, in which every word reads as zero.
    pub fn begin(&mut self) {
        self.live.advance();
    }

    /// The word of `handle`; its bits are the solver's to assign.
    #[inline]
    pub fn word(&mut self, handle: usize) -> &mut u32 {
        if handle >= self.words.len() {
            self.words.resize(handle + 1, 0);
        }
        if self.live.revive(handle) {
            self.words[handle] = 0;
        }
        &mut self.words[handle]
    }

    /// Empties the mark set; a search starts with this.
    pub fn clear_marks(&mut self) {
        self.marks.advance();
    }

    /// Marks `handle`; returns whether it was unmarked.
    #[inline]
    pub fn mark(&mut self, handle: usize) -> bool {
        self.marks.revive(handle)
    }
}

/// Either an owned scratch (the convenient [`Execution::new`] path) or one
/// borrowed from a sweep/worker loop (the allocation-free path).
#[derive(Debug)]
pub(crate) enum ScratchSlot<'a> {
    Owned(Box<VisitScratch>),
    Borrowed(&'a mut VisitScratch),
}

impl ScratchSlot<'_> {
    #[inline]
    fn get(&self) -> &VisitScratch {
        match self {
            ScratchSlot::Owned(s) => s,
            ScratchSlot::Borrowed(s) => s,
        }
    }

    #[inline]
    fn get_mut(&mut self) -> &mut VisitScratch {
        match self {
            ScratchSlot::Owned(s) => s,
            ScratchSlot::Borrowed(s) => s,
        }
    }
}

/// An execution of the query model over a concrete [`Instance`].
///
/// The *world* (the shared, read-only `&Instance`) is `Sync` and can serve
/// any number of concurrent executions; all per-execution mutable state —
/// the visited set, discovery distances, randomness cursors — lives in the
/// execution's [`ExecScratch`]. This world/cursor split is what lets the
/// sharded runner in `vc-engine` run one `Execution` per start node across
/// worker threads without locking.
///
/// The `T` parameter is the execution's [`Tracer`]. It defaults to the
/// zero-sized [`NoopTracer`], whose empty hook monomorphizes away — the
/// untraced [`Execution::new`] / [`Execution::with_scratch`] constructors
/// compile to the exact pre-tracing hot path. A long-lived tracer is lent
/// to an execution as `T = &mut SomeTracer` via
/// [`Execution::with_scratch_traced`].
#[derive(Debug)]
pub struct Execution<'a, T: Tracer = NoopTracer> {
    inst: &'a Instance,
    tape: Option<RandomTape>,
    budget: Budget,
    root: usize,
    scratch: ScratchSlot<'a>,
    tracer: T,
    queries: u64,
    distance_upper: u32,
    random_bits: u64,
}

impl<'a> Execution<'a, NoopTracer> {
    /// Starts an execution at `root` with a private, owned scratch. Pass
    /// `tape: None` for deterministic algorithms (any randomness request
    /// then fails).
    pub fn new(inst: &'a Instance, root: usize, tape: Option<RandomTape>, budget: Budget) -> Self {
        Self::build(
            inst,
            root,
            tape,
            budget,
            ScratchSlot::Owned(Box::default()),
            NoopTracer,
        )
    }

    /// Starts an execution at `root` reusing `scratch` from a previous
    /// execution — the allocation-free path sweeps and engine workers use.
    /// Reusing a scratch across *sequential* executions is always sound;
    /// the epoch bump invalidates all previous stamps.
    pub fn with_scratch(
        inst: &'a Instance,
        root: usize,
        tape: Option<RandomTape>,
        budget: Budget,
        scratch: &'a mut ExecScratch,
    ) -> Self {
        Self::build(
            inst,
            root,
            tape,
            budget,
            ScratchSlot::Borrowed(&mut scratch.visits),
            NoopTracer,
        )
    }
}

impl<'a, T: Tracer> Execution<'a, T> {
    /// [`Execution::with_scratch`] with an explicit tracer receiving the
    /// execution's typed event stream (pass `&mut tracer` to keep
    /// ownership with the sweep loop). Tracer events observe the execution
    /// but cannot influence it, so traced and untraced runs produce
    /// bit-identical outputs and records.
    pub fn with_scratch_traced(
        inst: &'a Instance,
        root: usize,
        tape: Option<RandomTape>,
        budget: Budget,
        scratch: &'a mut ExecScratch,
        tracer: T,
    ) -> Self {
        Self::build(
            inst,
            root,
            tape,
            budget,
            ScratchSlot::Borrowed(&mut scratch.visits),
            tracer,
        )
    }

    pub(crate) fn build(
        inst: &'a Instance,
        root: usize,
        tape: Option<RandomTape>,
        budget: Budget,
        mut scratch: ScratchSlot<'a>,
        tracer: T,
    ) -> Self {
        assert!(root < inst.n(), "root must be a node of the instance");
        scratch.get_mut().begin(inst.n(), root);
        Self {
            inst,
            tape,
            budget,
            root,
            scratch,
            tracer,
            queries: 0,
            distance_upper: 0,
            random_bits: 0,
        }
    }

    /// Mutable access to the execution's tracer — used by the runner to
    /// emit the answer-finalized event after [`Execution::record`].
    pub fn tracer_mut(&mut self) -> &mut T {
        &mut self.tracer
    }

    fn view_of(&self, v: usize) -> NodeView {
        NodeView {
            node: v,
            id: self.inst.graph.id(v),
            degree: self.inst.graph.degree(v),
            label: self.inst.labels[v],
        }
    }

    /// Visited nodes in discovery order (the root first).
    pub fn visited(&self) -> &[usize] {
        &self.scratch.get().order
    }

    /// Finalizes the execution into a cost record.
    ///
    /// When `exact_distance` is set, the true distance cost of
    /// Definition 2.1 is computed with a truncated BFS in the host graph
    /// (stopping as soon as every visited node has been reached); the BFS
    /// runs in the scratch's reusable buffers, hence `&mut self`.
    pub fn record(&mut self, exact_distance: bool, completed: bool) -> ExecutionRecord {
        let distance = if exact_distance {
            Some(self.exact_distance())
        } else {
            None
        };
        ExecutionRecord {
            root: self.root,
            volume: self.scratch.get().order.len(),
            distance,
            distance_upper: self.distance_upper,
            queries: self.queries,
            random_bits: self.random_bits,
            completed,
        }
    }

    /// `max { dist(root, w) : w ∈ V_v }` via BFS truncated once all
    /// visited nodes are found. The loop runs on the flat CSR rows (see
    /// `Graph::neighbor_row`) so its cost per edge is a load, a stamp
    /// compare and a conditional push — the hot path of every
    /// exact-distance sweep.
    fn exact_distance(&mut self) -> u32 {
        let inst = self.inst;
        let root = self.root;
        let sc = self.scratch.get_mut();
        let mut remaining = sc.order.len() - 1; // root found at distance 0
        if remaining == 0 {
            return 0;
        }
        sc.bfs.advance();
        sc.bfs_queue.clear();
        sc.bfs.revive(root);
        sc.bfs_dist[root] = 0;
        sc.bfs_queue.push_back(root);
        let mut max_d = 0;
        while let Some(v) = sc.bfs_queue.pop_front() {
            let d = sc.bfs_dist[v] + 1;
            // Iterate the CSR row as a slice: one offset lookup per node
            // instead of a bounds check per neighbor, which is most of the
            // work on the flat layout at 10⁶ nodes.
            for &w in inst.graph.neighbor_row(v) {
                let w = w as usize;
                if sc.bfs.revive(w) {
                    sc.bfs_dist[w] = d;
                    if sc.is_visited(w) {
                        max_d = max_d.max(d);
                        remaining -= 1;
                        if remaining == 0 {
                            return max_d;
                        }
                    }
                    sc.bfs_queue.push_back(w);
                }
            }
        }
        max_d
    }
}

impl<T: Tracer> Oracle for Execution<'_, T> {
    fn n(&self) -> usize {
        self.inst.n()
    }

    fn root(&self) -> NodeView {
        self.view_of(self.root)
    }

    fn query(&mut self, from: usize, port: Port) -> Result<NodeView, QueryError> {
        // The tracer observes every issued query, answered or refused;
        // events never feed back into the execution, so the traced and
        // untraced instantiations take identical decision paths.
        self.tracer.event(TraceEvent::QueryIssued {
            from,
            port: port.number(),
        });
        // Out-of-range handles are "never visited", not index panics —
        // algorithms may probe arbitrary handles.
        if from >= self.inst.n() {
            return Err(QueryError::NotVisited { node: from });
        }
        let Some(from_dist) = self.scratch.get().dist_of(from) else {
            return Err(QueryError::NotVisited { node: from });
        };
        if let Some(maxq) = self.budget.max_queries {
            if self.queries >= maxq {
                return Err(QueryError::QueriesExhausted);
            }
        }
        let Some(target) = self.inst.graph.neighbor(from, port) else {
            return Err(QueryError::InvalidPort { node: from, port });
        };
        let sc = self.scratch.get_mut();
        if !sc.is_visited(target) {
            if let Some(maxv) = self.budget.max_volume {
                if sc.order.len() >= maxv {
                    return Err(QueryError::VolumeExhausted);
                }
            }
            let d = from_dist + 1;
            if let Some(maxd) = self.budget.max_distance {
                if d > maxd {
                    return Err(QueryError::DistanceExhausted);
                }
            }
            sc.mark_visited(target, d);
            self.tracer.event(TraceEvent::NodeRevealed {
                node: target,
                depth: d,
            });
            if d > self.distance_upper {
                self.distance_upper = d;
                self.tracer.event(TraceEvent::FrontierAdvanced { depth: d });
            }
        }
        self.queries += 1;
        Ok(self.view_of(target))
    }

    fn rand_bit(&mut self, node: usize) -> Result<bool, QueryError> {
        if node >= self.inst.n() || !self.scratch.get().is_visited(node) {
            return Err(QueryError::NotVisited { node });
        }
        let Some(tape) = self.tape else {
            return Err(QueryError::SecretRandomness { node });
        };
        if tape.mode() == RandomnessMode::Secret && node != self.root {
            return Err(QueryError::SecretRandomness { node });
        }
        let id = self.inst.graph.id(node);
        let cursor = &mut self.scratch.get_mut().rand_cursor[node];
        let bit = tape.bit(id, *cursor);
        *cursor += 1;
        self.random_bits += 1;
        Ok(bit)
    }

    fn stats(&self) -> OracleStats {
        OracleStats {
            volume: self.scratch.get().order.len(),
            distance_upper: self.distance_upper,
            queries: self.queries,
            random_bits: self.random_bits,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{run_from, run_from_with, QueryAlgorithm, RunConfig};
    use vc_graph::{gen, Color};

    fn tree() -> Instance {
        gen::complete_binary_tree(3, Color::R, Color::B)
    }

    #[test]
    fn root_is_visited_for_free() {
        let inst = tree();
        let ex = Execution::new(&inst, 0, None, Budget::unlimited());
        assert_eq!(ex.stats().volume, 1);
        assert_eq!(ex.root().node, 0);
        assert_eq!(ex.root().id, 1);
        assert_eq!(ex.root().degree, 2);
    }

    #[test]
    fn query_reveals_and_admits() {
        let inst = tree();
        let mut ex = Execution::new(&inst, 0, None, Budget::unlimited());
        let v = ex.query(0, Port::new(1)).unwrap();
        assert_eq!(v.node, 1);
        assert_eq!(ex.stats().volume, 2);
        assert_eq!(ex.stats().queries, 1);
        assert_eq!(ex.stats().distance_upper, 1);
        // Requery: a step, but no volume.
        let again = ex.query(0, Port::new(1)).unwrap();
        assert_eq!(again, v);
        assert_eq!(ex.stats().volume, 2);
        assert_eq!(ex.stats().queries, 2);
    }

    #[test]
    fn unvisited_origin_rejected() {
        let inst = tree();
        let mut ex = Execution::new(&inst, 0, None, Budget::unlimited());
        assert_eq!(
            ex.query(5, Port::new(1)).unwrap_err(),
            QueryError::NotVisited { node: 5 }
        );
    }

    #[test]
    fn invalid_port_rejected() {
        let inst = tree();
        let mut ex = Execution::new(&inst, 0, None, Budget::unlimited());
        assert_eq!(
            ex.query(0, Port::new(7)).unwrap_err(),
            QueryError::InvalidPort {
                node: 0,
                port: Port::new(7)
            }
        );
    }

    #[test]
    fn volume_budget_enforced() {
        let inst = tree();
        let mut ex = Execution::new(&inst, 0, None, Budget::volume(2));
        ex.query(0, Port::new(1)).unwrap();
        assert_eq!(
            ex.query(0, Port::new(2)).unwrap_err(),
            QueryError::VolumeExhausted
        );
        // Re-query of a visited node is still fine.
        assert!(ex.query(0, Port::new(1)).is_ok());
    }

    #[test]
    fn distance_budget_enforced() {
        let inst = tree();
        let mut ex = Execution::new(&inst, 0, None, Budget::distance(1));
        let v = ex.query(0, Port::new(1)).unwrap();
        assert_eq!(
            ex.query(v.node, Port::new(2)).unwrap_err(),
            QueryError::DistanceExhausted
        );
    }

    #[test]
    fn query_budget_enforced() {
        let inst = tree();
        let mut ex = Execution::new(&inst, 0, None, Budget::queries(1));
        ex.query(0, Port::new(1)).unwrap();
        assert_eq!(
            ex.query(0, Port::new(2)).unwrap_err(),
            QueryError::QueriesExhausted
        );
    }

    #[test]
    fn follow_treats_bottom_and_overflow_as_none() {
        let inst = tree();
        let mut ex = Execution::new(&inst, 0, None, Budget::unlimited());
        let root = ex.root();
        assert_eq!(follow(&mut ex, &root, None).unwrap(), None);
        assert_eq!(follow(&mut ex, &root, Some(Port::new(9))).unwrap(), None);
        let lc = follow(&mut ex, &root, root.label.left_child)
            .unwrap()
            .unwrap();
        assert_eq!(lc.node, 1);
    }

    #[test]
    fn exact_distance_via_truncated_bfs() {
        let inst = tree();
        let mut ex = Execution::new(&inst, 0, None, Budget::unlimited());
        let v = ex.query(0, Port::new(1)).unwrap(); // node 1, dist 1
        let w = ex.query(v.node, Port::new(2)).unwrap(); // node 3, dist 2
        ex.query(w.node, Port::new(2)).unwrap(); // node 7, dist 3
        let rec = ex.record(true, true);
        assert_eq!(rec.distance, Some(3));
        assert_eq!(rec.distance_upper, 3);
        assert_eq!(rec.volume, 4);
        assert!(rec.lemma_2_5_holds(3));
    }

    #[test]
    fn exact_distance_can_beat_upper_bound() {
        // A 4-cycle: walking the long way round discovers a node at path
        // length 3 whose true distance is 1.
        let mut b = vc_graph::GraphBuilder::with_nodes(4);
        for v in 0..4 {
            b.connect(v, 1, (v + 1) % 4, 2).unwrap();
        }
        let inst = Instance::new(b.build().unwrap(), vec![vc_graph::NodeLabel::empty(); 4]);
        let mut ex = Execution::new(&inst, 0, None, Budget::unlimited());
        let a = ex.query(0, Port::new(1)).unwrap();
        let c = ex.query(a.node, Port::new(1)).unwrap();
        ex.query(c.node, Port::new(1)).unwrap(); // node 3: true distance 1
        let rec = ex.record(true, true);
        assert_eq!(rec.distance_upper, 3);
        assert_eq!(rec.distance, Some(2));
    }

    #[test]
    fn randomness_consistent_across_executions() {
        let inst = tree();
        let tape = RandomTape::private(7);
        let mut ex1 = Execution::new(&inst, 0, Some(tape), Budget::unlimited());
        let mut ex2 = Execution::new(&inst, 1, Some(tape), Budget::unlimited());
        ex2.query(1, Port::new(1)).unwrap(); // visit node 0 from node 1
        let bits1: Vec<bool> = (0..32).map(|_| ex1.rand_bit(0).unwrap()).collect();
        let bits2: Vec<bool> = (0..32).map(|_| ex2.rand_bit(0).unwrap()).collect();
        assert_eq!(bits1, bits2, "r_v must look the same from any execution");
        assert_eq!(ex1.stats().random_bits, 32);
    }

    #[test]
    fn secret_mode_blocks_other_nodes() {
        let inst = tree();
        let tape = RandomTape::secret(7);
        let mut ex = Execution::new(&inst, 0, Some(tape), Budget::unlimited());
        let v = ex.query(0, Port::new(1)).unwrap();
        assert!(ex.rand_bit(0).is_ok());
        assert_eq!(
            ex.rand_bit(v.node).unwrap_err(),
            QueryError::SecretRandomness { node: v.node }
        );
    }

    #[test]
    fn deterministic_world_has_no_randomness() {
        let inst = tree();
        let mut ex = Execution::new(&inst, 0, None, Budget::unlimited());
        assert!(ex.rand_bit(0).is_err());
    }

    #[test]
    fn rand_bit_requires_visited() {
        let inst = tree();
        let mut ex = Execution::new(&inst, 0, Some(RandomTape::private(1)), Budget::unlimited());
        assert_eq!(
            ex.rand_bit(5).unwrap_err(),
            QueryError::NotVisited { node: 5 }
        );
    }

    #[test]
    fn scratch_reuse_is_equivalent_to_fresh_executions() {
        let inst = tree();
        let tape = RandomTape::private(5);
        let mut scratch = ExecScratch::new();
        for root in 0..inst.n() {
            // Fresh, owned-scratch execution as the reference.
            let mut fresh = Execution::new(&inst, root, Some(tape), Budget::unlimited());
            let mut reused =
                Execution::with_scratch(&inst, root, Some(tape), Budget::unlimited(), &mut scratch);
            for p in 1..=inst.graph.degree(root) as u8 {
                assert_eq!(
                    fresh.query(root, Port::new(p)),
                    reused.query(root, Port::new(p))
                );
            }
            let bits_fresh: Vec<bool> = (0..16).map(|_| fresh.rand_bit(root).unwrap()).collect();
            let bits_reused: Vec<bool> = (0..16).map(|_| reused.rand_bit(root).unwrap()).collect();
            assert_eq!(bits_fresh, bits_reused, "cursors must reset per epoch");
            assert_eq!(fresh.visited(), reused.visited());
            assert_eq!(fresh.record(true, true), reused.record(true, true));
        }
    }

    /// Keeps state in both parts of its [`SolverScratch`]: two searches of
    /// the root's closed neighborhood, each over a fresh mark set, counting
    /// every node's visits in its word. Outputs the counts in visit order.
    struct TwoSearches;

    impl QueryAlgorithm for TwoSearches {
        type Output = Vec<u32>;

        fn fallback(&self) -> Vec<u32> {
            Vec::new()
        }

        fn run(
            &self,
            oracle: &mut dyn Oracle,
            scratch: &mut SolverScratch,
        ) -> Result<Vec<u32>, QueryError> {
            scratch.begin();
            let root = oracle.root();
            let mut counts = Vec::new();
            for _ in 0..2 {
                scratch.clear_marks();
                let mut stack = vec![root];
                while let Some(v) = stack.pop() {
                    if !scratch.mark(v.node) {
                        continue;
                    }
                    *scratch.word(v.node) += 1;
                    counts.push(*scratch.word(v.node));
                    for p in 1..=v.degree as u8 {
                        let w = oracle.query(v.node, Port::new(p))?;
                        if v.node == root.node || w.node == root.node {
                            stack.push(w);
                        }
                    }
                }
            }
            Ok(counts)
        }
    }

    #[test]
    fn executions_across_an_epoch_wrap_equal_fresh_ones() {
        let inst = tree();
        let config = RunConfig {
            tape: Some(RandomTape::private(3)),
            ..RunConfig::default()
        };
        let mut scratch = ExecScratch::new();
        // Stamp node 1's neighborhood at the first epochs, then move all
        // four generations to just before the wrap. Root 7's execution
        // does not touch nodes 0, 1 and 4, so root 0's, right after the
        // wrap, sees stale slots unless the wrap wiped them.
        let _ = run_from_with(&inst, &TwoSearches, 1, &config, &mut scratch);
        let ExecScratch { visits, solver } = &mut scratch;
        for stamps in [
            &mut visits.visited,
            &mut visits.bfs,
            &mut solver.live,
            &mut solver.marks,
        ] {
            stamps.epoch = u32::MAX - 1;
        }
        for root in [0, 7, 3] {
            let fresh = run_from(&inst, &TwoSearches, root, &config);
            let degree = inst.graph.degree(root);
            assert_eq!(fresh.0.len(), 2 * (degree + 1));
            let reused = run_from_with(&inst, &TwoSearches, root, &config, &mut scratch);
            assert_eq!(reused, fresh, "root {root}");
        }
        let ExecScratch { visits, solver } = &scratch;
        let epochs = [visits.visited.epoch, visits.bfs.epoch, solver.live.epoch];
        assert_eq!(epochs, [2, 2, 2], "each part wrapped once");
        assert_eq!(solver.marks.epoch, 5);
    }

    #[test]
    fn stale_stamps_do_not_leak_across_epochs() {
        let inst = tree();
        let mut scratch = ExecScratch::new();
        {
            let mut ex = Execution::with_scratch(&inst, 0, None, Budget::unlimited(), &mut scratch);
            ex.query(0, Port::new(1)).unwrap();
            ex.query(0, Port::new(2)).unwrap();
            assert_eq!(ex.stats().volume, 3);
        }
        // A new epoch on the same scratch starts from a clean visited set:
        // node 0's neighbors from the previous epoch are unvisited again.
        let mut ex = Execution::with_scratch(&inst, 7, None, Budget::unlimited(), &mut scratch);
        assert_eq!(ex.stats().volume, 1);
        assert_eq!(
            ex.query(1, Port::new(1)).unwrap_err(),
            QueryError::NotVisited { node: 1 }
        );
    }

    #[test]
    fn out_of_range_handles_are_not_visited() {
        let inst = tree();
        let mut ex = Execution::new(&inst, 0, Some(RandomTape::private(1)), Budget::unlimited());
        assert_eq!(
            ex.query(99, Port::new(1)).unwrap_err(),
            QueryError::NotVisited { node: 99 }
        );
        assert_eq!(
            ex.rand_bit(99).unwrap_err(),
            QueryError::NotVisited { node: 99 }
        );
    }

    #[test]
    fn errors_display() {
        for e in [
            QueryError::NotVisited { node: 0 },
            QueryError::InvalidPort {
                node: 0,
                port: Port::new(1),
            },
            QueryError::VolumeExhausted,
            QueryError::DistanceExhausted,
            QueryError::QueriesExhausted,
            QueryError::SecretRandomness { node: 0 },
            QueryError::AdversaryRefused,
            QueryError::FaultInjected,
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
