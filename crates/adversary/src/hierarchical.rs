//! The deterministic volume lower bound for Hierarchical-THC(k)
//! (Proposition 5.20).
//!
//! The process `P` lazily grows a leveled world in response to the
//! algorithm's queries: a level-`ℓ` node's `LC`/`P` ports extend its
//! backbone (same level), and its `RC` port opens a level-`(ℓ−1)`
//! component. Input colors are monochromatic per component. The duel then
//! corners any deterministic algorithm:
//!
//! 1. Simulate at a fresh blue level-`k` root `v_B`. Declining is a
//!    palette violation at the top level; exemption (`X`) forces a descent
//!    into the `RC` component whose output must not decline (5(a)).
//! 2. If `v_B` commits to a color, simulate at a fresh *red* component and
//!    splice it below the blue one. The two simulated outputs disagree, so
//!    (conditions 3(b)/4/5(b)) some node between them must output `X` —
//!    binary search either finds it (descend) or pins two *adjacent*
//!    same-level nodes with conflicting non-exempt outputs, a directly
//!    checkable violation.
//! 3. The descent can recur at most `k − 1` times; at level 1 exemption is
//!    itself a palette violation (3(a)), closing the case analysis.
//!
//! Every terminal outcome is a machine-checkable certificate on the
//! finalized instance — or the algorithm has spent the world-growth budget,
//! which is the `Ω̃(n)`-volume horn of the dilemma. The simulations reuse
//! the same world, so answers stay consistent for deterministic algorithms
//! (the world only grows, and splices only touch never-queried ports).

use std::collections::HashMap;
use vc_core::output::ThcColor;
use vc_core::problems::hierarchical::check_thc_node;
use vc_graph::{structure, Color, GraphBuilder, GraphError, Instance, NodeLabel, Port};
use vc_model::oracle::{NodeView, Oracle, OracleStats, QueryError};
use vc_model::run::QueryAlgorithm;
use vc_model::SolverScratch;

#[derive(Clone, Debug)]
struct HNode {
    level: u32,
    label: NodeLabel,
    /// Neighbor behind each port.
    ports: Vec<Option<usize>>,
}

/// The lazily grown leveled world.
#[derive(Debug)]
pub struct HthcWorld {
    k: u32,
    nodes: Vec<HNode>,
    n_report: usize,
    max_nodes: usize,
    total_queries: u64,
}

impl HthcWorld {
    /// Creates an empty world for parameter `k`; algorithms are told
    /// `n = n_report` and growth stops at `max_nodes`.
    pub fn new(k: u32, n_report: usize, max_nodes: usize) -> Self {
        Self {
            k,
            nodes: Vec::new(),
            n_report,
            max_nodes,
            total_queries: 0,
        }
    }

    /// The hierarchy parameter the world was built for.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Total nodes created.
    pub fn created(&self) -> usize {
        self.nodes.len()
    }

    /// Total queries served across all simulations.
    pub fn total_queries(&self) -> u64 {
        self.total_queries
    }

    /// Starts one algorithm execution rooted at `root` (a node previously
    /// created through [`HthcWorld::new_root`], [`HthcWorld::new_floating`]
    /// or growth). The returned oracle shares — and keeps growing — this
    /// world, so later executions see every answer given earlier.
    pub fn execution(&mut self, root: usize) -> WorldExecution<'_> {
        WorldExecution::new(self, root)
    }

    fn push(&mut self, node: HNode) -> Result<usize, QueryError> {
        if self.nodes.len() >= self.max_nodes {
            return Err(QueryError::AdversaryRefused);
        }
        self.nodes.push(node);
        Ok(self.nodes.len() - 1)
    }

    /// A fresh component root at `level` with input color `color`.
    pub fn new_root(&mut self, level: u32, color: Color) -> Result<usize, QueryError> {
        let node = if level == 1 {
            HNode {
                level,
                label: NodeLabel::empty().with_left_child(1).with_color(color),
                ports: vec![None],
            }
        } else {
            HNode {
                level,
                label: NodeLabel::empty()
                    .with_left_child(1)
                    .with_right_child(2)
                    .with_color(color),
                ports: vec![None, None],
            }
        };
        self.push(node)
    }

    /// A fresh *floating* backbone node at `level`: it has a parent port,
    /// but nothing assigned to it yet — the shape the duel needs for
    /// splicing one component below another.
    pub fn new_floating(&mut self, level: u32, color: Color) -> Result<usize, QueryError> {
        self.new_inner(level, color)
    }

    /// A fresh mid-backbone node at `level` (parent port present).
    fn new_inner(&mut self, level: u32, color: Color) -> Result<usize, QueryError> {
        let node = if level == 1 {
            HNode {
                level,
                label: NodeLabel::empty()
                    .with_parent(1)
                    .with_left_child(2)
                    .with_color(color),
                ports: vec![None, None],
            }
        } else {
            HNode {
                level,
                label: NodeLabel::empty()
                    .with_parent(1)
                    .with_left_child(2)
                    .with_right_child(3)
                    .with_color(color),
                ports: vec![None, None, None],
            }
        };
        self.push(node)
    }

    fn port_index(label: &NodeLabel, kind: PortKind) -> Option<usize> {
        match kind {
            PortKind::Parent => label.parent.map(Port::index),
            PortKind::Lc => label.left_child.map(Port::index),
            PortKind::Rc => label.right_child.map(Port::index),
        }
    }

    /// Grows the world to answer `query(from, port)`.
    fn grow(&mut self, from: usize, port: Port) -> Result<usize, QueryError> {
        let (level, color, label) = {
            let n = &self.nodes[from];
            (n.level, n.label.color.unwrap_or(Color::R), n.label)
        };
        let idx = port.index();
        // Freshly built inner nodes always carry parent and LC ports; a
        // missing one means the world itself is corrupt, and the adversary
        // refuses rather than serving from a broken state.
        let fresh = if Some(idx) == Self::port_index(&label, PortKind::Parent) {
            // Backbone predecessor (same level), whose LC is `from`.
            let p = self.new_inner(level, color)?;
            let lc_idx = Self::port_index(&self.nodes[p].label, PortKind::Lc)
                .ok_or(QueryError::AdversaryRefused)?;
            self.nodes[p].ports[lc_idx] = Some(from);
            p
        } else if Some(idx) == Self::port_index(&label, PortKind::Lc) {
            // Backbone successor (same level), whose parent is `from`.
            let c = self.new_inner(level, color)?;
            let p_idx = Self::port_index(&self.nodes[c].label, PortKind::Parent)
                .ok_or(QueryError::AdversaryRefused)?;
            self.nodes[c].ports[p_idx] = Some(from);
            c
        } else {
            // RC: the level-(ℓ−1) component root below `from`.
            debug_assert!(level >= 2);
            let c = self.new_inner(level - 1, color)?;
            let p_idx = Self::port_index(&self.nodes[c].label, PortKind::Parent)
                .ok_or(QueryError::AdversaryRefused)?;
            self.nodes[c].ports[p_idx] = Some(from);
            c
        };
        self.nodes[from].ports[idx] = Some(fresh);
        Ok(fresh)
    }

    /// The `RC` child of a level-`≥2` node, growing it if necessary.
    ///
    /// # Errors
    ///
    /// [`QueryError::InvalidPort`] when `v` has no `RC` port (level-1
    /// nodes); [`QueryError::AdversaryRefused`] when growth is exhausted.
    pub fn rc_of(&mut self, v: usize) -> Result<usize, QueryError> {
        let Some(idx) = Self::port_index(&self.nodes[v].label, PortKind::Rc) else {
            // Level-1 nodes have no RC port; report the first out-of-range
            // port number so the caller sees a §2.2-shaped rejection.
            return Err(QueryError::InvalidPort {
                node: v,
                port: Port::from_index(self.nodes[v].ports.len()),
            });
        };
        match self.nodes[v].ports[idx] {
            Some(w) => Ok(w),
            None => self.grow(v, Port::from_index(idx)),
        }
    }

    /// Follows *assigned* LC links from `v` to the bottom of its backbone.
    fn chain_bottom(&self, v: usize) -> usize {
        let mut cur = v;
        loop {
            let idx = Self::port_index(&self.nodes[cur].label, PortKind::Lc);
            match idx.and_then(|i| self.nodes[cur].ports[i]) {
                Some(next) if self.nodes[next].level == self.nodes[cur].level => cur = next,
                _ => return cur,
            }
        }
    }

    /// Follows *assigned* same-level parent links from `v` to the top of
    /// its backbone.
    fn chain_top(&self, v: usize) -> usize {
        let mut cur = v;
        loop {
            let idx = Self::port_index(&self.nodes[cur].label, PortKind::Parent);
            match idx.and_then(|i| self.nodes[cur].ports[i]) {
                Some(p) if self.nodes[p].level == self.nodes[cur].level => cur = p,
                _ => return cur,
            }
        }
    }

    /// Splices component of `lower` below the backbone of `upper`: the
    /// bottom of `upper`'s chain adopts the top of `lower`'s chain as its
    /// LC child. Both ports involved have never been queried.
    ///
    /// # Errors
    ///
    /// [`QueryError::AdversaryRefused`] when the splice preconditions do
    /// not hold — unequal levels, a missing LC/parent port, or a port
    /// already revealed to the algorithm. The duel only splices ports it
    /// knows were never queried, so a refusal signals a corrupt world.
    pub fn splice_below(&mut self, upper: usize, lower: usize) -> Result<(), QueryError> {
        let ub = self.chain_bottom(upper);
        let lt = self.chain_top(lower);
        if self.nodes[ub].level != self.nodes[lt].level {
            return Err(QueryError::AdversaryRefused);
        }
        let Some(lc_idx) = Self::port_index(&self.nodes[ub].label, PortKind::Lc) else {
            return Err(QueryError::AdversaryRefused);
        };
        let Some(p_idx) = Self::port_index(&self.nodes[lt].label, PortKind::Parent) else {
            return Err(QueryError::AdversaryRefused);
        };
        if self.nodes[ub].ports[lc_idx].is_some() || self.nodes[lt].ports[p_idx].is_some() {
            return Err(QueryError::AdversaryRefused);
        }
        self.nodes[ub].ports[lc_idx] = Some(lt);
        self.nodes[lt].ports[p_idx] = Some(ub);
        Ok(())
    }

    /// The backbone path from `from` down to `to` along assigned LC links,
    /// or `None` when `to` is not below `from`.
    pub fn path_down(&self, from: usize, to: usize) -> Option<Vec<usize>> {
        let mut path = vec![from];
        let mut cur = from;
        while cur != to {
            let idx = Self::port_index(&self.nodes[cur].label, PortKind::Lc)?;
            cur = self.nodes[cur].ports[idx]?;
            path.push(cur);
        }
        Some(path)
    }

    /// Completes the world into a finite instance (node indices preserved):
    /// unassigned LC ports get level-leaves, unassigned RC ports get minimal
    /// lower-level chains, unassigned parent ports get fresh backbone tops.
    ///
    /// # Errors
    ///
    /// Returns a [`GraphError`] if the lazily grown world is structurally
    /// corrupt (an asymmetric port assignment or an invalid builder edge);
    /// a correct adversary never produces one.
    pub fn finalize(&self) -> Result<Instance, GraphError> {
        let mut b = GraphBuilder::new();
        let mut labels = Vec::new();
        for v in 0..self.nodes.len() {
            b.add_node_with_id(v as u64 + 1);
            labels.push(self.nodes[v].label);
        }
        for v in 0..self.nodes.len() {
            for (i, &nbr) in self.nodes[v].ports.iter().enumerate() {
                if let Some(w) = nbr {
                    if v < w {
                        let pw = self.nodes[w]
                            .ports
                            .iter()
                            .position(|&x| x == Some(v))
                            .ok_or(GraphError::AsymmetricEdge { from: v, to: w })?;
                        b.connect(v, i as u8 + 1, w, pw as u8 + 1)?;
                    }
                }
            }
        }
        // Appends a minimal level-`lvl` chain head (a node that is both the
        // root and the leaf of its backbone, with a minimal RC tower below),
        // returning the head's index in the builder.
        fn minimal_chain(
            b: &mut GraphBuilder,
            labels: &mut Vec<NodeLabel>,
            lvl: u32,
            color: Color,
        ) -> Result<usize, GraphError> {
            // Head: parent port 1 wired by the caller.
            let head = b.add_node();
            if lvl == 1 {
                labels.push(NodeLabel::empty().with_parent(1).with_color(color));
            } else {
                labels.push(
                    NodeLabel::empty()
                        .with_parent(1)
                        .with_right_child(2)
                        .with_color(color),
                );
                let below = minimal_chain(b, labels, lvl - 1, color)?;
                b.connect(head, 2, below, 1)?;
            }
            Ok(head)
        }
        for v in 0..self.nodes.len() {
            let lvl = self.nodes[v].level;
            let color = self.nodes[v].label.color.unwrap_or(Color::R);
            let label = self.nodes[v].label;
            for (i, &nbr) in self.nodes[v].ports.iter().enumerate().collect::<Vec<_>>() {
                if nbr.is_some() {
                    continue;
                }
                if Some(i) == Self::port_index(&label, PortKind::Parent) {
                    // Fresh backbone top: same level, LC = v, own minimal
                    // RC tower; no parent of its own.
                    let top = b.add_node();
                    if lvl == 1 {
                        labels.push(NodeLabel::empty().with_left_child(1).with_color(color));
                        b.connect(v, i as u8 + 1, top, 1)?;
                    } else {
                        labels.push(
                            NodeLabel::empty()
                                .with_left_child(1)
                                .with_right_child(2)
                                .with_color(color),
                        );
                        b.connect(v, i as u8 + 1, top, 1)?;
                        let below = minimal_chain(&mut b, &mut labels, lvl - 1, color)?;
                        b.connect(top, 2, below, 1)?;
                    }
                } else if Some(i) == Self::port_index(&label, PortKind::Lc) {
                    // Level leaf continuation: a same-level node with LC=⊥.
                    let leaf = b.add_node();
                    if lvl == 1 {
                        labels.push(NodeLabel::empty().with_parent(1).with_color(color));
                        b.connect(v, i as u8 + 1, leaf, 1)?;
                    } else {
                        labels.push(
                            NodeLabel::empty()
                                .with_parent(1)
                                .with_right_child(2)
                                .with_color(color),
                        );
                        b.connect(v, i as u8 + 1, leaf, 1)?;
                        let below = minimal_chain(&mut b, &mut labels, lvl - 1, color)?;
                        b.connect(leaf, 2, below, 1)?;
                    }
                } else {
                    // RC: minimal level-(ℓ−1) tower.
                    let below = minimal_chain(&mut b, &mut labels, lvl - 1, color)?;
                    b.connect(v, i as u8 + 1, below, 1)?;
                }
            }
        }
        Ok(Instance::new(b.build()?, labels))
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PortKind {
    Parent,
    Lc,
    Rc,
}

/// One execution of an algorithm against the shared world.
///
/// Obtained from [`HthcWorld::execution`]; implements [`Oracle`] so that a
/// single lazily grown world can serve several simulations consistently
/// (the duel), and so that external auditors can interpose on the query
/// stream of an individual simulation.
pub struct WorldExecution<'w> {
    world: &'w mut HthcWorld,
    root: usize,
    visited: HashMap<usize, u32>,
    distance_upper: u32,
    queries: u64,
}

impl<'w> WorldExecution<'w> {
    fn new(world: &'w mut HthcWorld, root: usize) -> Self {
        Self {
            world,
            root,
            visited: HashMap::from([(root, 0)]),
            distance_upper: 0,
            queries: 0,
        }
    }

    fn view_of(&self, v: usize) -> NodeView {
        NodeView {
            node: v,
            id: v as u64 + 1,
            degree: self.world.nodes[v].ports.len(),
            label: self.world.nodes[v].label,
        }
    }
}

impl Oracle for WorldExecution<'_> {
    fn n(&self) -> usize {
        self.world.n_report
    }

    fn root(&self) -> NodeView {
        self.view_of(self.root)
    }

    fn query(&mut self, from: usize, port: Port) -> Result<NodeView, QueryError> {
        let Some(&from_dist) = self.visited.get(&from) else {
            return Err(QueryError::NotVisited { node: from });
        };
        if port.index() >= self.world.nodes[from].ports.len() {
            return Err(QueryError::InvalidPort { node: from, port });
        }
        self.queries += 1;
        self.world.total_queries += 1;
        let target = match self.world.nodes[from].ports[port.index()] {
            Some(w) => w,
            None => self.world.grow(from, port)?,
        };
        let d = self.visited.get(&target).copied().unwrap_or(from_dist + 1);
        self.visited.entry(target).or_insert(d);
        self.distance_upper = self.distance_upper.max(d);
        Ok(self.view_of(target))
    }

    fn rand_bit(&mut self, node: usize) -> Result<bool, QueryError> {
        // Proposition 5.20 concerns deterministic algorithms.
        Err(QueryError::SecretRandomness { node })
    }

    fn stats(&self) -> OracleStats {
        OracleStats {
            volume: self.visited.len(),
            distance_upper: self.distance_upper,
            queries: self.queries,
            random_bits: 0,
        }
    }
}

/// Terminal outcomes of the duel, each a certificate against the finalized
/// instance (or the volume horn).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DuelOutcome {
    /// The algorithm declined (or otherwise broke the palette) at a node
    /// where the palette forbids it — directly checkable.
    PaletteViolation {
        /// The offending node.
        node: usize,
        /// Its output.
        out: ThcColor,
    },
    /// A node output `X` while the simulated output below it declines (or
    /// is absent where required) — violates 4(b)/5(a).
    ExemptOverDecline {
        /// The exempt node.
        node: usize,
        /// Its `RC` component root.
        below: usize,
    },
    /// Two adjacent same-level nodes with differing non-exempt outputs —
    /// violates 3(b)/4/5(b) at the upper node.
    AdjacentConflict {
        /// The upper node.
        upper: usize,
        /// Its LC child.
        lower: usize,
    },
    /// The algorithm output a color although every node it could ever have
    /// seen carries the opposite input color (the Claim in the proof of
    /// Proposition 5.20; certified by exhibiting the monochrome completion).
    MonochromeMiscolor {
        /// The node.
        node: usize,
        /// Its output.
        out: ThcColor,
    },
    /// The algorithm exhausted the world-growth budget: it used `Ω(n)`
    /// volume, the other horn of the dilemma.
    Exhausted,
}

/// Result of running the duel.
#[derive(Debug)]
pub struct DuelReport {
    /// The terminal outcome.
    pub outcome: DuelOutcome,
    /// Outputs recorded from every simulation, by node.
    pub outputs: HashMap<usize, ThcColor>,
    /// The finalized instance.
    pub instance: Instance,
    /// Total queries across simulations.
    pub total_queries: u64,
    /// Nodes the world grew to.
    pub nodes_created: usize,
    /// Human-readable trace of the duel (for Figure 8).
    pub trace: Vec<String>,
}

impl DuelReport {
    /// Verifies the certificate against the finalized instance: for every
    /// violation outcome, the per-node check of Definition 5.5 must fail at
    /// the certificate node given the recorded outputs.
    pub fn certificate_holds(&self, k: u32) -> bool {
        let get = |u: usize| self.outputs.get(&u).copied();
        let check = |v: usize| {
            let lvl = structure::level_capped(&self.instance, v, k);
            let license = |r: usize| get(r).is_some_and(ThcColor::is_solved);
            check_thc_node(&self.instance, &get, v, lvl, k, &license)
        };
        match self.outcome {
            DuelOutcome::PaletteViolation { node, .. } => check(node).is_err(),
            DuelOutcome::ExemptOverDecline { node, .. } => check(node).is_err(),
            DuelOutcome::AdjacentConflict { upper, .. } => check(upper).is_err(),
            // Monochrome miscoloring is certified by the proof's Claim, not
            // by a single-node check.
            DuelOutcome::MonochromeMiscolor { .. } => true,
            DuelOutcome::Exhausted => true,
        }
    }
}

/// Runs the Proposition 5.20 duel against a deterministic algorithm.
///
/// # Errors
///
/// Propagates a [`GraphError`] from [`HthcWorld::finalize`]; a correct
/// adversary never produces one.
pub fn duel<A>(
    algo: &A,
    k: u32,
    n_report: usize,
    max_nodes: usize,
) -> Result<DuelReport, GraphError>
where
    A: QueryAlgorithm<Output = ThcColor>,
{
    let mut world = HthcWorld::new(k, n_report, max_nodes);
    let mut outputs = HashMap::new();
    let mut trace = Vec::new();
    let top_level = world.k();
    let outcome = duel_inner(algo, &mut world, top_level, &mut outputs, &mut trace);
    let instance = world.finalize()?;
    Ok(DuelReport {
        outcome,
        outputs,
        total_queries: world.total_queries(),
        nodes_created: world.created(),
        instance,
        trace,
    })
}

fn simulate<A>(
    algo: &A,
    world: &mut HthcWorld,
    node: usize,
    outputs: &mut HashMap<usize, ThcColor>,
    trace: &mut Vec<String>,
) -> Result<ThcColor, QueryError>
where
    A: QueryAlgorithm<Output = ThcColor>,
{
    if let Some(&c) = outputs.get(&node) {
        return Ok(c);
    }
    let mut exec = WorldExecution::new(world, node);
    let out = algo.run(&mut exec, &mut SolverScratch::new())?;
    trace.push(format!(
        "simulated node {node} (level {}): output {out}, volume {}",
        exec.world.nodes[node].level,
        exec.stats().volume
    ));
    outputs.insert(node, out);
    Ok(out)
}

fn duel_inner<A>(
    algo: &A,
    world: &mut HthcWorld,
    level: u32,
    outputs: &mut HashMap<usize, ThcColor>,
    trace: &mut Vec<String>,
) -> DuelOutcome
where
    A: QueryAlgorithm<Output = ThcColor>,
{
    let Ok(seed) = world.new_root(level, Color::B) else {
        return DuelOutcome::Exhausted;
    };
    trace.push(format!("phase {level}: fresh blue root {seed}"));
    duel_component(algo, world, level, seed, None, outputs, trace)
}

/// Duel within the component of `seed` at `level`; `exempt_parent` is set
/// when we descended from a node that output `X` (so declining here
/// certifies 4(b)/5(a) at that parent).
fn duel_component<A>(
    algo: &A,
    world: &mut HthcWorld,
    level: u32,
    seed: usize,
    exempt_parent: Option<usize>,
    outputs: &mut HashMap<usize, ThcColor>,
    trace: &mut Vec<String>,
) -> DuelOutcome
where
    A: QueryAlgorithm<Output = ThcColor>,
{
    let Ok(out) = simulate(algo, world, seed, outputs, trace) else {
        return DuelOutcome::Exhausted;
    };
    match out {
        ThcColor::D => {
            if let Some(p) = exempt_parent {
                trace.push(format!("node {seed} declined below exempt node {p}"));
                DuelOutcome::ExemptOverDecline {
                    node: p,
                    below: seed,
                }
            } else {
                // Only the initial call lacks a parent constraint, and it is
                // at the top level where D breaks the palette.
                trace.push(format!("node {seed} declined at the top level"));
                DuelOutcome::PaletteViolation {
                    node: seed,
                    out: ThcColor::D,
                }
            }
        }
        ThcColor::X => {
            if level == 1 {
                trace.push(format!("node {seed} exempt at level 1 (3(a))"));
                return DuelOutcome::PaletteViolation {
                    node: seed,
                    out: ThcColor::X,
                };
            }
            let Ok(rc) = world.rc_of(seed) else {
                return DuelOutcome::Exhausted;
            };
            trace.push(format!(
                "node {seed} exempt: descend to {rc} (level {})",
                level - 1
            ));
            duel_component(algo, world, level - 1, rc, Some(seed), outputs, trace)
        }
        color => {
            // The algorithm committed to a color in a monochrome world.
            let world_color =
                ThcColor::from_color(world.nodes[seed].label.color.unwrap_or(Color::R));
            if color != world_color {
                trace.push(format!(
                    "node {seed} output {color} although its whole component is {world_color}"
                ));
                return DuelOutcome::MonochromeMiscolor {
                    node: seed,
                    out: color,
                };
            }
            // Build the opposite-colored component, splice it below, and
            // binary-search the forced boundary.
            let opp_color = match world.nodes[seed].label.color.unwrap_or(Color::R) {
                Color::R => Color::B,
                Color::B => Color::R,
            };
            // The opposite component's top is a *floating* node (it has a
            // parent port, still unassigned) so it can later be spliced
            // below the seed's backbone.
            let Ok(opp_inner) = world.new_floating(level, opp_color) else {
                return DuelOutcome::Exhausted;
            };
            let Ok(opp_out) = simulate(algo, world, opp_inner, outputs, trace) else {
                return DuelOutcome::Exhausted;
            };
            match opp_out {
                ThcColor::X => {
                    if level == 1 {
                        return DuelOutcome::PaletteViolation {
                            node: opp_inner,
                            out: ThcColor::X,
                        };
                    }
                    let Ok(rc) = world.rc_of(opp_inner) else {
                        return DuelOutcome::Exhausted;
                    };
                    return duel_component(
                        algo,
                        world,
                        level - 1,
                        rc,
                        Some(opp_inner),
                        outputs,
                        trace,
                    );
                }
                o if o == color => {
                    return DuelOutcome::MonochromeMiscolor {
                        node: opp_inner,
                        out: o,
                    };
                }
                _ => {}
            }
            // Now seed (output `color`) sits above opp_inner (output
            // `opp_out` ≠ color, non-X) after splicing.
            trace.push(format!(
                "splicing component of {opp_inner} below component of {seed}"
            ));
            if world.splice_below(seed, opp_inner).is_err() {
                // Unreachable for a correct duel: both ports were never
                // queried. Refusing counts as the volume horn.
                return DuelOutcome::Exhausted;
            }
            binary_search_boundary(algo, world, level, seed, opp_inner, outputs, trace)
        }
    }
}

/// `top` and `bottom` are same-level backbone nodes with differing,
/// non-exempt simulated outputs; find an exempt node (descend) or an
/// adjacent conflicting pair.
fn binary_search_boundary<A>(
    algo: &A,
    world: &mut HthcWorld,
    level: u32,
    top: usize,
    bottom: usize,
    outputs: &mut HashMap<usize, ThcColor>,
    trace: &mut Vec<String>,
) -> DuelOutcome
where
    A: QueryAlgorithm<Output = ThcColor>,
{
    let Some(mut path) = world.path_down(top, bottom) else {
        // Unreachable for a correct duel: the splice placed `bottom` below
        // `top`. A missing path signals a corrupt world; count it as the
        // volume horn rather than serving from a broken state.
        return DuelOutcome::Exhausted;
    };
    loop {
        if path.len() <= 2 {
            let (Some(&upper), Some(&lower)) = (path.first(), path.get(1)) else {
                return DuelOutcome::Exhausted;
            };
            trace.push(format!(
                "adjacent conflict: {upper} ({}) above {lower} ({})",
                outputs[&upper], outputs[&lower]
            ));
            return DuelOutcome::AdjacentConflict { upper, lower };
        }
        let idx = path.len() / 2;
        let mid = path[idx];
        let Ok(out) = simulate(algo, world, mid, outputs, trace) else {
            return DuelOutcome::Exhausted;
        };
        match out {
            ThcColor::X => {
                if level == 1 {
                    return DuelOutcome::PaletteViolation {
                        node: mid,
                        out: ThcColor::X,
                    };
                }
                let Ok(rc) = world.rc_of(mid) else {
                    return DuelOutcome::Exhausted;
                };
                trace.push(format!("binary search found exempt node {mid}; descend"));
                return duel_component(algo, world, level - 1, rc, Some(mid), outputs, trace);
            }
            o => {
                let top_out = outputs[&path[0]];
                if o == top_out {
                    path.drain(..idx);
                } else {
                    path.truncate(idx + 1);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vc_core::problems::hierarchical::DeterministicSolver;

    #[test]
    fn world_grows_consistently() {
        let mut world = HthcWorld::new(2, 100, 1000);
        let root = world.new_root(2, Color::B).unwrap();
        let mut exec = WorldExecution::new(&mut world, root);
        let view = exec.root();
        assert_eq!(view.degree, 2); // LC + RC for a level-2 root
        let lc = exec.query(root, Port::new(1)).unwrap();
        assert_eq!(lc.degree, 3);
        let rc = exec.query(root, Port::new(2)).unwrap();
        // RC child is a level-1 node: parent + LC only.
        assert_eq!(rc.degree, 2);
        assert_eq!(rc.label.right_child, None);
        // Requeries are stable.
        assert_eq!(exec.query(root, Port::new(1)).unwrap().node, lc.node);
    }

    #[test]
    fn finalized_world_is_valid_graph_with_levels() {
        let mut world = HthcWorld::new(3, 100, 1000);
        let root = world.new_root(3, Color::B).unwrap();
        let mut exec = WorldExecution::new(&mut world, root);
        let lc = exec.query(root, Port::new(1)).unwrap();
        let _ = exec.query(lc.node, Port::new(3)).unwrap(); // RC of inner node
        let inst = world.finalize().unwrap();
        assert!(inst.graph.validate().is_ok());
        // The seed has level 3 in the finalized instance.
        assert_eq!(structure::level_capped(&inst, root, 3), 3);
    }

    #[test]
    fn recursive_hthc_is_cornered() {
        // Our own deterministic solver against the adversary: the world
        // grows past every threshold walk, so the solver ends up declining
        // at the top level — a palette violation — or exhausts the budget.
        for k in 2..=3 {
            let report = duel(&DeterministicSolver { k }, k, 400, 200_000).unwrap();
            match &report.outcome {
                DuelOutcome::PaletteViolation { out, .. } => {
                    assert_eq!(*out, ThcColor::D);
                }
                DuelOutcome::Exhausted => {}
                other => panic!("unexpected outcome {other:?}"),
            }
            assert!(report.certificate_holds(k), "certificate must verify");
            assert!(report.instance.graph.validate().is_ok());
        }
    }

    /// A naive algorithm that outputs its own input color — defeated via
    /// splice + binary search.
    struct EchoColor;

    impl QueryAlgorithm for EchoColor {
        type Output = ThcColor;

        fn fallback(&self) -> ThcColor {
            ThcColor::D
        }

        fn run(
            &self,
            oracle: &mut dyn vc_model::Oracle,
            _: &mut SolverScratch,
        ) -> Result<ThcColor, QueryError> {
            Ok(ThcColor::from_color(
                oracle.root().label.color.unwrap_or(Color::R),
            ))
        }
    }

    #[test]
    fn echo_color_loses_binary_search() {
        let report = duel(&EchoColor, 2, 100, 10_000).unwrap();
        match report.outcome {
            DuelOutcome::AdjacentConflict { upper, lower } => {
                assert_ne!(report.outputs[&upper], report.outputs[&lower]);
            }
            other => panic!("expected adjacent conflict, got {other:?}"),
        }
        assert!(report.certificate_holds(2));
    }

    /// An algorithm that always claims exemption.
    struct AlwaysExempt;

    impl QueryAlgorithm for AlwaysExempt {
        type Output = ThcColor;

        fn fallback(&self) -> ThcColor {
            ThcColor::X
        }

        fn run(
            &self,
            _: &mut dyn vc_model::Oracle,
            _: &mut SolverScratch,
        ) -> Result<ThcColor, QueryError> {
            Ok(ThcColor::X)
        }
    }

    #[test]
    fn always_exempt_hits_level_one() {
        let report = duel(&AlwaysExempt, 3, 100, 10_000).unwrap();
        assert_eq!(
            report.outcome,
            DuelOutcome::PaletteViolation {
                node: *report
                    .outputs
                    .iter()
                    .filter(|(_, &c)| c == ThcColor::X)
                    .map(|(n, _)| n)
                    .max()
                    .unwrap(),
                out: ThcColor::X
            }
        );
        assert!(report.certificate_holds(3));
        // Descents happened k − 1 = 2 times before level 1.
        assert!(report.trace.iter().any(|l| l.contains("descend")));
    }

    /// An algorithm that always declines.
    struct AlwaysDecline;

    impl QueryAlgorithm for AlwaysDecline {
        type Output = ThcColor;

        fn fallback(&self) -> ThcColor {
            ThcColor::D
        }

        fn run(
            &self,
            _: &mut dyn vc_model::Oracle,
            _: &mut SolverScratch,
        ) -> Result<ThcColor, QueryError> {
            Ok(ThcColor::D)
        }
    }

    #[test]
    fn always_decline_breaks_palette() {
        let report = duel(&AlwaysDecline, 2, 100, 10_000).unwrap();
        assert!(matches!(
            report.outcome,
            DuelOutcome::PaletteViolation {
                out: ThcColor::D,
                ..
            }
        ));
        assert!(report.certificate_holds(2));
    }

    #[test]
    fn tiny_budget_exhausts() {
        let report = duel(&DeterministicSolver { k: 2 }, 2, 400, 10).unwrap();
        assert_eq!(report.outcome, DuelOutcome::Exhausted);
    }
}
