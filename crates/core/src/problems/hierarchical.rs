//! Hierarchical 2½-coloring, `Hierarchical-THC(k)` (paper §5): distance
//! `Θ(n^{1/k})`, randomized volume `Θ̃(n^{1/k})`, deterministic volume
//! `Θ̃(n)`.
//!
//! The input is a colored tree labeling whose `RC`-chains induce *levels*
//! (Definition 5.1): level-1 components are `LC`-paths/cycles, and each
//! node at level `ℓ > 1` hangs a level-`(ℓ−1)` component off its `RC`. The
//! output palette is `{R, B, D, X}` — color, *decline*, *exempt* — with the
//! validity conditions of Definition 5.5.
//!
//! This module holds the only `RecursiveHTHC` engine and the only
//! Definition 5.5 checker. Hybrid-THC (§6) reuses both through a
//! [`Variant`] and an exemption license.

use crate::lcl::{Lcl, Violation};
use crate::output::{MemoCode, ThcColor};
use crate::problems::util::Explorer;
use std::marker::PhantomData;
use vc_graph::{structure, Color, Instance};
use vc_model::oracle::{NodeView, Oracle, QueryError};
use vc_model::run::QueryAlgorithm;
use vc_model::SolverScratch;

/// The Hierarchical-THC(k) LCL (Definition 5.5).
#[derive(Clone, Copy, Debug)]
pub struct HierarchicalThc {
    /// The hierarchy parameter `k ≥ 1`.
    pub k: u32,
}

impl HierarchicalThc {
    /// Creates the problem for a fixed `k ≥ 1`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: u32) -> Self {
        assert!(k >= 1);
        Self { k }
    }
}

/// `LC(v)` resolved with its parent back-pointer (the `G_k` edge condition
/// of Definition 5.1): the node `u` with `u = LC(v)` and `P(u) = v`.
pub(crate) fn lc_strict(inst: &Instance, v: usize) -> Option<usize> {
    let u = inst.left_child_node(v)?;
    (inst.parent_node(u) == Some(v)).then_some(u)
}

/// `RC(v)` resolved with its parent back-pointer.
pub(crate) fn rc_strict(inst: &Instance, v: usize) -> Option<usize> {
    let u = inst.right_child_node(v)?;
    (inst.parent_node(u) == Some(v)).then_some(u)
}

/// An input color as a symbol (an uncolored node reads as `R`).
fn input_sym(color: Option<Color>) -> ThcColor {
    ThcColor::from_color(color.unwrap_or(Color::R))
}

/// Checks the per-node conditions of Definition 5.5 at a node whose level is
/// `lvl`. Outputs are supplied through a getter so that HH-THC (and the
/// lower-bound adversaries, which only know the outputs of simulated nodes)
/// can map partial or mixed output alphabets onto symbols (`None` marks an
/// unknown/non-symbol output, which fails whichever rule references it).
///
/// `license(RC(v))` says whether the output below `v` licenses its
/// exemption (conditions 4(b) and 5(a)): a solved symbol for
/// Hierarchical-THC, Definition 6.1's solved pair at level 2 for
/// Hybrid-THC.
pub fn check_thc_node(
    inst: &Instance,
    get_out: &dyn Fn(usize) -> Option<ThcColor>,
    v: usize,
    lvl: u32,
    k: u32,
    license: &dyn Fn(usize) -> bool,
) -> Result<(), Violation> {
    let fail = |rule| Err(Violation { node: v, rule });
    let Some(out) = get_out(v) else {
        return fail("5.5:needs-symbol");
    };
    // Condition 1: levels above k are exempt.
    if lvl > k {
        return if out == ThcColor::X {
            Ok(())
        } else {
            fail("5.5:1:exempt-above-k")
        };
    }
    let lc = lc_strict(inst, v);
    let licensed = rc_strict(inst, v).is_some_and(license);
    let input = input_sym(inst.labels[v].color);
    // Condition 2: leaves keep their color, decline, or are exempt.
    if lc.is_none() && !(out == input || out == ThcColor::D || out == ThcColor::X) {
        return fail("5.5:2:leaf-palette");
    }
    if lvl == 1 {
        // Condition 3(a).
        if !matches!(out, ThcColor::R | ThcColor::B | ThcColor::D) {
            return fail("5.5:3a:level1-palette");
        }
        // Condition 3(b).
        if lc.is_some_and(|lc| get_out(lc) != Some(out)) {
            return fail("5.5:3b:level1-unanimous");
        }
        if k > 1 {
            return Ok(());
        }
        // For k = 1, level 1 is also the top level: condition 5 applies as
        // well (so declining is forbidden); fall through.
    }
    if lvl < k {
        // Condition 4 (only constrains non-leaves).
        let Some(lc) = lc else {
            return Ok(());
        };
        let a = get_out(lc) == Some(out) && matches!(out, ThcColor::R | ThcColor::B | ThcColor::D);
        let b = out == ThcColor::X && licensed;
        let c = (out == input || out == ThcColor::D) && get_out(lc) == Some(ThcColor::X);
        return if a || b || c {
            Ok(())
        } else {
            fail("5.5:4:mid-level")
        };
    }
    // Condition 5: lvl == k.
    if !matches!(out, ThcColor::R | ThcColor::B | ThcColor::X) {
        return fail("5.5:5:top-palette");
    }
    if out == ThcColor::X {
        // Condition 5(a).
        return if licensed {
            Ok(())
        } else {
            fail("5.5:5a:exempt-needs-solved-rc")
        };
    }
    // Condition 5(b).
    let segment_ok = lc.is_none_or(|lc| match get_out(lc) {
        Some(ThcColor::X) => out == input,
        Some(c) => out == c,
        None => false,
    });
    if segment_ok {
        Ok(())
    } else {
        fail("5.5:5b:top-segment")
    }
}

impl Lcl for HierarchicalThc {
    type Output = ThcColor;

    fn name(&self) -> String {
        format!("Hierarchical-THC({})", self.k)
    }

    fn check_radius(&self) -> u32 {
        // Levels are read off RC-chains of length ≤ k, plus one hop for the
        // child conditions.
        self.k + 1
    }

    fn check_node(&self, inst: &Instance, outputs: &[ThcColor], v: usize) -> Result<(), Violation> {
        let lvl = structure::level_capped(inst, v, self.k);
        let license = |r: usize| outputs[r].is_solved();
        check_thc_node(inst, &|u| Some(outputs[u]), v, lvl, self.k, &license)
    }
}

/// What a THC problem plugs into [`Engine`]: the three things Hybrid-THC
/// changes in `RecursiveHTHC` (Definition 6.1, Theorem 6.3).
/// [`Hierarchical`] is Hierarchical-THC's own choice of all three.
pub(crate) trait Variant: Sized {
    /// The output alphabet; THC symbols embed into it, and the memo keeps
    /// it as a 16-bit code.
    type Out: Copy + From<ThcColor> + MemoCode;

    /// The level of `v`; every level above `k` reads as `k + 1`.
    fn level(e: &mut Engine<'_, '_, Self>, v: &NodeView) -> Result<u32, QueryError>;

    /// The output of `v`, a node of a level-1 component.
    fn level1(e: &mut Engine<'_, '_, Self>, v: NodeView) -> Result<Self::Out, QueryError>;

    /// Whether `below`, the output of the component root below a
    /// level-`lvl` node, licenses that node's exemption.
    fn licenses(below: Self::Out, lvl: u32) -> bool;
}

/// Hierarchical-THC's [`Variant`]: Definition 5.1's capped `RC` walk, level-1
/// components colored by their anchor when shallow and declined when deep,
/// and any solved symbol below as the license.
pub(crate) struct Hierarchical;

impl Variant for Hierarchical {
    type Out = ThcColor;

    fn level(e: &mut Engine<'_, '_, Self>, v: &NodeView) -> Result<u32, QueryError> {
        let mut cur = *v;
        let mut lvl = 1u32;
        while lvl <= e.k {
            match e.xp.follow(&cur, cur.label.right_child)? {
                Some(u) => {
                    cur = u;
                    lvl += 1;
                }
                None => return Ok(lvl),
            }
        }
        Ok(e.k + 1)
    }

    fn level1(e: &mut Engine<'_, '_, Self>, v: NodeView) -> Result<ThcColor, QueryError> {
        // Algorithm 2 lines 1–6: shallow components are colored by their
        // anchor; deep ones decline.
        Ok(e.shallow_anchor(&v)?
            .map_or(ThcColor::D, |a| input_sym(a.label.color)))
    }

    fn licenses(below: ThcColor, _lvl: u32) -> bool {
        below.is_solved()
    }
}

/// Whether recursion is gated by a way-point lottery (the randomized
/// volume-efficient variant of Proposition 5.14) or always allowed (the
/// deterministic `RecursiveHTHC`, Algorithm 2).
#[derive(Clone, Copy, Debug)]
enum Gate {
    Always,
    WayPoints {
        /// Lottery success probability `p = c·log₂(n) / n^{1/k}`.
        p: f64,
    },
}

/// `RecursiveHTHC` (Algorithm 2) over the [`Variant`] `V`: the solver engine
/// of every Hierarchical- and Hybrid-THC volume solver.
pub(crate) struct Engine<'x, 'o, V: Variant> {
    pub(crate) xp: &'x mut Explorer<'o>,
    pub(crate) k: u32,
    /// The component threshold `2·⌈n^{1/k}⌉`.
    pub(crate) threshold: usize,
    gate: Gate,
    variant: PhantomData<V>,
}

impl<V: Variant> Engine<'_, '_, V> {
    /// Backbone successor (`u = LC(v)` with `P(u) = v`).
    fn next(&mut self, v: &NodeView) -> Result<Option<NodeView>, QueryError> {
        let Some(u) = self.xp.follow(v, v.label.left_child)? else {
            return Ok(None);
        };
        let back = self.xp.follow(&u, u.label.parent)?;
        Ok((back.map(|b| b.node) == Some(v.node)).then_some(u))
    }

    /// Backbone predecessor (`p = P(v)` with `LC(p) = v`); `None` at a
    /// level-`ℓ` root (Definition 5.2).
    fn prev(&mut self, v: &NodeView) -> Result<Option<NodeView>, QueryError> {
        let Some(p) = self.xp.follow(v, v.label.parent)? else {
            return Ok(None);
        };
        let down = self.xp.follow(&p, p.label.left_child)?;
        Ok((down.map(|d| d.node) == Some(v.node)).then_some(p))
    }

    /// The `RC` child with back-pointer, i.e. the level-`(ℓ−1)` root below.
    fn down(&mut self, v: &NodeView) -> Result<Option<NodeView>, QueryError> {
        let Some(u) = self.xp.follow(v, v.label.right_child)? else {
            return Ok(None);
        };
        let back = self.xp.follow(&u, u.label.parent)?;
        Ok((back.map(|b| b.node) == Some(v.node)).then_some(u))
    }

    /// Whether the level-`lvl` node `v` may become exempt: its recursion
    /// gate is open and the component below solves to a licensing output
    /// (Algorithm 2 lines 7, 12, 15, 23 with the way-point modification of
    /// Proposition 5.14).
    fn exempt_candidate(&mut self, v: &NodeView, lvl: u32) -> Result<bool, QueryError> {
        if let Gate::WayPoints { p } = self.gate {
            if !self.xp.bernoulli(v.node, p)? {
                return Ok(false);
            }
        }
        let Some(r) = self.down(v)? else {
            return Ok(false);
        };
        Ok(V::licenses(self.solve(r)?, lvl))
    }

    /// `RecursiveHTHC(v)` (Algorithm 2), memoized per execution in the
    /// explorer's per-node words.
    fn solve(&mut self, v: NodeView) -> Result<V::Out, QueryError> {
        if let Some(code) = self.xp.memo(v.node) {
            return Ok(V::Out::unpack(code));
        }
        let c = self.solve_uncached(v)?;
        self.xp.set_memo(v.node, c.pack());
        Ok(c)
    }

    fn solve_uncached(&mut self, v: NodeView) -> Result<V::Out, QueryError> {
        let lvl = V::level(self, &v)?;
        if lvl > self.k {
            return Ok(ThcColor::X.into());
        }
        // Lines 1–6 on level-1 components.
        if lvl == 1 {
            return V::level1(self, v);
        }
        // Lines 1–4: probe the component; shallow components are colored by
        // their level leaf (path) or minimum-ID node (cycle).
        if let Some(anchor) = self.shallow_anchor(&v)? {
            return Ok(input_sym(anchor.label.color).into());
        }
        // Line 7: exemption if the component below solves.
        if self.exempt_candidate(&v, lvl)? {
            return Ok(ThcColor::X.into());
        }
        // Lines 10–18: scan for the nearest exempt-capable descendant `u`
        // and ancestor `w` along the backbone.
        let t = self.threshold;
        let mut u = v;
        let mut u_prev: Option<NodeView> = None;
        let mut du = 0usize;
        let mut u_stop = false;
        let mut w = v;
        let mut dw = 0usize;
        let mut w_stop = false;
        for _ in 0..=t {
            if !u_stop {
                if self.exempt_candidate(&u, lvl)? {
                    u_stop = true;
                } else if let Some(nx) = self.next(&u)? {
                    u_prev = Some(u);
                    u = nx;
                    du += 1;
                } else {
                    u_stop = true; // level-ℓ leaf
                }
            }
            if !w_stop {
                if self.exempt_candidate(&w, lvl)? {
                    w_stop = true;
                } else if let Some(pv) = self.prev(&w)? {
                    w = pv;
                    dw += 1;
                } else {
                    w_stop = true; // level-ℓ root
                }
            }
            if u_stop && w_stop {
                break;
            }
        }
        // Lines 22–30.
        if !(u_stop && w_stop) || du + dw > t {
            return Ok(ThcColor::D.into());
        }
        let anchor = if self.exempt_candidate(&u, lvl)? {
            // `u` outputs X; the segment above it is unanimously colored by
            // the input color of u's backbone parent (condition 5(b)'s
            // "χ_in(P(u))").
            u_prev.unwrap_or(u)
        } else {
            // `u` is a level-ℓ leaf whose subtree declined: the segment is
            // colored by the leaf's own input color.
            u
        };
        Ok(input_sym(anchor.label.color).into())
    }

    /// Probes whether `v`'s component `C` has at most `threshold` nodes
    /// (Definition 5.10 "shallow"); returns the coloring anchor — the level
    /// leaf of a path, or the minimum-ID node of a cycle.
    fn shallow_anchor(&mut self, v: &NodeView) -> Result<Option<NodeView>, QueryError> {
        let t = self.threshold;
        // Forward walk (towards the level leaf / around the cycle).
        let mut fwd = Vec::new();
        let mut cur = *v;
        while let Some(nx) = self.next(&cur)? {
            if nx.node == v.node {
                // A cycle of length fwd.len() + 1.
                let mut all = fwd;
                all.push(*v);
                if all.len() <= t {
                    let anchor = all
                        .into_iter()
                        .min_by_key(|x| x.id)
                        .expect("cycle is nonempty");
                    return Ok(Some(anchor));
                }
                return Ok(None);
            }
            fwd.push(nx);
            if fwd.len() > t {
                return Ok(None);
            }
            cur = nx;
        }
        let leaf = *fwd.last().unwrap_or(v);
        // Backward walk to the component root.
        let mut count = fwd.len() + 1;
        let mut back = *v;
        while let Some(pv) = self.prev(&back)? {
            count += 1;
            if count > t {
                return Ok(None);
            }
            back = pv;
        }
        Ok(Some(leaf))
    }
}

/// Runs the engine over `V` at the initiating node. `c` is the way-point
/// density constant of Proposition 5.14; `None` runs the ungated
/// Algorithm 2.
pub(crate) fn run_engine<V: Variant>(
    oracle: &mut dyn Oracle,
    scratch: &mut SolverScratch,
    k: u32,
    c: Option<f64>,
) -> Result<V::Out, QueryError> {
    let mut xp = Explorer::new(oracle, scratch);
    let n = xp.n();
    let gate = match c {
        None => Gate::Always,
        Some(c) => Gate::WayPoints {
            p: waypoint_probability(n, k, c),
        },
    };
    let root = xp.root();
    let mut engine = Engine::<V> {
        xp: &mut xp,
        k,
        threshold: component_threshold(n, k),
        gate,
        variant: PhantomData,
    };
    engine.solve(root)
}

/// The deterministic `RecursiveHTHC` solver (Algorithm 2, Proposition 5.12):
/// distance `O(k·n^{1/k})`, volume `Θ̃(n)`.
#[derive(Clone, Copy, Debug)]
pub struct DeterministicSolver {
    /// The hierarchy parameter `k`.
    pub k: u32,
}

/// The randomized way-point solver (Proposition 5.14): volume
/// `O(n^{1/k} · log^{O(k)} n)` with high probability.
#[derive(Clone, Copy, Debug)]
pub struct RandomizedSolver {
    /// The hierarchy parameter `k`.
    pub k: u32,
    /// The way-point density constant `c` in `p = c·log₂(n)/n^{1/k}`
    /// (the paper's analysis works for `c ≥ 3`).
    pub c: f64,
}

impl RandomizedSolver {
    /// Way-point solver with the default density constant.
    pub fn new(k: u32) -> Self {
        Self { k, c: 4.0 }
    }
}

/// Shared threshold `2·⌈n^{1/k}⌉` (Definition 5.10 / Algorithm 2).
pub(crate) fn component_threshold(n: usize, k: u32) -> usize {
    (2.0 * (n.max(2) as f64).powf(1.0 / f64::from(k)).ceil()) as usize
}

/// The way-point probability `p = min(1, c·log₂(n)/n^{1/k})` of the
/// randomized Hierarchical- and Hybrid-THC solvers (Lemmas 5.16 and 5.18
/// need `c ≥ 3`).
pub fn waypoint_probability(n: usize, k: u32, c: f64) -> f64 {
    let n = n.max(2) as f64;
    (c * n.log2() / n.powf(1.0 / f64::from(k))).min(1.0)
}

impl QueryAlgorithm for DeterministicSolver {
    type Output = ThcColor;

    fn name(&self) -> &'static str {
        "hierarchical-thc/deterministic"
    }

    fn fold_identity(&self, h: &mut vc_ident::IdHasher) {
        h.text(self.name());
        h.word(u64::from(self.k));
    }

    fn fallback(&self) -> ThcColor {
        ThcColor::D
    }

    fn run(
        &self,
        oracle: &mut dyn Oracle,
        scratch: &mut SolverScratch,
    ) -> Result<ThcColor, QueryError> {
        run_engine::<Hierarchical>(oracle, scratch, self.k, None)
    }
}

impl QueryAlgorithm for RandomizedSolver {
    type Output = ThcColor;

    fn name(&self) -> &'static str {
        "hierarchical-thc/way-points"
    }

    fn fold_identity(&self, h: &mut vc_ident::IdHasher) {
        h.text(self.name());
        h.word(u64::from(self.k));
        h.word(self.c.to_bits());
    }

    fn fallback(&self) -> ThcColor {
        ThcColor::D
    }

    fn run(
        &self,
        oracle: &mut dyn Oracle,
        scratch: &mut SolverScratch,
    ) -> Result<ThcColor, QueryError> {
        run_engine::<Hierarchical>(oracle, scratch, self.k, Some(self.c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lcl::check_solution;
    use vc_graph::gen;
    use vc_model::run::{run_all, RunConfig};
    use vc_model::RandomTape;

    fn rand_config(seed: u64) -> RunConfig {
        RunConfig {
            tape: Some(RandomTape::private(seed)),
            ..RunConfig::default()
        }
    }

    #[test]
    fn deterministic_solver_valid_on_balanced_instances() {
        for k in 1..=3u32 {
            for seed in 0..3 {
                let inst = gen::hierarchical(gen::HierarchicalParams {
                    k,
                    backbone_len: 4,
                    seed,
                });
                let problem = HierarchicalThc::new(k);
                let report =
                    run_all(&inst, &DeterministicSolver { k }, &RunConfig::default()).unwrap();
                let outputs = report.complete_outputs().unwrap();
                assert!(
                    check_solution(&problem, &inst, &outputs).is_ok(),
                    "k={k} seed={seed}: {:?}",
                    check_solution(&problem, &inst, &outputs)
                );
            }
        }
    }

    #[test]
    fn deterministic_solver_valid_on_cycle_instances() {
        let inst = gen::hierarchical_with_cycle(gen::HierarchicalParams {
            k: 2,
            backbone_len: 5,
            seed: 3,
        });
        let problem = HierarchicalThc::new(2);
        let report = run_all(&inst, &DeterministicSolver { k: 2 }, &RunConfig::default()).unwrap();
        let outputs = report.complete_outputs().unwrap();
        assert!(check_solution(&problem, &inst, &outputs).is_ok());
    }

    #[test]
    fn shallow_components_color_unanimously() {
        let inst = gen::hierarchical(gen::HierarchicalParams {
            k: 2,
            backbone_len: 3,
            seed: 1,
        });
        // n = 12, threshold = 2·⌈√12⌉ = 8 ≥ 3: all components shallow, so
        // every node outputs a color — no D, no X.
        let report = run_all(&inst, &DeterministicSolver { k: 2 }, &RunConfig::default()).unwrap();
        let outputs = report.complete_outputs().unwrap();
        assert!(outputs.iter().all(|c| c.is_color()));
        assert!(check_solution(&HierarchicalThc::new(2), &inst, &outputs).is_ok());
    }

    #[test]
    fn deep_level1_path_declines() {
        // A single long level-1 path evaluated with k = 2: the path is deep
        // (300 > 2·⌈√300⌉ = 36), so every node declines.
        let inst = gen::hierarchical(gen::HierarchicalParams {
            k: 1,
            backbone_len: 300,
            seed: 2,
        });
        let problem = HierarchicalThc::new(2);
        let report = run_all(&inst, &DeterministicSolver { k: 2 }, &RunConfig::default()).unwrap();
        let outputs = report.complete_outputs().unwrap();
        assert!(outputs.iter().all(|&c| c == ThcColor::D));
        assert!(check_solution(&problem, &inst, &outputs).is_ok());
    }

    #[test]
    fn deep_balanced_instance_uses_exemptions_and_validates() {
        // Large enough that backbones (≈ n^{1/2}) exceed the threshold ...
        // here backbone_len L with n = L + L², threshold = 2⌈√n⌉ ≈ 2L, so
        // balanced instances are always shallow for k=2. Deep behavior needs
        // skew: a long level-2 backbone with unit level-1 components.
        let inst = skewed_instance(200, 4);
        let problem = HierarchicalThc::new(2);
        let report = run_all(&inst, &DeterministicSolver { k: 2 }, &RunConfig::default()).unwrap();
        let outputs = report.complete_outputs().unwrap();
        let check = check_solution(&problem, &inst, &outputs);
        assert!(check.is_ok(), "{check:?}");
        // The top backbone is deep (200 > 2⌈√400⌉ = 40) and every level-1
        // component is trivially shallow → every level-2 node is exempt.
        let lvl = structure::levels_capped(&inst, 2);
        assert!((0..inst.n())
            .filter(|&v| lvl[v] == 2)
            .all(|v| outputs[v] == ThcColor::X));
    }

    /// A skewed k=2 instance: a level-2 backbone of length `len` whose RC
    /// components are single level-1 nodes.
    fn skewed_instance(len: usize, _seed: u64) -> Instance {
        // Build directly: backbone of `len`, each with one level-1 child.
        let mut b = vc_graph::GraphBuilder::new();
        let mut labels = Vec::new();
        let mut prev: Option<usize> = None;
        for i in 0..len {
            let v = b.add_node_with_id((2 * i + 1) as u64);
            labels.push(vc_graph::NodeLabel::empty().with_color(if i % 3 == 0 {
                Color::R
            } else {
                Color::B
            }));
            let c = b.add_node_with_id((2 * i + 2) as u64);
            labels.push(vc_graph::NodeLabel::empty().with_color(Color::B));
            let (pv, pc) = b.connect_auto(v, c).unwrap();
            labels[v].right_child = Some(pv);
            labels[c].parent = Some(pc);
            if let Some(p) = prev {
                let (pp, pv2) = b.connect_auto(p, v).unwrap();
                labels[p].left_child = Some(pp);
                labels[v].parent = Some(pv2);
            }
            prev = Some(v);
        }
        Instance::new(b.build().unwrap(), labels)
    }

    #[test]
    fn randomized_solver_valid_whp_on_balanced_instances() {
        for seed in 0..3 {
            let inst = gen::hierarchical_for_size(2, 900, seed);
            let problem = HierarchicalThc::new(2);
            let report = run_all(&inst, &RandomizedSolver::new(2), &rand_config(seed)).unwrap();
            let outputs = report.complete_outputs().unwrap();
            assert!(
                check_solution(&problem, &inst, &outputs).is_ok(),
                "seed {seed}: {:?}",
                check_solution(&problem, &inst, &outputs)
            );
        }
    }

    #[test]
    fn randomized_solver_valid_on_skewed_instances() {
        let inst = skewed_instance(300, 9);
        let problem = HierarchicalThc::new(2);
        let report = run_all(&inst, &RandomizedSolver::new(2), &rand_config(5)).unwrap();
        let outputs = report.complete_outputs().unwrap();
        let check = check_solution(&problem, &inst, &outputs);
        assert!(check.is_ok(), "{check:?}");
    }

    #[test]
    fn randomized_volume_not_worse_than_deterministic() {
        let inst = gen::hierarchical_for_size(2, 3000, 11);
        let starts = vc_model::StartSelection::Sample { count: 40, seed: 1 };
        let det = run_all(
            &inst,
            &DeterministicSolver { k: 2 },
            &RunConfig {
                starts,
                exact_distance: false,
                ..RunConfig::default()
            },
        )
        .unwrap();
        let rnd = run_all(
            &inst,
            &RandomizedSolver::new(2),
            &RunConfig {
                tape: Some(RandomTape::private(11)),
                starts,
                exact_distance: false,
                ..RunConfig::default()
            },
        )
        .unwrap();
        assert!(rnd.summary().max_volume <= det.summary().max_volume);
    }

    #[test]
    fn checker_rejects_bad_outputs() {
        let inst = gen::hierarchical(gen::HierarchicalParams {
            k: 2,
            backbone_len: 3,
            seed: 1,
        });
        let problem = HierarchicalThc::new(2);
        let outputs = vec![ThcColor::D; inst.n()];
        let err = check_solution(&problem, &inst, &outputs).unwrap_err();
        assert_eq!(err.rule, "5.5:5:top-palette");
        let outputs = vec![ThcColor::X; inst.n()];
        let err = check_solution(&problem, &inst, &outputs).unwrap_err();
        assert_eq!(err.rule, "5.5:3a:level1-palette");
    }

    #[test]
    fn checker_enforces_level1_unanimity() {
        let inst = gen::hierarchical(gen::HierarchicalParams {
            k: 1,
            backbone_len: 4,
            seed: 9,
        });
        let problem = HierarchicalThc::new(1);
        let report = run_all(&inst, &DeterministicSolver { k: 1 }, &RunConfig::default()).unwrap();
        let mut outputs = report.complete_outputs().unwrap();
        assert!(check_solution(&problem, &inst, &outputs).is_ok());
        let lvl = structure::levels_capped(&inst, 1);
        let v = (0..inst.n())
            .find(|&v| lvl[v] == 1 && lc_strict(&inst, v).is_some())
            .unwrap();
        outputs[v] = match outputs[v] {
            ThcColor::R => ThcColor::B,
            _ => ThcColor::R,
        };
        assert!(check_solution(&problem, &inst, &outputs).is_err());
    }

    #[test]
    fn threshold_formula() {
        assert_eq!(component_threshold(100, 2), 20);
        assert_eq!(component_threshold(100, 1), 200);
        assert!(component_threshold(1000, 3) >= 20);
        assert!(waypoint_probability(16, 2, 4.0) >= 1.0);
        assert!(waypoint_probability(1_000_000, 2, 4.0) < 0.1);
    }

    #[test]
    #[should_panic]
    fn zero_k_rejected() {
        let _ = HierarchicalThc::new(0);
    }
}
