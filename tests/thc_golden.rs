//! Golden digests for the three THC problems (paper §5–6).
//!
//! Each test folds a family of exact results through `vc_ident::IdHasher`
//! and compares the digest with a hard-coded value:
//!
//! * **solver runs** — every output and every execution record (volume,
//!   distance, queries, random bits, completion) of every Hierarchical-,
//!   Hybrid- and HH-THC solver, on balanced, cycle, deep and skewed
//!   instances, with and without a query budget;
//! * **checker verdicts** — the `check_node` result (node and rule name) at
//!   every node, on seeded mutations of valid outputs;
//! * **instance ids** — the content address of every generator shape.
//!
//! A refactor of the solvers, the checkers or the generators must keep
//! every digest. A digest that moves is a behavior change.

use std::fmt::Display;
use vc_bench::{for_cases, CaseRng};
use vc_core::lcl::Lcl;
use vc_core::output::{BtOutput, HybridOutput, ThcColor};
use vc_core::problems::{hh, hierarchical, hybrid};
use vc_graph::{gen, Color, GraphBuilder, Instance, NodeLabel, Port};
use vc_ident::IdHasher;
use vc_model::run::{run_all, QueryAlgorithm, RunConfig};
use vc_model::{Budget, RandomTape};

/// Renders a digest and compares it with the pinned value.
fn assert_digest(what: &str, h: IdHasher, want: &str) {
    let got = format!("{:016x}", h.finish());
    assert_eq!(got, want, "{what}: digest moved");
}

/// The run configurations every solver is swept under: unlimited and
/// query-budgeted, each with a private tape seeded by `seed`.
fn configs(seed: u64) -> [RunConfig; 2] {
    let full = RunConfig {
        tape: Some(RandomTape::private(seed)),
        ..RunConfig::default()
    };
    let cut = RunConfig {
        budget: Budget {
            max_queries: Some(60),
            ..Budget::unlimited()
        },
        ..full
    };
    [full, cut]
}

/// Folds the solver's identity, then every output and execution record of
/// a full sweep of `inst` under each of [`configs`].
fn fold_runs<A>(h: &mut IdHasher, inst: &Instance, algo: &A, seed: u64)
where
    A: QueryAlgorithm,
    A::Output: Display,
{
    algo.fold_identity(h);
    for config in configs(seed) {
        let report = run_all(inst, algo, &config).expect("full sweeps always start");
        for out in &report.outputs {
            h.text(&out.as_ref().map_or("-".to_string(), ToString::to_string));
        }
        for r in &report.records {
            h.words(&[r.root as u64, r.volume as u64, u64::from(r.distance_upper)]);
            h.opt_word(r.distance.map(u64::from));
            h.words(&[r.queries, r.random_bits]);
            h.flag(r.completed);
        }
    }
}

/// A Hierarchical-THC(2) instance with a level-2 backbone of `len` nodes
/// longer than the `2⌈√n⌉` threshold. Every `deep_every`-th backbone node
/// carries a level-1 path of `deep_len` nodes; the others a single node.
fn skewed_hierarchical(len: usize, deep_every: usize, deep_len: usize) -> Instance {
    let mut b = GraphBuilder::new();
    let mut labels: Vec<NodeLabel> = Vec::new();
    let mut add = |b: &mut GraphBuilder, color, up: Option<(usize, bool)>| {
        let v = b.add_node_with_id(labels.len() as u64 + 1);
        labels.push(NodeLabel::empty().with_color(color));
        if let Some((p, right)) = up {
            let (pp, pv) = b.connect_auto(p, v).unwrap();
            if right {
                labels[p].right_child = Some(pp);
            } else {
                labels[p].left_child = Some(pp);
            }
            labels[v].parent = Some(pv);
        }
        v
    };
    let mut prev = None;
    for i in 0..len {
        let color = if i % 3 == 0 { Color::R } else { Color::B };
        let v = add(&mut b, color, prev.map(|p| (p, false)));
        let path_len = if i % deep_every == 0 { deep_len } else { 1 };
        let mut up = (v, true);
        for j in 0..path_len {
            let color = if (i + j) % 4 == 0 { Color::B } else { Color::R };
            up = (add(&mut b, color, Some(up)), false);
        }
        prev = Some(v);
    }
    Instance::new(b.build().unwrap(), labels)
}

/// Skewed Hybrid-THC(2) instances: level-2 backbones longer than
/// `2⌈√n⌉` over depth-1 BalancedTrees. The only shape on which the
/// way-point gate and the level-2 license decide outputs.
fn skewed_hybrid(backbone_len: usize, seed: u64) -> Instance {
    gen::hybrid(gen::HybridParams {
        k: 2,
        backbone_len,
        bt_depth: 1,
        seed,
    })
}

fn hierarchical_solvers(h: &mut IdHasher, inst: &Instance, k: u32, seed: u64) {
    fold_runs(h, inst, &hierarchical::DeterministicSolver { k }, seed);
    fold_runs(h, inst, &hierarchical::RandomizedSolver::new(k), seed);
    fold_runs(h, inst, &hierarchical::RandomizedSolver { k, c: 0.3 }, seed);
}

fn hybrid_solvers(h: &mut IdHasher, inst: &Instance, k: u32, seed: u64) {
    fold_runs(h, inst, &hybrid::DistanceSolver, seed);
    fold_runs(h, inst, &hybrid::DeterministicVolumeSolver { k }, seed);
    fold_runs(h, inst, &hybrid::RandomizedSolver::new(k), seed);
    fold_runs(h, inst, &hybrid::RandomizedSolver { k, c: 0.3 }, seed);
}

#[test]
fn hierarchical_solver_runs_are_pinned() {
    let mut h = IdHasher::new("thc-golden/hierarchical-runs");
    for k in 1..=3u32 {
        let inst = gen::hierarchical(gen::HierarchicalParams {
            k,
            backbone_len: 4,
            seed: u64::from(k),
        });
        hierarchical_solvers(&mut h, &inst, k, 7);
    }
    let inst = gen::hierarchical_for_size(2, 400, 5);
    hierarchical_solvers(&mut h, &inst, 2, 1);
    for k in 2..=3u32 {
        let inst = gen::hierarchical_with_cycle(gen::HierarchicalParams {
            k,
            backbone_len: 5,
            seed: 3,
        });
        hierarchical_solvers(&mut h, &inst, k, 2);
    }
    // A deep level-1 path under a k = 2 solver: 120 > 2⌈√120⌉ = 22.
    let inst = gen::hierarchical(gen::HierarchicalParams {
        k: 1,
        backbone_len: 120,
        seed: 2,
    });
    hierarchical_solvers(&mut h, &inst, 2, 3);
    // Skewed: every level-1 component shallow, then one in six deep
    // (140 > 2⌈√3775⌉ = 124), under the top-level and a mid-level solver.
    for (len, deep_every, deep_len, seed) in [(160, 1000, 1, 4), (150, 6, 140, 5)] {
        let inst = skewed_hierarchical(len, deep_every, deep_len);
        for k in 2..=3 {
            hierarchical_solvers(&mut h, &inst, k, seed);
        }
    }
    assert_digest("hierarchical runs", h, "482bf06e524e382b");
}

#[test]
fn hybrid_solver_runs_are_pinned() {
    let mut h = IdHasher::new("thc-golden/hybrid-runs");
    for (len, seed) in [(40, 1), (90, 2), (150, 3)] {
        for k in 2..=3 {
            hybrid_solvers(&mut h, &skewed_hybrid(len, seed), k, seed);
        }
    }
    for k in 2..=3u32 {
        hybrid_solvers(&mut h, &gen::hybrid_for_size(k, 300, 4), k, 5);
    }
    hybrid_solvers(&mut h, &gen::hybrid_with_one_heavy(2, 300, 6), 2, 6);
    assert_digest("hybrid runs", h, "f02d0603b6437d19");
}

#[test]
fn hh_solver_runs_are_pinned() {
    let mut h = IdHasher::new("thc-golden/hh-runs");
    for (k, l, seed) in [(2, 2, 1), (2, 3, 2)] {
        let inst = gen::hh(k, l, 500, seed);
        fold_runs(&mut h, &inst, &hh::DistanceSolver { k, l }, seed);
        fold_runs(&mut h, &inst, &hh::RandomizedSolver { k, l }, seed);
        fold_runs(&mut h, &inst, &hh::DeterministicVolumeSolver { k, l }, seed);
    }
    assert_digest("hh runs", h, "97b625a0ba1c0afa");
}

/// Folds the verdict of `check_node` at every node of `inst` for
/// `cases` seeded mutations of `valid`: each case overwrites one to four
/// nodes with symbols drawn by `draw`.
fn fold_verdicts<P: Lcl>(
    h: &mut IdHasher,
    problem: &P,
    inst: &Instance,
    valid: &[P::Output],
    cases: u64,
    draw: impl Fn(&mut CaseRng) -> P::Output,
) {
    for_cases(cases, |rng| {
        let mut outputs = valid.to_vec();
        for _ in 0..rng.pick(1..5) {
            let v = rng.pick(0..inst.n() as u64) as usize;
            outputs[v] = draw(rng);
        }
        for v in 0..inst.n() {
            match problem.check_node(inst, &outputs, v) {
                Ok(()) => h.word(0),
                Err(e) => {
                    h.words(&[1, e.node as u64]);
                    h.text(e.rule);
                }
            }
        }
    });
}

fn draw_sym(rng: &mut CaseRng) -> ThcColor {
    [ThcColor::R, ThcColor::B, ThcColor::D, ThcColor::X][rng.pick(0..4) as usize]
}

fn draw_hybrid(rng: &mut CaseRng) -> HybridOutput {
    if rng.coin() {
        return HybridOutput::Sym(draw_sym(rng));
    }
    let port = match rng.pick(0..4) {
        0 => None,
        p => Some(Port::new(p as u8)),
    };
    HybridOutput::Pair(if rng.coin() {
        BtOutput::balanced(port)
    } else {
        BtOutput::unbalanced(port)
    })
}

/// The outputs of a full deterministic sweep.
fn solve<A: QueryAlgorithm>(inst: &Instance, algo: &A) -> Vec<A::Output> {
    run_all(inst, algo, &RunConfig::default())
        .unwrap()
        .complete_outputs()
        .unwrap()
}

#[test]
fn checker_verdicts_are_pinned() {
    let mut h = IdHasher::new("thc-golden/verdicts");
    for k in 1..=3u32 {
        let problem = hierarchical::HierarchicalThc::new(k);
        let mut insts = vec![gen::hierarchical(gen::HierarchicalParams {
            k,
            backbone_len: 3,
            seed: u64::from(k) + 10,
        })];
        if k >= 2 {
            insts.push(gen::hierarchical_with_cycle(gen::HierarchicalParams {
                k,
                backbone_len: 3,
                seed: 11,
            }));
        }
        if k == 2 {
            insts.push(skewed_hierarchical(60, 7, 20));
            insts.push(skewed_hierarchical(40, 4, 50));
        }
        for inst in &insts {
            let valid = solve(inst, &hierarchical::DeterministicSolver { k });
            fold_verdicts(&mut h, &problem, inst, &valid, 40, draw_sym);
        }
    }
    for k in 2..=4u32 {
        let problem = hybrid::HybridThc::new(k);
        let mut insts = vec![gen::hybrid(gen::HybridParams {
            k,
            backbone_len: 2,
            bt_depth: 1,
            seed: u64::from(k),
        })];
        if k == 2 {
            insts.push(skewed_hybrid(40, 9));
            insts.push(gen::hybrid_with_one_heavy(2, 200, 3));
        }
        for inst in &insts {
            let valid = solve(inst, &hybrid::DeterministicVolumeSolver { k });
            fold_verdicts(&mut h, &problem, inst, &valid, 40, draw_hybrid);
            let valid = solve(inst, &hybrid::DistanceSolver);
            fold_verdicts(&mut h, &problem, inst, &valid, 40, draw_hybrid);
        }
    }
    for (k, l) in [(2, 2), (2, 3)] {
        let problem = hh::HhThc::new(k, l);
        let inst = gen::hh(k, l, 200, 4);
        let valid = solve(&inst, &hh::DeterministicVolumeSolver { k, l });
        fold_verdicts(&mut h, &problem, &inst, &valid, 40, draw_hybrid);
    }
    assert_digest("checker verdicts", h, "fc330df9d1ccc96e");
}

#[test]
fn generator_instance_ids_are_pinned() {
    let hier = gen::HierarchicalParams {
        k: 3,
        backbone_len: 4,
        seed: 8,
    };
    let hyb = gen::HybridParams {
        k: 3,
        backbone_len: 3,
        bt_depth: 2,
        seed: 8,
    };
    let shapes: Vec<(&str, Instance, &str)> = vec![
        (
            "complete_binary_tree",
            gen::complete_binary_tree(5, Color::R, Color::B),
            "8bfd1efdae1be6c8",
        ),
        (
            "random_full_binary_tree",
            gen::random_full_binary_tree(101, 3),
            "e6953a2335d8e851",
        ),
        (
            "pseudo_tree",
            gen::pseudo_tree(90, 5, 3),
            "e35f0f8c359ebc76",
        ),
        (
            "random_full_binary_tree n=4095",
            gen::random_full_binary_tree(4095, 3),
            "8bbad72f37187002",
        ),
        (
            "pseudo_tree n=4095",
            gen::pseudo_tree(4095, 17, 3),
            "75f1adcbddb0f003",
        ),
        (
            "balanced_tree_compatible",
            gen::balanced_tree_compatible(4).0,
            "0d28693f03f1caec",
        ),
        (
            "disjointness_embedding",
            gen::disjointness_embedding(&[true, false, true, true], &[true, true, false, true]).0,
            "01caebafb673af76",
        ),
        (
            "unbalanced_tree",
            gen::unbalanced_tree(4).0,
            "d05a3ff887ef9333",
        ),
        ("hierarchical", gen::hierarchical(hier), "7469120717f48e5f"),
        (
            "hierarchical k=1",
            gen::hierarchical(gen::HierarchicalParams { k: 1, ..hier }),
            "763b8c7a4c3db43b",
        ),
        (
            "hierarchical_for_size",
            gen::hierarchical_for_size(2, 500, 9),
            "4a0c41e272bac191",
        ),
        (
            "hierarchical_with_cycle",
            gen::hierarchical_with_cycle(hier),
            "fe8dcc3f5f2bce65",
        ),
        (
            "hierarchical_with_cycle k=1",
            gen::hierarchical_with_cycle(gen::HierarchicalParams { k: 1, ..hier }),
            "e8432466902f9542",
        ),
        ("hybrid", gen::hybrid(hyb), "d08756b8776f14e5"),
        (
            "hybrid_for_size",
            gen::hybrid_for_size(2, 500, 9),
            "a0baa59abf047b35",
        ),
        (
            "hybrid_with_one_heavy",
            gen::hybrid_with_one_heavy(3, 900, 9),
            "a7d64d1c224fca6e",
        ),
        ("hh", gen::hh(2, 3, 600, 9), "c7546efc1de51842"),
        (
            "directed_cycle",
            gen::directed_cycle(17, 9),
            "6e95b4b9e364a155",
        ),
        (
            "two_tree_gadget",
            gen::two_tree_gadget(3, &[true, false, false, true, true, true, false, false]).0,
            "fd964093cfa91f3d",
        ),
    ];
    let got: Vec<String> = shapes
        .iter()
        .map(|(name, inst, _)| format!("{name}: {}", inst.instance_id()))
        .collect();
    let want: Vec<String> = shapes
        .iter()
        .map(|(name, _, id)| format!("{name}: {id}"))
        .collect();
    assert_eq!(got, want);
}
