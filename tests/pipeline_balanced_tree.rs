//! Integration: BalancedTree — generate (compatible / defective /
//! disjointness-embedded) → solve → check, with property-based sweeps over
//! arbitrary disjointness inputs.

use vc_bench::for_cases;
use vc_core::lcl::check_solution;
use vc_core::output::BtFlag;
use vc_core::problems::balanced_tree::{is_compatible, BalancedTree, DistanceSolver};
use vc_graph::gen;
use vc_graph::structure;
use vc_model::run::{run_all, RunConfig};

#[test]
fn compatible_instances_go_all_balanced() {
    for depth in 1..=6u32 {
        let (inst, meta) = gen::balanced_tree_compatible(depth);
        let report = run_all(&inst, &DistanceSolver, &RunConfig::default()).unwrap();
        let outputs = report.complete_outputs().unwrap();
        assert!(check_solution(&BalancedTree, &inst, &outputs).is_ok());
        assert!(outputs.iter().all(|o| o.flag == BtFlag::Balanced));
        assert_eq!(outputs[meta.root].port, None);
    }
}

#[test]
fn unbalanced_instances_report_u_at_the_root() {
    for depth in 2..=5u32 {
        let (inst, meta) = gen::unbalanced_tree(depth);
        let report = run_all(&inst, &DistanceSolver, &RunConfig::default()).unwrap();
        let outputs = report.complete_outputs().unwrap();
        assert!(
            check_solution(&BalancedTree, &inst, &outputs).is_ok(),
            "depth {depth}"
        );
        assert_eq!(outputs[meta.root].flag, BtFlag::Unbalanced);
    }
}

#[test]
fn distance_stays_logarithmic_volume_linear() {
    let (inst, meta) = gen::balanced_tree_compatible(9); // n = 1023
    let report = run_all(&inst, &DistanceSolver, &RunConfig::default()).unwrap();
    let s = report.summary();
    assert!(s.max_distance <= 9 + 3);
    let root_rec = report.records.iter().find(|r| r.root == meta.root).unwrap();
    assert!(root_rec.volume > inst.n() / 2, "the root must see Θ(n)");
}

// Seeded property loops: each case draws its inputs from `vc_bench::CaseRng`.

/// Soundness of the embedding + validity of the solver on arbitrary
/// (not just promise) disjointness inputs.
#[test]
fn prop_embedding_pipeline() {
    for_cases(24, |rng| {
        let (x, y): (Vec<bool>, Vec<bool>) = (0..8).map(|_| (rng.coin(), rng.coin())).unzip();
        let (inst, meta) = gen::disjointness_embedding(&x, &y);
        // Exactly the intersecting v_i are incompatible.
        for (i, &vi) in meta.penultimate.iter().enumerate() {
            assert_eq!(is_compatible(&inst, vi), !(x[i] && y[i]), "x {x:?} y {y:?}");
        }
        let report = run_all(&inst, &DistanceSolver, &RunConfig::default()).unwrap();
        let outputs = report.complete_outputs().unwrap();
        assert!(check_solution(&BalancedTree, &inst, &outputs).is_ok());
        let disjoint = !x.iter().zip(&y).any(|(&a, &b)| a && b);
        assert_eq!(outputs[meta.root].flag == BtFlag::Balanced, disjoint);
    });
}

/// Corrupting any single lateral label of a compatible instance is
/// detected: the labeling is no longer all-compatible.
#[test]
fn prop_label_corruption_detected() {
    for_cases(24, |rng| {
        let node_sel = rng.pick(0..100) as usize;
        let kill_ln = rng.coin();
        let (mut inst, _) = gen::balanced_tree_compatible(4);
        // Pick a consistent node with a lateral label to erase.
        let candidates: Vec<usize> = (0..inst.n())
            .filter(|&v| structure::status(&inst, v, &|_| true).is_consistent())
            .filter(|&v| {
                if kill_ln {
                    inst.labels[v].left_nbr.is_some()
                } else {
                    inst.labels[v].right_nbr.is_some()
                }
            })
            .collect();
        if candidates.is_empty() {
            return;
        }
        let v = candidates[node_sel % candidates.len()];
        if kill_ln {
            inst.labels[v].left_nbr = None;
        } else {
            inst.labels[v].right_nbr = None;
        }
        // Some consistent node must now be incompatible (agreement breaks
        // at the lateral partner, or siblings at the parent).
        let any_incompatible = (0..inst.n())
            .filter(|&u| structure::status(&inst, u, &|_| true).is_consistent())
            .any(|u| !is_compatible(&inst, u));
        assert!(any_incompatible, "node_sel {node_sel} kill_ln {kill_ln}");
        // And the solver still produces a checker-valid labeling.
        let report = run_all(&inst, &DistanceSolver, &RunConfig::default()).unwrap();
        let outputs = report.complete_outputs().unwrap();
        assert!(check_solution(&BalancedTree, &inst, &outputs).is_ok());
    });
}
