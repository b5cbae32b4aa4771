//! Integration: the full LeafColoring pipeline — generate → solve (both
//! solvers) → check → measure → fit — across instance families, including
//! property-based sweeps over seeds and shapes.

use vc_bench::{distance_series, for_cases, sweep_config, volume_series};
use vc_core::lcl::{check_solution, count_violations};
use vc_core::problems::leaf_coloring::{DistanceSolver, LeafColoring, RwToLeaf};
use vc_graph::{gen, Color};
use vc_model::run::{run_all, RunConfig};
use vc_model::RandomTape;
use vc_stats::fit::{fit_complexity as fit, ComplexityClass};

fn rand_config(seed: u64) -> RunConfig {
    RunConfig {
        tape: Some(RandomTape::private(seed)),
        ..RunConfig::default()
    }
}

#[test]
fn both_solvers_valid_on_all_families() {
    for seed in 0..3u64 {
        let families: Vec<(&str, vc_graph::Instance)> = vec![
            ("complete", gen::complete_binary_tree(6, Color::R, Color::B)),
            ("random", gen::random_full_binary_tree(300, seed)),
            ("pseudo", gen::pseudo_tree(300, 6, seed)),
        ];
        for (name, inst) in families {
            let det = run_all(&inst, &DistanceSolver, &RunConfig::default()).unwrap();
            let det_out = det.complete_outputs().unwrap();
            assert!(
                check_solution(&LeafColoring, &inst, &det_out).is_ok(),
                "{name}/{seed} deterministic"
            );
            let rnd = run_all(&inst, &RwToLeaf::default(), &rand_config(seed)).unwrap();
            let rnd_out = rnd.complete_outputs().unwrap();
            assert!(
                check_solution(&LeafColoring, &inst, &rnd_out).is_ok(),
                "{name}/{seed} randomized"
            );
        }
    }
}

#[test]
fn measured_classes_match_table_1() {
    // A small version of the Table 1 sweep, asserted end to end.
    let mut dist_pts = Vec::new();
    let mut rvol_pts = Vec::new();
    let mut dvol_pts = Vec::new();
    for depth in 7..=11u32 {
        let inst = gen::complete_binary_tree(depth, Color::R, Color::B);
        let cfg = sweep_config(inst.n(), None);
        // The tree root is the extremal start; include it explicitly when
        // the sweep samples.
        let m =
            vc_bench::measure_with_roots(Some(&LeafColoring), &inst, &DistanceSolver, &cfg, &[0]);
        dist_pts.push(m.clone());
        dvol_pts.push(m);
        let rcfg = sweep_config(inst.n(), Some(RandomTape::private(depth.into())));
        rvol_pts.push(vc_bench::measure_with_roots(
            Some(&LeafColoring),
            &inst,
            &RwToLeaf::default(),
            &rcfg,
            &[0],
        ));
    }
    for m in dist_pts.iter().chain(&rvol_pts) {
        // Validity is only re-checked on exhaustive (small-n) sweeps.
        assert!(m.violations.unwrap_or(0) == 0);
    }
    assert_eq!(fit(&distance_series(&dist_pts)).class, ComplexityClass::Log);
    assert_eq!(fit(&volume_series(&rvol_pts)).class, ComplexityClass::Log);
    assert_eq!(
        fit(&volume_series(&dvol_pts)).class,
        ComplexityClass::Linear
    );
}

#[test]
fn unique_solution_on_hidden_leaf_instances() {
    // Prop. 3.12: the only valid output is the leaf color everywhere.
    for chi0 in [Color::R, Color::B] {
        let inst = gen::complete_binary_tree(5, Color::R, chi0);
        let report = run_all(&inst, &DistanceSolver, &RunConfig::default()).unwrap();
        let outputs = report.complete_outputs().unwrap();
        assert!(outputs.iter().all(|&c| c == chi0));
        // Any deviation at an internal node is caught.
        let mut bad = outputs.clone();
        bad[0] = chi0.flip();
        assert!(check_solution(&LeafColoring, &inst, &bad).is_err());
    }
}

// Seeded property loops: each case draws its inputs from `vc_bench::CaseRng`.

/// Both solvers produce checker-valid labelings on arbitrary random
/// full binary trees and pseudo-trees.
#[test]
fn prop_solvers_always_valid() {
    for_cases(16, |rng| {
        let n = rng.pick(20..200) as usize;
        let cyc = rng.pick(3..9) as usize;
        let seed = rng.pick(0..5000);
        let tree = gen::random_full_binary_tree(n, seed);
        let det = run_all(&tree, &DistanceSolver, &RunConfig::default()).unwrap();
        let det_outputs = det.complete_outputs().unwrap();
        assert_eq!(
            count_violations(&LeafColoring, &tree, &det_outputs),
            0,
            "n {n} seed {seed}"
        );

        let pseudo = gen::pseudo_tree(n, cyc, seed);
        let rnd = run_all(&pseudo, &RwToLeaf::default(), &rand_config(seed)).unwrap();
        let rnd_outputs = rnd.complete_outputs().unwrap();
        assert_eq!(
            count_violations(&LeafColoring, &pseudo, &rnd_outputs),
            0,
            "n {n} cyc {cyc} seed {seed}"
        );
    });
}

/// RWtoLeaf volume stays well below n on trees that are large enough
/// for the asymptotics to bite.
#[test]
fn prop_rw_volume_sublinear() {
    let inst = gen::complete_binary_tree(10, Color::R, Color::B);
    for_cases(16, |rng| {
        let seed = rng.pick(0..100);
        let report = run_all(&inst, &RwToLeaf::default(), &rand_config(seed)).unwrap();
        assert!(report.summary().max_volume < inst.n() / 8, "seed {seed}");
        assert_eq!(report.truncated(), 0, "seed {seed}");
    });
}
