//! Integration: Hierarchical-THC(k) — balanced, skewed and cyclic
//! families, both solvers, validated end to end; the measured costs match
//! the Θ(n^{1/k}) rows of Table 1.

use vc_bench::{distance_series, for_cases, measure, sweep_config, volume_series};
use vc_core::lcl::{check_solution, count_violations};
use vc_core::problems::hierarchical::{DeterministicSolver, HierarchicalThc, RandomizedSolver};
use vc_graph::gen;
use vc_model::run::{run_all, RunConfig};
use vc_model::RandomTape;
use vc_stats::fit_exponent as loglog_exponent;

fn rand_config(seed: u64) -> RunConfig {
    RunConfig {
        tape: Some(RandomTape::private(seed)),
        ..RunConfig::default()
    }
}

#[test]
fn both_solvers_valid_across_k_and_shapes() {
    for k in 1..=4u32 {
        for len in [2usize, 3, 5] {
            let inst = gen::hierarchical(gen::HierarchicalParams {
                k,
                backbone_len: len,
                seed: u64::from(k) * 10 + len as u64,
            });
            let problem = HierarchicalThc::new(k);
            let det = run_all(&inst, &DeterministicSolver { k }, &RunConfig::default()).unwrap();
            let out = det.complete_outputs().unwrap();
            assert!(
                check_solution(&problem, &inst, &out).is_ok(),
                "det k={k} len={len}: {:?}",
                check_solution(&problem, &inst, &out)
            );
            let rnd = run_all(&inst, &RandomizedSolver::new(k), &rand_config(77)).unwrap();
            let out = rnd.complete_outputs().unwrap();
            assert!(
                check_solution(&problem, &inst, &out).is_ok(),
                "rnd k={k} len={len}"
            );
        }
    }
}

#[test]
fn cycle_backbones_are_handled() {
    for k in 1..=3u32 {
        let inst = gen::hierarchical_with_cycle(gen::HierarchicalParams {
            k,
            backbone_len: 6,
            seed: 3,
        });
        let problem = HierarchicalThc::new(k);
        let det = run_all(&inst, &DeterministicSolver { k }, &RunConfig::default()).unwrap();
        assert!(
            check_solution(&problem, &inst, &det.complete_outputs().unwrap()).is_ok(),
            "k={k}"
        );
    }
}

#[test]
fn distance_exponent_matches_one_over_k() {
    for k in [2u32, 3] {
        let mut pts = Vec::new();
        for (i, n) in [400usize, 900, 2000, 4500, 10_000].iter().enumerate() {
            let inst = gen::hierarchical_for_size(k, *n, i as u64);
            let cfg = sweep_config(inst.n(), None);
            pts.push(measure(
                Some(&HierarchicalThc::new(k)),
                &inst,
                &DeterministicSolver { k },
                &cfg,
            ));
        }
        let alpha = loglog_exponent(&distance_series(&pts));
        assert!(
            (alpha - 1.0 / f64::from(k)).abs() < 0.12,
            "k={k}: measured exponent {alpha}"
        );
    }
}

#[test]
fn randomized_volume_exponent_matches_one_over_k() {
    for k in [2u32, 3] {
        let mut pts = Vec::new();
        for (i, n) in [400usize, 900, 2000, 4500, 10_000].iter().enumerate() {
            let inst = gen::hierarchical_for_size(k, *n, i as u64);
            let cfg = sweep_config(inst.n(), Some(RandomTape::private(50 + i as u64)));
            pts.push(measure(
                Some(&HierarchicalThc::new(k)),
                &inst,
                &RandomizedSolver::new(k),
                &cfg,
            ));
        }
        let alpha = loglog_exponent(&volume_series(&pts));
        assert!(
            (alpha - 1.0 / f64::from(k)).abs() < 0.15,
            "k={k}: measured exponent {alpha}"
        );
    }
}

// Seeded property loops: each case draws its inputs from `vc_bench::CaseRng`.

/// The randomized solver stays valid across random seeds and sizes on
/// the balanced family — the w.h.p. claim of Proposition 5.14.
#[test]
fn prop_waypoints_whp_valid() {
    for_cases(12, |rng| {
        let n = rng.pick(200..1200) as usize;
        let seed = rng.pick(0..1000);
        let inst = gen::hierarchical_for_size(2, n, seed);
        let problem = HierarchicalThc::new(2);
        let report = run_all(&inst, &RandomizedSolver::new(2), &rand_config(seed)).unwrap();
        let outputs = report.complete_outputs().unwrap();
        assert_eq!(
            count_violations(&problem, &inst, &outputs),
            0,
            "n {n} seed {seed}"
        );
    });
}
