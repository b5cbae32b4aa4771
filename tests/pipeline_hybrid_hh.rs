//! Integration: Hybrid-THC(k) and HH-THC(k, ℓ) — all solvers on balanced,
//! heavy-component and union families; the headline distance/volume
//! separation is asserted end to end.

use vc_bench::for_cases;
use vc_core::lcl::{check_solution, count_violations};
use vc_core::output::HybridOutput;
use vc_core::problems::{hh, hybrid};
use vc_graph::gen;
use vc_model::run::{run_all, run_from, RunConfig};
use vc_model::RandomTape;
use vc_model::StartSelection;

fn rand_config(seed: u64) -> RunConfig {
    RunConfig {
        tape: Some(RandomTape::private(seed)),
        ..RunConfig::default()
    }
}

#[test]
fn hybrid_all_solvers_valid() {
    for k in [2u32, 3] {
        for seed in 0..2u64 {
            let inst = gen::hybrid_for_size(k, 700, seed);
            let problem = hybrid::HybridThc::new(k);
            let det = run_all(&inst, &hybrid::DistanceSolver, &RunConfig::default()).unwrap();
            assert!(
                check_solution(&problem, &inst, &det.complete_outputs().unwrap()).is_ok(),
                "distance k={k} seed={seed}"
            );
            let rnd =
                run_all(&inst, &hybrid::RandomizedSolver::new(k), &rand_config(seed)).unwrap();
            assert!(
                check_solution(&problem, &inst, &rnd.complete_outputs().unwrap()).is_ok(),
                "randomized k={k} seed={seed}"
            );
            let dv = run_all(
                &inst,
                &hybrid::DeterministicVolumeSolver { k },
                &RunConfig::default(),
            )
            .unwrap();
            assert!(
                check_solution(&problem, &inst, &dv.complete_outputs().unwrap()).is_ok(),
                "det-volume k={k} seed={seed}"
            );
        }
    }
}

#[test]
fn heavy_component_family_separates_det_from_rand_volume() {
    let k = 2u32;
    let inst = gen::hybrid_with_one_heavy(k, 3000, 5);
    let problem = hybrid::HybridThc::new(k);

    // Both solvers must stay valid on the heavy family.
    let det = run_all(&inst, &hybrid::DistanceSolver, &RunConfig::default()).unwrap();
    let det_out = det.complete_outputs().unwrap();
    assert!(
        check_solution(&problem, &inst, &det_out).is_ok(),
        "{:?}",
        check_solution(&problem, &inst, &det_out)
    );
    let rnd = run_all(&inst, &hybrid::RandomizedSolver::new(k), &rand_config(9)).unwrap();
    let rnd_out = rnd.complete_outputs().unwrap();
    assert!(
        check_solution(&problem, &inst, &rnd_out).is_ok(),
        "{:?}",
        check_solution(&problem, &inst, &rnd_out)
    );

    // Deterministic: solving the heavy BalancedTree costs Θ(n); randomized:
    // the way-point solver declines it and stays sublinear.
    assert!(det.summary().max_volume > inst.n() / 4);
    assert!(rnd.summary().max_volume < inst.n() / 8);
    // Both see only logarithmically far.
    assert!(det.summary().max_distance as usize <= 2 * inst.n().ilog2() as usize);
}

#[test]
fn hh_dispatches_and_validates() {
    for (k, l) in [(2u32, 2u32), (2, 3), (3, 3)] {
        let inst = gen::hh(k, l, 600, 4);
        let problem = hh::HhThc::new(k, l);
        for outputs in [
            run_all(&inst, &hh::DistanceSolver { k, l }, &RunConfig::default())
                .unwrap()
                .complete_outputs()
                .unwrap(),
            run_all(&inst, &hh::RandomizedSolver { k, l }, &rand_config(4))
                .unwrap()
                .complete_outputs()
                .unwrap(),
            run_all(
                &inst,
                &hh::DeterministicVolumeSolver { k, l },
                &RunConfig::default(),
            )
            .unwrap()
            .complete_outputs()
            .unwrap(),
        ] {
            assert!(
                check_solution(&problem, &inst, &outputs).is_ok(),
                "k={k} l={l}"
            );
        }
    }
}

#[test]
fn hh_outputs_respect_sides() {
    let inst = gen::hh(2, 3, 400, 8);
    let report = run_all(
        &inst,
        &hh::DistanceSolver { k: 2, l: 3 },
        &RunConfig::default(),
    )
    .unwrap();
    let outputs = report.complete_outputs().unwrap();
    for (v, out) in outputs.iter().enumerate() {
        match inst.labels[v].bit {
            Some(false) => assert!(out.sym().is_some(), "hierarchical side outputs symbols"),
            Some(true) => {
                if inst.labels[v].level == Some(1) {
                    assert!(matches!(out, HybridOutput::Pair(_)));
                }
            }
            None => unreachable!("generator sets every bit"),
        }
    }
}

// Seeded property loops: each case draws its inputs from `vc_bench::CaseRng`.

/// The hybrid randomized solver is valid across seeds, and the level-2
/// exemption license is honored: X at level 2 only over solved pairs.
#[test]
fn prop_hybrid_license() {
    for_cases(10, |rng| {
        let seed = rng.pick(0..500);
        let inst = gen::hybrid_for_size(2, 500, seed);
        let problem = hybrid::HybridThc::new(2);
        let report = run_all(&inst, &hybrid::RandomizedSolver::new(2), &rand_config(seed)).unwrap();
        let outputs = report.complete_outputs().unwrap();
        assert_eq!(
            count_violations(&problem, &inst, &outputs),
            0,
            "seed {seed}"
        );
        for v in 0..inst.n() {
            if inst.labels[v].level == Some(2)
                && outputs[v] == HybridOutput::Sym(vc_core::ThcColor::X)
            {
                let rc = inst.right_child_node(v).unwrap();
                assert!(outputs[rc].is_solved_pair(), "seed {seed} node {v}");
            }
        }
    });
}

/// Single executions from arbitrary nodes agree with the batch run
/// (determinism of the distance solver).
#[test]
fn prop_single_runs_agree() {
    for_cases(10, |rng| {
        let start_sel = rng.pick(0..10_000) as usize;
        let seed = rng.pick(0..50);
        let inst = gen::hybrid_for_size(2, 300, seed);
        let report = run_all(&inst, &hybrid::DistanceSolver, &RunConfig::default()).unwrap();
        let outputs = report.complete_outputs().unwrap();
        let v = start_sel % inst.n();
        let cfg = RunConfig {
            starts: StartSelection::All,
            ..RunConfig::default()
        };
        let (out, _) = run_from(&inst, &hybrid::DistanceSolver, v, &cfg);
        assert_eq!(out, outputs[v], "seed {seed} node {v}");
    });
}
