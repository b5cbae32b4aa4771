//! Integration: the CONGEST simulators and algorithms (§7.3) and the
//! classic problems populating the landscape figures.

use vc_bench::for_cases;
use vc_core::congest::{BitTransfer, BtFlood, GadgetQuery};
use vc_core::lcl::check_solution;
use vc_core::problems::balanced_tree::BalancedTree;
use vc_core::problems::classic::{ColeVishkin, CycleColoring};
use vc_graph::gen;
use vc_model::congest::run_congest;
use vc_model::run::{run_all, RunConfig};

#[test]
fn bt_flood_agrees_with_checker_across_families() {
    for depth in 2..=6u32 {
        let (inst, _) = gen::balanced_tree_compatible(depth);
        let report = run_congest::<BtFlood>(&inst, 160, 1000).unwrap();
        assert!(
            check_solution(&BalancedTree, &inst, &report.outputs).is_ok(),
            "compatible depth {depth}"
        );
    }
    for depth in 2..=5u32 {
        let (inst, _) = gen::unbalanced_tree(depth);
        let report = run_congest::<BtFlood>(&inst, 160, 1000).unwrap();
        assert!(
            check_solution(&BalancedTree, &inst, &report.outputs).is_ok(),
            "unbalanced depth {depth}"
        );
    }
}

#[test]
fn bt_flood_rounds_are_logarithmic() {
    let mut last = 0usize;
    for depth in 3..=8u32 {
        let (inst, _) = gen::balanced_tree_compatible(depth);
        let report = run_congest::<BtFlood>(&inst, 160, 1000).unwrap();
        assert!(report.rounds >= last);
        assert!(
            report.rounds <= 20 + 2 * depth as usize,
            "depth {depth}: {} rounds",
            report.rounds
        );
        last = report.rounds;
    }
}

#[test]
fn bit_transfer_round_lower_bound_shape() {
    // Rounds must be at least #bits / (entries per round) — everything
    // crosses the bridge.
    let bits: Vec<bool> = (0..64).map(|i| i % 2 == 0).collect();
    let (inst, _) = gen::two_tree_gadget(6, &bits);
    let report = run_congest::<BitTransfer>(&inst, 35, 100_000).unwrap();
    assert!(report.rounds >= 64, "rounds {}", report.rounds);
    // Observation 7.5: wider links cut the rounds.
    let medium = run_congest::<BitTransfer>(&inst, 140, 100_000).unwrap();
    let wide = run_congest::<BitTransfer>(&inst, 560, 100_000).unwrap();
    let rounds = [report.rounds, medium.rounds, wide.rounds];
    assert!(
        rounds[0] > rounds[1] && rounds[1] > rounds[2],
        "rounds {rounds:?}"
    );
    // And the query model stays logarithmic on the same instance.
    let q = run_all(&inst, &GadgetQuery, &RunConfig::default()).unwrap();
    assert!(q.summary().max_volume <= 2 * 6 + 3);
}

// Seeded property loops: each case draws its inputs from `vc_bench::CaseRng`.

/// Bit transfer delivers arbitrary bit vectors intact.
#[test]
fn prop_bit_transfer_correct() {
    for_cases(12, |rng| {
        let bits: Vec<bool> = (0..16).map(|_| rng.coin()).collect();
        let (inst, meta) = gen::two_tree_gadget(4, &bits);
        let report = run_congest::<BitTransfer>(&inst, 68, 10_000).unwrap();
        for (i, &u) in meta.u_leaves.iter().enumerate() {
            assert_eq!(report.outputs[u], Some(bits[i]), "bits {bits:?}");
        }
    });
}

/// Cole–Vishkin properly 3-colors arbitrary cycles.
#[test]
fn prop_cole_vishkin() {
    for_cases(12, |rng| {
        let n = rng.pick(3..200) as usize;
        let seed = rng.pick(0..500);
        let inst = gen::directed_cycle(n, seed);
        let report = run_all(&inst, &ColeVishkin, &RunConfig::default()).unwrap();
        let outputs = report.complete_outputs().unwrap();
        assert!(
            check_solution(&CycleColoring, &inst, &outputs).is_ok(),
            "n {n} seed {seed}"
        );
    });
}
