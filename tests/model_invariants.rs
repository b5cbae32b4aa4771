//! Integration: model-level invariants across crates — Lemma 2.5 on every
//! execution of every solver, randomness-coupling guarantees, budget
//! semantics, and the volume/distance accounting itself.

use vc_bench::for_cases;
use vc_core::problems::{balanced_tree, hierarchical, leaf_coloring};
use vc_graph::{gen, Color};
use vc_model::run::{run_all, RunConfig};
use vc_model::StartSelection;
use vc_model::{Budget, RandomTape};

/// Lemma 2.5: `DIST ≤ VOL ≤ Δ^DIST + 1` for every recorded execution.
#[test]
fn lemma_2_5_holds_for_every_solver_and_family() {
    let tape = Some(RandomTape::private(3));
    let tree = gen::complete_binary_tree(7, Color::R, Color::B);
    let hier = gen::hierarchical_for_size(2, 600, 1);
    let (bt, _) = gen::balanced_tree_compatible(5);

    let checks: Vec<(&str, &vc_graph::Instance, Vec<vc_model::ExecutionRecord>)> = vec![
        (
            "leaf/det",
            &tree,
            run_all(&tree, &leaf_coloring::DistanceSolver, &RunConfig::default())
                .unwrap()
                .records,
        ),
        (
            "leaf/rw",
            &tree,
            run_all(
                &tree,
                &leaf_coloring::RwToLeaf::default(),
                &RunConfig {
                    tape,
                    ..RunConfig::default()
                },
            )
            .unwrap()
            .records,
        ),
        (
            "bt/det",
            &bt,
            run_all(&bt, &balanced_tree::DistanceSolver, &RunConfig::default())
                .unwrap()
                .records,
        ),
        (
            "hthc/det",
            &hier,
            run_all(
                &hier,
                &hierarchical::DeterministicSolver { k: 2 },
                &RunConfig::default(),
            )
            .unwrap()
            .records,
        ),
    ];
    for (name, inst, records) in checks {
        let delta = inst.graph.max_degree() as u32;
        for rec in records {
            assert!(
                rec.lemma_2_5_holds(delta),
                "{name}: Lemma 2.5 violated at root {} (vol {}, dist {:?})",
                rec.root,
                rec.volume,
                rec.distance
            );
        }
    }
}

#[test]
fn exact_distance_never_exceeds_upper_bound() {
    let inst = gen::pseudo_tree(200, 5, 9);
    let report = run_all(
        &inst,
        &leaf_coloring::RwToLeaf::default(),
        &RunConfig {
            tape: Some(RandomTape::private(4)),
            ..RunConfig::default()
        },
    )
    .unwrap();
    for rec in &report.records {
        let d = rec.distance.expect("exact distance requested");
        assert!(d <= rec.distance_upper);
    }
}

#[test]
fn budgets_cut_executions_not_the_harness() {
    let inst = gen::complete_binary_tree(8, Color::R, Color::B);
    for budget in [Budget::volume(3), Budget::distance(2), Budget::queries(5)] {
        let report = run_all(
            &inst,
            &leaf_coloring::DistanceSolver,
            &RunConfig {
                budget,
                ..RunConfig::default()
            },
        )
        .unwrap();
        // Every node still produced an output (the fallback), and the
        // records reflect the truncation.
        assert!(report.complete_outputs().is_some());
        assert!(report.truncated() > 0);
        for rec in &report.records {
            if let Some(maxv) = budget.max_volume {
                assert!(rec.volume <= maxv);
            }
            if let Some(maxq) = budget.max_queries {
                assert!(rec.queries <= maxq);
            }
        }
    }
}

#[test]
fn private_randomness_is_shared_between_executions() {
    // The same node's walk decision looks identical from every initiator:
    // outputs along a walk agree, which is what the validity of RWtoLeaf
    // rests on. Run twice with the same tape: identical outputs.
    let inst = gen::random_full_binary_tree(150, 8);
    let config = RunConfig {
        tape: Some(RandomTape::private(21)),
        ..RunConfig::default()
    };
    let a = run_all(&inst, &leaf_coloring::RwToLeaf::default(), &config).unwrap();
    let b = run_all(&inst, &leaf_coloring::RwToLeaf::default(), &config).unwrap();
    assert_eq!(
        a.complete_outputs().unwrap(),
        b.complete_outputs().unwrap(),
        "same tape ⇒ same outputs"
    );
}

#[test]
fn different_tapes_differ_somewhere() {
    let inst = gen::random_full_binary_tree(150, 8);
    let mk = |seed| RunConfig {
        tape: Some(RandomTape::private(seed)),
        ..RunConfig::default()
    };
    let a = run_all(&inst, &leaf_coloring::RwToLeaf::default(), &mk(1)).unwrap();
    let b = run_all(&inst, &leaf_coloring::RwToLeaf::default(), &mk(2)).unwrap();
    // With 150 nodes, two tapes almost surely route some walk differently;
    // both stay valid regardless.
    let oa = a.complete_outputs().unwrap();
    let ob = b.complete_outputs().unwrap();
    assert!(
        oa != ob
            || a.records.iter().map(|r| r.volume).sum::<usize>()
                != b.records.iter().map(|r| r.volume).sum::<usize>(),
        "independent tapes should not be fully identical"
    );
}

// Seeded property loops: each case draws its inputs from `vc_bench::CaseRng`.

/// Sampled starts are a subset of exhaustive starts with identical
/// per-root outputs (determinism of the runner).
#[test]
fn prop_sampling_consistent() {
    let inst = gen::complete_binary_tree(6, Color::R, Color::B);
    let full = run_all(&inst, &leaf_coloring::DistanceSolver, &RunConfig::default()).unwrap();
    let full_outputs = full.complete_outputs().unwrap();
    for_cases(12, |rng| {
        let count = rng.pick(1..50) as usize;
        let seed = rng.pick(0..100);
        let sampled = run_all(
            &inst,
            &leaf_coloring::DistanceSolver,
            &RunConfig {
                starts: StartSelection::Sample { count, seed },
                ..RunConfig::default()
            },
        )
        .unwrap();
        for rec in &sampled.records {
            assert_eq!(
                sampled.outputs[rec.root],
                Some(full_outputs[rec.root]),
                "count {count} seed {seed}"
            );
        }
        assert_eq!(sampled.records.len(), count.min(inst.n()));
    });
}

/// Volume counts distinct nodes: re-queries never inflate it beyond n.
#[test]
fn prop_volume_bounded_by_n() {
    for_cases(12, |rng| {
        let seed = rng.pick(0..100);
        let inst = gen::pseudo_tree(80, 4, seed);
        let report = run_all(&inst, &leaf_coloring::DistanceSolver, &RunConfig::default()).unwrap();
        for rec in &report.records {
            assert!(rec.volume <= inst.n(), "seed {seed}");
            assert!(rec.queries as usize >= rec.volume - 1, "seed {seed}");
        }
    });
}
