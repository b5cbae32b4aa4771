//! Integration: the `vc-ident` canonicalization contract, end to end.
//!
//! `InstanceId`/`SweepId` are content addresses, so they must be
//!
//! * **stable** — independent of engine thread count, recomputation, and
//!   a round-trip through their hex serialization (the checkpoint file);
//! * **sensitive** — any folded ingredient (labels, edges, budget, tape
//!   mode, start selection, exact-distance flag, solver parameters, fault
//!   plan) changing must change the id;
//! * **insensitive** — runtime state that does not affect sweep content
//!   (worker threads, tracing) must not leak into the digest.

use vc_core::problems::hierarchical::DeterministicSolver;
use vc_core::problems::leaf_coloring::DistanceSolver;
use vc_engine::{sweep_identity, Engine, InstanceId, SweepId, SweepIdentity};
use vc_faults::{FaultPlan, FaultedAlgorithm};
use vc_graph::gen;
use vc_model::run::{QueryAlgorithm, RunConfig, StartSelection};
use vc_model::{Budget, RandomTape};

/// The identity of a full sweep of `inst` under `config`.
fn identity_of<A: QueryAlgorithm>(
    inst: &vc_graph::Instance,
    algo: &A,
    config: &RunConfig,
) -> SweepIdentity {
    let starts = config
        .starts
        .starts(inst.n())
        .expect("test configs always select at least one start");
    sweep_identity(inst, algo, config, &starts)
}

#[test]
fn identities_are_stable_and_round_trip() {
    let inst = gen::random_full_binary_tree(333, 5);
    let config = RunConfig::default();
    let id = identity_of(&inst, &DistanceSolver, &config);

    // Recomputation is a no-op.
    assert_eq!(id, identity_of(&inst, &DistanceSolver, &config));
    assert_eq!(inst.instance_id(), inst.instance_id());

    // Hex serialization round-trips losslessly (this is the form the
    // checkpoint file, the bench baseline and the trace report carry).
    let hex = id.instance_id.to_string();
    assert_eq!(hex.len(), 16, "ids serialize as zero-padded 16-digit hex");
    assert_eq!(InstanceId::parse_hex(&hex), Some(id.instance_id));
    let hex = id.sweep_id.to_string();
    assert_eq!(hex.len(), 16);
    assert_eq!(SweepId::parse_hex(&hex), Some(id.sweep_id));
}

#[test]
fn identities_are_insensitive_to_thread_count() {
    // The engine's thread count is runtime state, not sweep content: the
    // checkpoint files written at different thread counts must carry the
    // same identity, so a sweep killed at 1 thread resumes at 8.
    let inst = gen::random_full_binary_tree(333, 5);
    let config = RunConfig::default();
    let id = identity_of(&inst, &DistanceSolver, &config);

    let dir = std::env::temp_dir().join(format!("vc-ident-threads-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir is writable");
    for threads in [1usize, 4] {
        let path = dir.join(format!("ckpt-{threads}.json"));
        let _ = std::fs::remove_file(&path);
        Engine::with_threads(threads)
            .with_chunk_quota(2)
            .with_checkpoint(&path)
            .run_all(&inst, &DistanceSolver, &config)
            .expect("killed sweep still writes its checkpoint");
        let text = std::fs::read_to_string(&path).expect("checkpoint file exists");
        assert!(
            text.contains(&id.instance_id.to_string()),
            "checkpoint at {threads} threads must carry the instance id"
        );
        assert!(
            text.contains(&id.sweep_id.to_string()),
            "checkpoint at {threads} threads must carry the sweep id"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn instance_id_is_sensitive_to_labels_and_edges() {
    let base = gen::random_full_binary_tree(333, 5);
    let base_id = base.instance_id();

    // Same size, different edges/labels (a different generator seed).
    let other = gen::random_full_binary_tree(333, 6);
    assert_eq!(base.n(), other.n());
    assert_ne!(base_id, other.instance_id(), "edge/label content must fold");

    // Flipping a single label field on a single node changes the id; the
    // original id comes back when the flip is undone.
    let mut tweaked = base.clone();
    let aux = &mut tweaked.labels[7].aux;
    let original = *aux;
    *aux = Some(original.unwrap_or(0) ^ 1);
    assert_ne!(base_id, tweaked.instance_id(), "one label bit must fold");
    tweaked.labels[7].aux = original;
    assert_eq!(
        base_id,
        tweaked.instance_id(),
        "undoing the flip restores the id"
    );

    // The instance id is about (G, L) only: the run configuration never
    // leaks into it (that separation is what the sweep id is for).
    assert_eq!(base_id, base.instance_id());
}

#[test]
fn sweep_id_is_sensitive_to_every_folded_ingredient() {
    let inst = gen::random_full_binary_tree(333, 5);
    let base_cfg = RunConfig::default();
    let base = identity_of(&inst, &DistanceSolver, &base_cfg);

    let mut variants: Vec<(&str, SweepIdentity)> = Vec::new();

    // Budget.
    let cfg = RunConfig {
        budget: Budget::volume(6),
        ..RunConfig::default()
    };
    variants.push(("budget", identity_of(&inst, &DistanceSolver, &cfg)));

    // Tape presence, seed and visibility mode.
    let cfg = RunConfig {
        tape: Some(RandomTape::private(11)),
        ..RunConfig::default()
    };
    variants.push(("tape-private-11", identity_of(&inst, &DistanceSolver, &cfg)));
    let cfg = RunConfig {
        tape: Some(RandomTape::private(12)),
        ..RunConfig::default()
    };
    variants.push(("tape-private-12", identity_of(&inst, &DistanceSolver, &cfg)));
    let cfg = RunConfig {
        tape: Some(RandomTape::public(11)),
        ..RunConfig::default()
    };
    variants.push(("tape-public-11", identity_of(&inst, &DistanceSolver, &cfg)));

    // Exact-distance flag.
    let cfg = RunConfig {
        exact_distance: false,
        ..RunConfig::default()
    };
    variants.push(("exact-distance", identity_of(&inst, &DistanceSolver, &cfg)));

    // Start selection.
    let cfg = RunConfig {
        starts: StartSelection::Sample { count: 64, seed: 9 },
        ..RunConfig::default()
    };
    variants.push(("starts", identity_of(&inst, &DistanceSolver, &cfg)));

    // Solver identity and solver parameters.
    variants.push((
        "solver-k2",
        identity_of(&inst, &DeterministicSolver { k: 2 }, &base_cfg),
    ));
    variants.push((
        "solver-k3",
        identity_of(&inst, &DeterministicSolver { k: 3 }, &base_cfg),
    ));

    // Fault plan: wrapped vs bare, and rule parameter changes.
    let refuse8 = FaultPlan::from_spec("seed=1,refuse=8").expect("valid spec");
    let refuse16 = FaultPlan::from_spec("seed=1,refuse=16").expect("valid spec");
    variants.push((
        "fault-refuse-8",
        identity_of(
            &inst,
            &FaultedAlgorithm::new(DistanceSolver, refuse8),
            &base_cfg,
        ),
    ));
    variants.push((
        "fault-refuse-16",
        identity_of(
            &inst,
            &FaultedAlgorithm::new(DistanceSolver, refuse16),
            &base_cfg,
        ),
    ));

    // Every variant moves the sweep id away from the base...
    for (name, id) in &variants {
        assert_ne!(
            base.sweep_id, id.sweep_id,
            "variant `{name}` must change the sweep id"
        );
        // ...but none of them touches the instance id: configuration and
        // algorithm are sweep-level, not instance-level.
        assert_eq!(
            base.instance_id, id.instance_id,
            "variant `{name}` must not change the instance id"
        );
    }

    // And the variants are pairwise distinct among themselves.
    for i in 0..variants.len() {
        for j in i + 1..variants.len() {
            assert_ne!(
                variants[i].1.sweep_id, variants[j].1.sweep_id,
                "variants `{}` and `{}` must not collide",
                variants[i].0, variants[j].0
            );
        }
    }
}
