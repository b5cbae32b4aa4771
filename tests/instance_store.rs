//! End-to-end contract of the `vc-instance/v1` binary store: every
//! generator family round-trips through encode → decode with its content
//! identity intact, corrupt bytes are rejected with typed errors, and a
//! checkpointed sweep resumes correctly on an instance that came back from
//! disk rather than from the generator.

use vc_core::problems::leaf_coloring::DistanceSolver;
use vc_engine::{plan_chunks, Engine};
use vc_graph::{
    decode_instance, encode_instance, gen, load_instance, save_instance, Color, GraphError,
    Instance, StoreError, STORE_MAGIC,
};
use vc_model::run::RunConfig;

/// Encode → decode must reproduce the exact content identity (the decoder
/// recomputes the id and compares it against the header, so equality here
/// certifies every array survived byte for byte).
fn round_trip(name: &str, inst: &Instance) {
    let decoded = decode_instance(&encode_instance(inst))
        .unwrap_or_else(|e| panic!("{name}: decode failed: {e}"));
    assert_eq!(
        decoded.instance_id(),
        inst.instance_id(),
        "{name}: instance identity drifted through the store"
    );
    assert_eq!(decoded.n(), inst.n(), "{name}: node count drifted");
}

#[test]
fn every_generator_family_round_trips_with_identity() {
    let (balanced, _) = gen::balanced_tree_compatible(4);
    let (disj, _) = gen::disjointness_embedding(
        &[true, false, true, true, false, false, true, false],
        &[false, true, true, false, true, false, false, true],
    );
    let (unbalanced, _) = gen::unbalanced_tree(4);
    let (gadget, _) =
        gen::two_tree_gadget(3, &[true, false, true, true, false, false, true, false]);
    let families: Vec<(&str, Instance)> = vec![
        (
            "complete-binary-tree",
            gen::complete_binary_tree(5, Color::R, Color::B),
        ),
        (
            "random-full-binary-tree",
            gen::random_full_binary_tree(301, 5),
        ),
        ("pseudo-tree", gen::pseudo_tree(120, 9, 3)),
        ("balanced-tree-compatible", balanced),
        ("disjointness-embedding", disj),
        ("unbalanced-tree", unbalanced),
        ("hierarchical", gen::hierarchical_for_size(2, 200, 7)),
        ("hierarchical-with-cycle", {
            gen::hierarchical_with_cycle(gen::HierarchicalParams {
                k: 2,
                backbone_len: 12,
                seed: 11,
            })
        }),
        ("hybrid", gen::hybrid_for_size(2, 200, 13)),
        ("hybrid-one-heavy", gen::hybrid_with_one_heavy(2, 200, 17)),
        ("hh", gen::hh(2, 2, 200, 19)),
        ("directed-cycle", gen::directed_cycle(64, 23)),
        ("two-tree-gadget", gadget),
    ];
    for (name, inst) in &families {
        round_trip(name, inst);
    }
}

#[test]
fn disk_save_load_preserves_identity() {
    let dir = std::env::temp_dir().join("vc_store_it");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("pseudo.vci");
    let inst = gen::pseudo_tree(150, 7, 42);
    save_instance(&inst, &path).unwrap();
    let loaded = load_instance(&path).unwrap();
    assert_eq!(loaded.instance_id(), inst.instance_id());
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn corrupt_bytes_are_rejected_with_typed_errors() {
    let inst = gen::complete_binary_tree(4, Color::R, Color::B);
    let bytes = encode_instance(&inst);

    let mut bad_magic = bytes.clone();
    bad_magic[0] ^= 0xFF;
    assert!(matches!(
        decode_instance(&bad_magic),
        Err(StoreError::BadMagic)
    ));

    let mut bad_version = bytes.clone();
    bad_version[STORE_MAGIC.len()] = 9;
    assert!(matches!(
        decode_instance(&bad_version),
        Err(StoreError::UnsupportedVersion(9))
    ));

    for cut in [0, 7, 20, bytes.len() / 2, bytes.len() - 1] {
        assert!(
            matches!(
                decode_instance(&bytes[..cut]),
                Err(StoreError::Truncated { .. })
            ),
            "cut at {cut} must report truncation"
        );
    }

    let mut trailing = bytes.clone();
    trailing.push(0);
    assert!(matches!(
        decode_instance(&trailing),
        Err(StoreError::Malformed(_))
    ));

    let num_slots: usize = (0..inst.n()).map(|v| inst.graph.degree(v)).sum();
    let ids_start = 36 + 4 * (inst.n() + 1) + 5 * num_slots;

    // Give nodes 0 and 1 one id, inside 1..=n and above it: the graph
    // check refuses the file before the identity check.
    for id in [1, inst.n() as u64 + 5] {
        let mut repeated = bytes.clone();
        for at in [ids_start, ids_start + 8] {
            repeated[at..at + 8].copy_from_slice(&id.to_le_bytes());
        }
        let refused = decode_instance(&repeated);
        assert!(
            matches!(refused, Err(StoreError::Graph(GraphError::DuplicateId { id: got })) if got == id),
            "{refused:?}"
        );
    }

    // Flip the high byte of the first node id: the arrays stay decodable
    // but the recomputed content identity no longer matches the header.
    let mut flipped = bytes;
    flipped[ids_start + 7] ^= 0x80;
    assert!(matches!(
        decode_instance(&flipped),
        Err(StoreError::IdentityMismatch { .. })
    ));

    assert!(matches!(
        load_instance(std::path::Path::new("/nonexistent/vc_store.vci")),
        Err(StoreError::Io(_))
    ));
}

#[test]
fn checkpointed_sweep_resumes_on_a_loaded_instance() {
    let dir = std::env::temp_dir().join("vc_store_it_ckpt");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("tree.vci");
    let ckpt = dir.join("tree.ckpt.json");
    let _ = std::fs::remove_file(&ckpt);

    // Moderate n (debug-mode friendly) but large enough that the adaptive
    // planner leaves the historical 64-start chunk size.
    let built = gen::random_full_binary_tree(20_001, 5);
    save_instance(&built, &path).unwrap();
    let inst = load_instance(&path).unwrap();
    assert_eq!(inst.instance_id(), built.instance_id());
    let plan = plan_chunks(inst.n());
    assert!(
        plan.chunk_size > 64,
        "planner must scale past 64 at n > 8192"
    );

    let config = RunConfig {
        exact_distance: false,
        ..RunConfig::default()
    };
    let partial = Engine::with_threads(4)
        .with_chunk_quota(3)
        .run_recorded_with_checkpoint(&inst, &DistanceSolver, &config, &ckpt)
        .unwrap();
    assert_eq!(partial.completed_chunks, 3);
    assert!(!partial.is_complete());

    let resumed = Engine::with_threads(4)
        .run_recorded_with_checkpoint(&inst, &DistanceSolver, &config, &ckpt)
        .unwrap();
    assert!(resumed.is_complete());

    let unbroken = Engine::with_threads(4)
        .run_all(&inst, &DistanceSolver, &config)
        .unwrap();
    assert_eq!(resumed.records, unbroken.report.records);
    assert_eq!(resumed.summary, unbroken.summary);

    std::fs::remove_file(&path).unwrap();
    std::fs::remove_file(&ckpt).unwrap();
}
