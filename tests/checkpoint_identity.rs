//! Integration regression tests for the content-addressed checkpoint
//! identity: a checkpoint written for one sweep must never resume a
//! *different* sweep, even when the old size-keyed fingerprint would have
//! collided.
//!
//! The two collision classes pinned here are exactly the ones the
//! `vc-ident` layer was introduced to close:
//!
//! 1. **Same size, different content.** Two instances with identical `n`
//!    (and hence identical chunk counts) but different edges/labels must
//!    have distinct `InstanceId`s, and a checkpoint for one must be
//!    refused — loudly — when resumed against the other.
//! 2. **Same sweep, different fault plan.** A checkpoint written under an
//!    active `FaultPlan` must be refused when the plan changes between
//!    the kill and the resume (e.g. a flipped `VC_FAULTS` spec), because
//!    the fault tape changes every recorded output.
//!
//! A kill mid-append is pinned here too: a torn last line is a chunk
//! that was never committed, and the resume still reaches the unbroken
//! bytes.

use vc_core::problems::leaf_coloring::DistanceSolver;
use vc_engine::{Engine, EngineError};
use vc_faults::{FaultPlan, FaultedAlgorithm};
use vc_graph::gen;
use vc_model::run::RunConfig;

/// A unique temp directory per test so parallel test binaries never share
/// checkpoint files.
fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "vc-checkpoint-identity-{tag}-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("temp dir is writable");
    dir
}

#[test]
fn resume_refuses_a_different_instance_of_the_same_size() {
    // Same n_target, different seeds: identical node count (and so
    // identical num_chunks — the old fingerprint's only content signal),
    // different tree shape and labels.
    let a = gen::random_full_binary_tree(333, 5);
    let b = gen::random_full_binary_tree(333, 6);
    assert_eq!(a.n(), b.n(), "the collision setup needs equal sizes");
    assert_ne!(
        a.instance_id(),
        b.instance_id(),
        "equal-size instances with different content must have distinct ids"
    );

    let config = RunConfig::default();
    let dir = temp_dir("instance");
    let path = dir.join("ckpt.json");
    let _ = std::fs::remove_file(&path);

    // Kill the sweep on A after two chunks; the checkpoint stays on disk.
    let killed = Engine::with_threads(2)
        .with_chunk_quota(2)
        .with_checkpoint(&path)
        .run_all(&a, &DistanceSolver, &config)
        .expect("killed sweep still writes its checkpoint");
    assert!(
        !killed.is_complete(),
        "the quota must actually kill the sweep"
    );

    // Resuming against B must fail loudly, naming both the sweep mismatch
    // and the instance-content mismatch.
    let err = Engine::with_threads(2)
        .with_checkpoint(&path)
        .run_all(&b, &DistanceSolver, &config)
        .expect_err("a checkpoint for A must not resume against B");
    let msg = err.to_string();
    assert!(
        msg.contains("belongs to a different sweep"),
        "error must name the sweep mismatch: {msg}"
    );
    assert!(
        msg.contains("instance content differs"),
        "error must name the instance-content mismatch: {msg}"
    );

    // The checkpoint is still valid for A: resuming there completes and
    // matches an unbroken run byte for byte.
    let unbroken_path = dir.join("unbroken.json");
    let _ = std::fs::remove_file(&unbroken_path);
    let unbroken = Engine::with_threads(2)
        .with_checkpoint(&unbroken_path)
        .run_all(&a, &DistanceSolver, &config)
        .expect("unbroken sweep runs");
    let resumed = Engine::with_threads(2)
        .with_checkpoint(&path)
        .run_all(&a, &DistanceSolver, &config)
        .expect("resume against the original instance succeeds");
    assert!(resumed.is_complete() && unbroken.is_complete());
    assert_eq!(resumed.summary, unbroken.summary);
    assert_eq!(resumed.report.records, unbroken.report.records);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_refuses_a_changed_fault_plan() {
    let inst = gen::random_full_binary_tree(333, 5);
    let config = RunConfig::default();
    let plan = FaultPlan::from_spec("seed=1,refuse=8").expect("valid spec");
    let changed = FaultPlan::from_spec("seed=1,refuse=16").expect("valid spec");
    let algo = FaultedAlgorithm::new(DistanceSolver, plan);
    let algo_changed = FaultedAlgorithm::new(DistanceSolver, changed);

    let dir = temp_dir("faultplan");
    let path = dir.join("ckpt.json");
    let _ = std::fs::remove_file(&path);

    let killed = Engine::with_threads(2)
        .with_chunk_quota(2)
        .with_checkpoint(&path)
        .run_all(&inst, &algo, &config)
        .expect("killed faulted sweep still writes its checkpoint");
    assert!(
        !killed.is_complete(),
        "the quota must actually kill the sweep"
    );

    // The same instance and solver, but the ambient fault plan changed
    // between kill and resume (the flipped-VC_FAULTS scenario): refuse.
    let err = Engine::with_threads(2)
        .with_checkpoint(&path)
        .run_all(&inst, &algo_changed, &config)
        .expect_err("a changed fault plan must not resume the checkpoint");
    let msg = err.to_string();
    assert!(
        msg.contains("belongs to a different sweep"),
        "error must name the sweep mismatch: {msg}"
    );
    assert!(
        !msg.contains("instance content differs"),
        "the instance did not change, only the plan: {msg}"
    );

    // Under the original plan the resume is lossless.
    let unbroken_path = dir.join("unbroken.json");
    let _ = std::fs::remove_file(&unbroken_path);
    let unbroken = Engine::with_threads(2)
        .with_checkpoint(&unbroken_path)
        .run_all(&inst, &algo, &config)
        .expect("unbroken faulted sweep runs");
    let resumed = Engine::with_threads(2)
        .with_checkpoint(&path)
        .run_all(&inst, &algo, &config)
        .expect("resume under the original plan succeeds");
    assert!(resumed.is_complete() && unbroken.is_complete());
    assert_eq!(resumed.summary, unbroken.summary);
    assert_eq!(resumed.report.records, unbroken.report.records);

    let _ = std::fs::remove_dir_all(&dir);
}

/// A kill mid-append leaves the last line of a partial file without its
/// newline. Cut a quota-stopped run's file at every byte inside its last
/// chunk line: each cut resumes, at 1, 2 and 8 threads, to the unbroken
/// run's sealed bytes. A cut inside the header, which a kill cannot cause
/// (a file is created whole), a complete garbage line in the middle and a
/// line after the seal are refused.
#[test]
fn a_kill_mid_append_resumes_to_the_unbroken_bytes() {
    let inst = gen::random_full_binary_tree(129, 5); // 3 chunks
    let config = RunConfig::default();
    let dir = temp_dir("torn");
    let run = |engine: Engine, path: &std::path::Path| {
        engine
            .with_checkpoint(path)
            .run_all(&inst, &DistanceSolver, &config)
    };
    let unbroken_path = dir.join("unbroken.json");
    let _ = std::fs::remove_file(&unbroken_path);
    run(Engine::with_threads(2), &unbroken_path).expect("unbroken sweep runs");
    let unbroken = std::fs::read(&unbroken_path).expect("sealed file readable");

    let partial_path = dir.join("partial.json");
    let _ = std::fs::remove_file(&partial_path);
    let killed = run(Engine::with_threads(2).with_chunk_quota(2), &partial_path);
    assert_eq!(killed.expect("quota-stopped run").completed_chunks, 2);
    let partial = std::fs::read(&partial_path).expect("partial file readable");
    let lines: Vec<&[u8]> = partial.split_inclusive(|&b| b == b'\n').collect();
    assert_eq!(lines.len(), 3, "header and chunks 0 and 1");
    let last = partial.len() - lines[2].len();

    let path = dir.join("torn.json");
    for cut in last + 1..partial.len() {
        for threads in [1, 2, 8] {
            std::fs::write(&path, &partial[..cut]).expect("torn file written");
            let resumed = run(Engine::with_threads(threads), &path).expect("torn tail resumes");
            assert!(resumed.is_complete());
            assert!(
                std::fs::read(&path).expect("resumed file readable") == unbroken,
                "cut at byte {cut}, {threads} threads: the resume diverged"
            );
        }
    }

    let mut refused = vec![lines[0][..lines[0].len() - 1].to_vec(), Vec::new()];
    refused.push([lines[0], b"{\"chunk\": 1, \"starts\"\n", lines[1]].concat());
    refused.push([&unbroken[..], lines[1]].concat());
    for cut in 1..lines[0].len() - 1 {
        refused.push(partial[..cut].to_vec());
    }
    for bytes in refused {
        std::fs::write(&path, &bytes).expect("damaged file written");
        let err = run(Engine::with_threads(2), &path).expect_err("damage is refused");
        assert!(matches!(err, EngineError::BadCheckpoint(_)), "{err}");
        assert_eq!(
            std::fs::read(&path).unwrap(),
            bytes,
            "a refusal wrote the file"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}
