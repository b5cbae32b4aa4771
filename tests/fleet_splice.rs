//! Integration contract of fleet execution (DESIGN.md §15–16): a sweep
//! partitioned into disjoint `ChunkSet` slices — each run as its own
//! checkpointed "worker" — must splice back into a checkpoint
//! byte-identical to the unpartitioned run, for any worker thread count;
//! every way a partition can be wrong (overlap, gap, foreign sweep,
//! wrong plan) must be refused loudly rather than merged silently; and
//! the partial-splice recovery path must merge surviving parts, name the
//! gap, and resume to the serial bytes.

use vc_core::problems::leaf_coloring::DistanceSolver;
use vc_engine::{
    plan_chunks, splice_checkpoints, splice_partial, ChunkSet, Engine, SpliceError, SweepCheckpoint,
};
use vc_graph::gen;
use vc_model::run::RunConfig;

/// A unique temp directory per test so parallel test binaries never share
/// checkpoint files.
fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("vc-fleet-splice-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir is writable");
    dir
}

/// Runs the slice `range` of the sweep as one fleet worker: a fresh
/// checkpoint file, a range-restricted engine, and the partial read back
/// from disk exactly as `xtask merge-checkpoints` would read it.
fn run_partition(
    inst: &vc_graph::Instance,
    range: &ChunkSet,
    threads: usize,
    path: &std::path::Path,
) -> SweepCheckpoint {
    let _ = std::fs::remove_file(path);
    Engine::with_threads(threads)
        .with_chunk_set(range.clone())
        .run_recorded_with_checkpoint(inst, &DistanceSolver, &RunConfig::default(), path)
        .expect("partition sweep runs");
    let src = std::fs::read_to_string(path).expect("partial checkpoint readable");
    SweepCheckpoint::from_json(&src).expect("partial checkpoint parses")
}

#[test]
fn three_way_splice_is_byte_identical_to_serial_at_any_thread_count() {
    let inst = gen::random_full_binary_tree(777, 5);
    let num_chunks = plan_chunks(inst.n()).num_chunks;
    let dir = temp_dir("three-way");

    let serial_path = dir.join("serial.json");
    let _ = std::fs::remove_file(&serial_path);
    Engine::with_threads(2)
        .run_recorded_with_checkpoint(&inst, &DistanceSolver, &RunConfig::default(), &serial_path)
        .expect("serial sweep runs");
    let serial_bytes = std::fs::read_to_string(&serial_path).expect("serial checkpoint readable");

    for threads in [1, 2, 8] {
        let parts: Vec<SweepCheckpoint> = ChunkSet::split(num_chunks, 3)
            .into_iter()
            .enumerate()
            .map(|(w, range)| {
                let path = dir.join(format!("part-{threads}t-{w}.json"));
                let part = run_partition(&inst, &range, threads, &path);
                assert_eq!(
                    part.partition,
                    Some(range),
                    "the worker's file must be stamped with its slice"
                );
                part
            })
            .collect();
        let merged = splice_checkpoints(&parts).expect("disjoint partials splice");
        assert_eq!(
            merged.to_json(),
            serial_bytes,
            "splice at {threads} worker threads must be byte-identical to the serial run"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn single_partition_covering_the_plan_splices_to_the_serial_bytes() {
    let inst = gen::random_full_binary_tree(333, 5);
    let num_chunks = plan_chunks(inst.n()).num_chunks;
    let dir = temp_dir("identity");

    let serial_path = dir.join("serial.json");
    let _ = std::fs::remove_file(&serial_path);
    Engine::with_threads(2)
        .run_recorded_with_checkpoint(&inst, &DistanceSolver, &RunConfig::default(), &serial_path)
        .expect("serial sweep runs");
    let serial_bytes = std::fs::read_to_string(&serial_path).expect("serial checkpoint readable");

    // A full-range "partition" is stamped and complete; splicing the one
    // part drops the stamp and reproduces the serial bytes exactly.
    let full = ChunkSet::full(num_chunks);
    let part = run_partition(&inst, &full, 2, &dir.join("full.json"));
    assert_eq!(part.partition, Some(full));
    assert!(part.is_complete());
    let merged = splice_checkpoints(std::slice::from_ref(&part)).expect("one full part splices");
    assert_eq!(merged.partition, None);
    assert_eq!(merged.to_json(), serial_bytes);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn overlapping_partitions_are_refused() {
    let inst = gen::random_full_binary_tree(333, 5);
    let num_chunks = plan_chunks(inst.n()).num_chunks;
    assert!(num_chunks >= 3, "test needs at least three chunks");
    let dir = temp_dir("overlap");

    // 0..2 and 1..total genuinely both execute chunk 1.
    let a = run_partition(
        &inst,
        &ChunkSet::range(0, 2, num_chunks).unwrap(),
        2,
        &dir.join("a.json"),
    );
    let b = run_partition(
        &inst,
        &ChunkSet::range(1, num_chunks, num_chunks).unwrap(),
        2,
        &dir.join("b.json"),
    );
    let err = splice_checkpoints(&[a, b]).expect_err("overlap must be refused");
    assert_eq!(
        err,
        SpliceError::Overlap {
            chunk: 1,
            first: 0,
            second: 1
        }
    );
    assert!(err.to_string().contains("not disjoint"), "{err}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn coverage_gaps_are_refused_loudly() {
    let inst = gen::random_full_binary_tree(333, 5);
    let num_chunks = plan_chunks(inst.n()).num_chunks;
    let dir = temp_dir("gap");

    // Only the first and last chunk are supplied; everything between is a
    // gap the splice must enumerate.
    let a = run_partition(
        &inst,
        &ChunkSet::range(0, 1, num_chunks).unwrap(),
        2,
        &dir.join("a.json"),
    );
    let b = run_partition(
        &inst,
        &ChunkSet::range(num_chunks - 1, num_chunks, num_chunks).unwrap(),
        2,
        &dir.join("b.json"),
    );
    let err = splice_checkpoints(&[a, b]).expect_err("a gap must be refused");
    let SpliceError::Incomplete { missing, .. } = &err else {
        panic!("expected Incomplete, got {err:?}");
    };
    assert_eq!(*missing, (1..num_chunks - 1).collect::<Vec<_>>());
    assert!(err.to_string().contains("reassign"), "{err}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn partials_of_different_sweeps_are_refused() {
    // Same size (same chunk plan), different content: the only guard left
    // is the content-addressed sweep identity — exactly what the splice
    // checks.
    let a_inst = gen::random_full_binary_tree(333, 5);
    let b_inst = gen::random_full_binary_tree(333, 6);
    let num_chunks = plan_chunks(a_inst.n()).num_chunks;
    let dir = temp_dir("foreign");

    let lo = ChunkSet::range(0, 1, num_chunks).unwrap();
    let hi = ChunkSet::range(1, num_chunks, num_chunks).unwrap();
    let a = run_partition(&a_inst, &lo, 2, &dir.join("a.json"));
    let b = run_partition(&b_inst, &hi, 2, &dir.join("b.json"));
    let err = splice_checkpoints(&[a, b]).expect_err("foreign sweeps must be refused");
    assert!(
        matches!(err, SpliceError::IdentityMismatch { part: 1, .. }),
        "{err:?}"
    );
    assert!(err.to_string().contains("different sweeps"), "{err}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn partition_stamp_round_trips_and_is_validated_against_the_plan() {
    let inst = gen::random_full_binary_tree(333, 5);
    let num_chunks = plan_chunks(inst.n()).num_chunks;
    let dir = temp_dir("stamp");

    let range = ChunkSet::range(1, 3, num_chunks).unwrap();
    let path = dir.join("part.json");
    let part = run_partition(&inst, &range, 2, &path);
    assert_eq!(part.partition.as_ref(), Some(&range));
    // The stamp survives a JSON round trip bit for bit.
    let reread = SweepCheckpoint::from_json(&part.to_json()).expect("round trip parses");
    assert_eq!(reread.partition.as_ref(), Some(&range));
    assert_eq!(reread.to_json(), part.to_json());

    // A stamp whose total disagrees with the file's own chunk count is a
    // corrupt file, not a mergeable partial. The stamp is in the header,
    // the file's first line.
    let src = std::fs::read_to_string(&path).expect("partial readable");
    let header = src.lines().next().expect("header line");
    let forged_header = header.replace(
        &format!("\"partition\": \"{range}\""),
        &format!("\"partition\": \"1..3/{}\"", num_chunks + 1),
    );
    assert_ne!(
        forged_header, header,
        "the forgery must actually edit the stamp"
    );
    let forged = src.replacen(header, &forged_header, 1);
    let err = SweepCheckpoint::from_json(&forged).expect_err("mismatched stamp refused");
    assert!(err.contains("chunk"), "{err}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_from_merged_partial_reaches_the_serial_bytes_at_any_thread_count() {
    // The vc-fleet degraded-exit contract (DESIGN.md §16): when workers
    // die and their chunks are abandoned, `splice_partial` still merges
    // the survivors into one resumable file. Kill 2 of 4 workers
    // mid-slice, merge the four partials, resume the *merged* file with
    // an unrestricted engine — the final bytes must equal the serial run,
    // whatever the resuming thread count.
    let inst = gen::random_full_binary_tree(777, 5);
    let num_chunks = plan_chunks(inst.n()).num_chunks;
    let dir = temp_dir("resume-partial");

    let serial_path = dir.join("serial.json");
    let _ = std::fs::remove_file(&serial_path);
    Engine::with_threads(2)
        .run_recorded_with_checkpoint(&inst, &DistanceSolver, &RunConfig::default(), &serial_path)
        .expect("serial sweep runs");
    let serial_bytes = std::fs::read_to_string(&serial_path).expect("serial checkpoint readable");

    let slices = ChunkSet::split(num_chunks, 4);
    let victims = [1usize, 3];
    for threads in [1usize, 2, 8] {
        let parts: Vec<SweepCheckpoint> = slices
            .iter()
            .enumerate()
            .map(|(w, range)| {
                let path = dir.join(format!("part-{threads}t-{w}.json"));
                let _ = std::fs::remove_file(&path);
                let mut engine = Engine::with_threads(threads).with_chunk_set(range.clone());
                if victims.contains(&w) {
                    // The murder weapon: a one-chunk quota, so each victim
                    // leaves a valid partial covering a strict prefix of
                    // its slice.
                    engine = engine.with_chunk_quota(1);
                }
                engine
                    .run_recorded_with_checkpoint(
                        &inst,
                        &DistanceSolver,
                        &RunConfig::default(),
                        &path,
                    )
                    .expect("worker writes its partial");
                SweepCheckpoint::from_json(&std::fs::read_to_string(&path).unwrap())
                    .expect("partial parses")
            })
            .collect();

        // A strict splice refuses the gap; the partial splice merges the
        // survivors and names exactly the victims' unfinished chunks.
        assert!(matches!(
            splice_checkpoints(&parts),
            Err(SpliceError::Incomplete { .. })
        ));
        let (merged, missing) = splice_partial(&parts).expect("partial splice merges survivors");
        let expected_missing: Vec<usize> = victims
            .iter()
            .flat_map(|&w| slices[w].chunks().skip(1))
            .collect();
        assert_eq!(
            missing, expected_missing,
            "the gap must name every lost chunk"
        );
        assert_eq!(merged.partition, None, "the merged file is unrestricted");

        // Resume the merged file directly: the engine re-executes only
        // the gap, and the completed checkpoint matches the serial bytes.
        let merged_path = dir.join(format!("merged-{threads}t.json"));
        std::fs::write(&merged_path, merged.to_json()).expect("merged partial written");
        let resumed = Engine::with_threads(threads)
            .run_recorded_with_checkpoint(
                &inst,
                &DistanceSolver,
                &RunConfig::default(),
                &merged_path,
            )
            .expect("resume of the merged partial runs");
        assert!(resumed.is_complete());
        assert_eq!(
            std::fs::read_to_string(&merged_path).expect("resumed checkpoint readable"),
            serial_bytes,
            "resume at {threads} threads must be byte-identical to the serial run"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resuming_a_killed_partition_completes_only_its_slice() {
    // The fleet recovery path exercised by examples/fleet_sweep.rs, in
    // miniature and in-process: kill a worker mid-slice via the chunk
    // quota, resume the *same* slice against the same file, and the
    // partial is complete for exactly its range.
    let inst = gen::random_full_binary_tree(777, 5);
    let num_chunks = plan_chunks(inst.n()).num_chunks;
    let dir = temp_dir("resume");
    let range = ChunkSet::split(num_chunks, 4).swap_remove(1);
    let path = dir.join("part.json");
    let _ = std::fs::remove_file(&path);

    let killed = Engine::with_threads(2)
        .with_chunk_set(range.clone())
        .with_chunk_quota(1)
        .run_recorded_with_checkpoint(&inst, &DistanceSolver, &RunConfig::default(), &path)
        .expect("killed partition still writes its checkpoint");
    assert_eq!(killed.completed_chunks, 1, "the quota must bite first");

    let resumed = Engine::with_threads(2)
        .with_chunk_set(range.clone())
        .run_recorded_with_checkpoint(&inst, &DistanceSolver, &RunConfig::default(), &path)
        .expect("resume of the slice runs");
    assert_eq!(resumed.completed_chunks, range.len());
    let part = SweepCheckpoint::from_json(&std::fs::read_to_string(&path).unwrap())
        .expect("resumed partial parses");
    for c in 0..num_chunks {
        assert_eq!(
            part.chunks[c].is_some(),
            range.contains(c),
            "chunk {c} completion must match the slice"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}
