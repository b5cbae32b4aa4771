//! End-to-end contract of the `vc-serve-result/v2` content-addressed
//! result store, mirroring the `vc-instance/v1` suite: payloads
//! round-trip byte for byte, corrupt documents are rejected with typed
//! errors, and an entry whose filename disagrees with its embedded
//! sweep identity is refused before a byte of payload escapes.

use std::path::PathBuf;
use std::time::Duration;

use vc_engine::{Engine, InstanceId, SweepCheckpoint, SweepId, SweepIdentity};
use vc_ident::IdHasher;
use vc_serve::{
    AlgorithmRef, InstanceRef, JobState, Priority, ResultStore, ServeConfig, StoreError,
    SweepService, SweepSpec,
};

/// Bound on every service wait; no healthy run comes near it.
const WAIT: Duration = Duration::from_secs(120);

fn temp_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vc_serve_store_it_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn ident(raw: u64) -> SweepIdentity {
    SweepIdentity {
        instance_id: InstanceId::from_raw(raw.rotate_left(17)),
        sweep_id: SweepId::from_raw(raw),
    }
}

/// A payload shaped like the checkpoint files the service actually
/// stores: JSON lines with arrays and escapes, not a flat token.
fn checkpoint_like_payload() -> String {
    "{\"schema\": \"vc-engine-checkpoint/v3\", \"note\": \"quotes \\\" and \\\\ backslashes\"}\n\
     {\"chunk\": 0, \"volume\": [0,1]}\n"
        .to_string()
}

#[test]
fn payloads_round_trip_byte_for_byte() {
    let dir = temp_store("rt");
    let mut store = ResultStore::open(&dir, None).unwrap();
    let payloads = [
        checkpoint_like_payload(),
        String::new(),
        "[1,2,3]".to_string(),
        "\"just a string with a newline\\n\"".to_string(),
    ];
    for (i, payload) in payloads.iter().enumerate() {
        let id = ident(100 + i as u64);
        store.store(&id, payload).unwrap();
        assert_eq!(
            &store.load(id.sweep_id).unwrap(),
            payload,
            "payload {i} drifted through the store"
        );
    }
    // Reopening adopts every entry and still verifies on load.
    let reopened = ResultStore::open(&dir, None).unwrap();
    assert_eq!(reopened.len(), payloads.len());
    for (i, payload) in payloads.iter().enumerate() {
        assert_eq!(
            &reopened.load(ident(100 + i as u64).sweep_id).unwrap(),
            payload
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_documents_are_rejected_with_typed_errors() {
    let dir = temp_store("corrupt");
    let mut store = ResultStore::open(&dir, None).unwrap();
    let id = ident(7);
    store.store(&id, &checkpoint_like_payload()).unwrap();
    let path = dir.join(format!("{}.json", id.sweep_id));
    let pristine = std::fs::read_to_string(&path).unwrap();

    // Flip one byte inside the escaped payload text (a letter of the
    // embedded schema tag): the document still parses, but the digest
    // no longer recomputes.
    let payload_at = pristine.rfind("checkpoint").unwrap();
    let mut flipped = pristine.clone().into_bytes();
    assert!(flipped[payload_at].is_ascii_alphanumeric());
    flipped[payload_at] ^= 0x01;
    std::fs::write(&path, &flipped).unwrap();
    assert!(matches!(
        store.load(id.sweep_id),
        Err(StoreError::DigestMismatch { .. })
    ));

    // Truncations at any depth are malformed, never a panic and never a
    // payload.
    for cut in [0, 1, pristine.len() / 3, pristine.len() - 2] {
        std::fs::write(&path, &pristine.as_bytes()[..cut]).unwrap();
        assert!(
            matches!(store.load(id.sweep_id), Err(StoreError::Malformed(_))),
            "cut at {cut} must report a malformed document"
        );
    }

    // A wrong schema tag is refused before any identity is trusted.
    std::fs::write(
        &path,
        pristine.replace(vc_serve::RESULT_SCHEMA, "vc-serve-result/v9"),
    )
    .unwrap();
    assert!(matches!(
        store.load(id.sweep_id),
        Err(StoreError::Malformed(_))
    ));

    // Restore the pristine bytes: the entry verifies again.
    std::fs::write(&path, &pristine).unwrap();
    assert_eq!(store.load(id.sweep_id).unwrap(), checkpoint_like_payload());

    // A missing entry is NotFound, not Io.
    assert_eq!(
        store.load(SweepId::from_raw(0xdead)),
        Err(StoreError::NotFound(SweepId::from_raw(0xdead)))
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn filename_and_payload_identity_must_agree() {
    let dir = temp_store("rename");
    let mut store = ResultStore::open(&dir, None).unwrap();
    let original = ident(0x1234);
    store.store(&original, &checkpoint_like_payload()).unwrap();

    // Cross-link the document under a different sweep id, as a spliced
    // backup or a copy-paste mistake would: the load must refuse it.
    let alias = SweepId::from_raw(0x5678);
    std::fs::copy(
        dir.join(format!("{}.json", original.sweep_id)),
        dir.join(format!("{alias}.json")),
    )
    .unwrap();
    let reopened = ResultStore::open(&dir, None).unwrap();
    assert!(reopened.contains(alias));
    assert_eq!(
        reopened.load(alias),
        Err(StoreError::IdentityMismatch {
            requested: alias,
            stored: original.sweep_id,
        })
    );
    // The genuine entry is untouched by the refusal.
    assert_eq!(
        reopened.load(original.sweep_id).unwrap(),
        checkpoint_like_payload()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fifo_eviction_enforces_the_cap_and_counts() {
    let dir = temp_store("evict");
    let mut store = ResultStore::open(&dir, Some(3)).unwrap();
    for raw in 1..=5u64 {
        store
            .store(&ident(raw), &checkpoint_like_payload())
            .unwrap();
    }
    assert_eq!(store.len(), 3);
    assert_eq!(store.evictions(), 2);
    for raw in 1..=2u64 {
        assert!(!store.contains(SweepId::from_raw(raw)));
        assert!(matches!(
            store.load(SweepId::from_raw(raw)),
            Err(StoreError::NotFound(_))
        ));
    }
    for raw in 3..=5u64 {
        assert!(store.contains(SweepId::from_raw(raw)));
        assert!(store.load(SweepId::from_raw(raw)).is_ok());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// DESIGN.md §17.2: a stored file's bytes change only with a schema
/// bump. The on-disk document of one real sweep (the full LeafColoring
/// distance sweep of a 255-node full binary tree) is pinned by its
/// digest, so a codec change that moves one byte of the document fails
/// here.
#[test]
fn stored_document_of_a_real_sweep_keeps_its_bytes() {
    let dir = temp_store("golden");
    let spec = SweepSpec::new(
        InstanceRef::FullBinaryTree { n: 255, seed: 4 },
        AlgorithmRef::LeafDistance,
    );
    let inst = spec.instance.build();
    let config = spec.run_config();
    let starts = config.starts.starts(inst.n()).unwrap();
    let identity = spec.algorithm.identity(&inst, &config, &starts);
    let checkpoint = dir.join("sweep.ckpt.json");
    std::fs::create_dir_all(&dir).unwrap();
    spec.algorithm
        .run_checkpointed(&Engine::with_threads(2), &inst, &config, &checkpoint)
        .unwrap();
    let payload = std::fs::read_to_string(&checkpoint).unwrap();

    let mut store = ResultStore::open(&dir.join("store"), None).unwrap();
    store.store(&identity, &payload).unwrap();
    let entry = dir
        .join("store")
        .join(format!("{}.json", identity.sweep_id));
    let doc = std::fs::read_to_string(entry).unwrap();
    let mut h = IdHasher::new("serve-store-golden");
    h.text(&doc);
    assert_eq!(
        format!("{:016x} {}", h.finish(), doc.len()),
        "7a30fd06ae9d6dbf 3100",
        "the stored document's bytes moved"
    );
    assert_eq!(store.load(identity.sweep_id).unwrap(), payload);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `u64::from_str_radix` takes a leading `+`, so without a digit check a
/// signed id or hash names the same value as its unsigned spelling.
/// Neither the file-name scan nor a load may accept one.
#[test]
fn signed_hex_ids_and_hashes_are_refused() {
    let dir = temp_store("signed");
    let mut store = ResultStore::open(&dir, None).unwrap();
    // An id with a leading zero digit, so "+" + its last 15 digits is
    // the same number.
    let id = ident(0xabcd);
    let path = dir.join(format!("{}.json", id.sweep_id));
    // A payload whose digest also starts with a zero digit.
    let payload = (0..)
        .map(|k| format!("payload {k}"))
        .find(|p| {
            store.store(&id, p).unwrap();
            let doc = std::fs::read_to_string(&path).unwrap();
            doc.contains("\"payload_hash\": \"0")
        })
        .unwrap();
    let pristine = std::fs::read_to_string(&path).unwrap();
    assert_eq!(store.load(id.sweep_id).unwrap(), payload);

    let signed_id = pristine.replace(
        "\"sweep_id\": \"000000000000abcd\"",
        "\"sweep_id\": \"+00000000000abcd\"",
    );
    assert_ne!(signed_id, pristine);
    std::fs::write(&path, &signed_id).unwrap();
    assert!(matches!(
        store.load(id.sweep_id),
        Err(StoreError::Malformed(_))
    ));

    let signed_hash = pristine.replace("\"payload_hash\": \"0", "\"payload_hash\": \"+");
    assert_ne!(signed_hash, pristine);
    std::fs::write(&path, &signed_hash).unwrap();
    assert!(matches!(
        store.load(id.sweep_id),
        Err(StoreError::Malformed(_))
    ));

    // A file named with the signed spelling is not adopted under the id
    // whose entry is another file.
    std::fs::remove_file(&path).unwrap();
    std::fs::write(dir.join("+00000000000abcd.json"), &pristine).unwrap();
    let reopened = ResultStore::open(&dir, None).unwrap();
    assert!(reopened.is_empty());
    assert!(!reopened.contains(id.sweep_id));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A writer killed mid-write leaves `<id>.json.tmp` next to the store's
/// entries. `open` must not adopt it, `load` must not read it, and the
/// next `store` of that id replaces it.
#[test]
fn a_stale_temp_file_from_a_killed_writer_is_ignored_then_replaced() {
    let dir = temp_store("stale_tmp");
    let mut store = ResultStore::open(&dir, None).unwrap();
    let id = ident(0x71);
    store.store(&id, "old").unwrap();
    let orphan = ident(0x72);
    let tmp = dir.join(format!("{}.json.tmp", id.sweep_id));
    std::fs::write(&tmp, "{\"schema\": \"vc-serve-res").unwrap();
    std::fs::write(dir.join(format!("{}.json.tmp", orphan.sweep_id)), "torn").unwrap();

    let mut reopened = ResultStore::open(&dir, None).unwrap();
    assert_eq!(reopened.len(), 1);
    assert!(!reopened.contains(orphan.sweep_id));
    assert_eq!(reopened.load(id.sweep_id).unwrap(), "old");
    assert_eq!(
        reopened.load(orphan.sweep_id),
        Err(StoreError::NotFound(orphan.sweep_id))
    );
    reopened.store(&id, "new").unwrap();
    assert!(!tmp.exists(), "the store left {} behind", tmp.display());
    assert_eq!(reopened.load(id.sweep_id).unwrap(), "new");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The service's progress guarantee: an interactive job arrives every
/// time a batch is seen running, which preempts it each time, and the
/// batch still finishes within one preemption per chunk (plus one), with
/// the bytes of an uninterrupted run. A batch that made no progress would
/// trip the bound on the loop instead of hanging it.
#[test]
fn a_batch_preempted_whenever_it_runs_still_finishes() {
    let dir = temp_store("progress");
    std::fs::create_dir_all(&dir).unwrap();
    let batch = SweepSpec {
        tape_seed: Some(3),
        ..SweepSpec::new(
            InstanceRef::FullBinaryTree { n: 1023, seed: 6 },
            AlgorithmRef::LeafRandomWalk { step_factor: 32 },
        )
    };
    let num_chunks = vc_engine::plan_chunks(1023).num_chunks;
    assert_eq!(num_chunks, 16);
    let reference = dir.join("reference.ckpt.json");
    batch
        .algorithm
        .run_checkpointed(
            &Engine::with_threads(2),
            &batch.instance.build(),
            &batch.run_config(),
            &reference,
        )
        .unwrap();
    let clean = std::fs::read_to_string(&reference).unwrap();

    for threads in [1, 2, 8] {
        let root = dir.join(format!("t{threads}"));
        let service = SweepService::start(&ServeConfig {
            threads,
            store_dir: root.join("store"),
            spool_dir: root.join("spool"),
            max_store_entries: None,
        })
        .unwrap();
        let job = service.submit(&batch).unwrap().job;
        let mut arrivals = 0;
        loop {
            let status = service
                .wait_job(job, WAIT, |s| {
                    s.state != JobState::Queued && s.state != JobState::Parked
                })
                .unwrap();
            if status.state != JobState::Running {
                break;
            }
            arrivals += 1;
            assert!(
                arrivals <= num_chunks + 2,
                "{threads} threads: the batch still ran after {arrivals} interactive arrivals"
            );
            let urgent = SweepSpec {
                priority: Priority::Interactive,
                ..SweepSpec::new(
                    InstanceRef::FullBinaryTree {
                        n: 255,
                        seed: 100 * threads as u64 + arrivals as u64,
                    },
                    AlgorithmRef::LeafDistance,
                )
            };
            let sub = service.submit(&urgent).unwrap();
            assert!(!sub.cache_hit && !sub.deduped);
            service.wait_result(sub.job, WAIT).unwrap();
        }
        let status = service.status(job).unwrap();
        assert_eq!(status.state, JobState::Done { cache_hit: false });
        assert!(
            status.preemptions <= num_chunks as u64 + 1,
            "{threads} threads: {} preemptions",
            status.preemptions
        );
        assert_eq!(service.result(job).unwrap(), clean, "{threads} threads");
        drop(service);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// An upgraded service must neither serve a result an earlier schema
/// stored nor wedge on a checkpoint an earlier release parked. Both are
/// planted under one spec's ids: a `vc-serve-result/v1` entry wrapping a
/// `vc-engine-checkpoint/v2` payload, and that payload as a spool file.
/// The submission is a miss, and its payload is a fresh run's bytes. A
/// current spool file, planted under a second spec's ids, is kept and
/// resumed: its one forged record shows up in that spec's result.
#[test]
fn an_upgraded_service_recomputes_what_an_earlier_schema_stored() {
    let dir = temp_store("upgrade");
    std::fs::create_dir_all(dir.join("store")).unwrap();
    std::fs::create_dir_all(dir.join("spool")).unwrap();
    let spec = SweepSpec::new(
        InstanceRef::FullBinaryTree { n: 255, seed: 4 },
        AlgorithmRef::LeafDistance,
    );
    let inst = spec.instance.build();
    let config = spec.run_config();
    let starts = config.starts.starts(inst.n()).unwrap();
    let identity = spec.algorithm.identity(&inst, &config, &starts);
    let reference = dir.join("reference.ckpt.json");
    spec.algorithm
        .run_checkpointed(&Engine::with_threads(2), &inst, &config, &reference)
        .unwrap();
    let fresh = std::fs::read_to_string(&reference).unwrap();

    let v2 = format!(
        "{{\n  \"schema\": \"vc-engine-checkpoint/v2\",\n  \"instance_id\": \"{}\",\n  \
         \"sweep_id\": \"{}\",\n  \"num_chunks\": 4,\n  \"chunks\": [\n    null,\n    null,\n    \
         null,\n    null\n  ]\n}}\n",
        identity.instance_id, identity.sweep_id
    );
    let mut h = IdHasher::new("vc-serve-result/v1");
    h.text(&v2);
    let entry = dir
        .join("store")
        .join(format!("{}.json", identity.sweep_id));
    let v1_entry = format!(
        "{{\n  \"schema\": \"vc-serve-result/v1\",\n  \"sweep_id\": \"{}\",\n  \
         \"instance_id\": \"{}\",\n  \"payload_hash\": \"{:016x}\",\n  \"payload\": \"{}\"\n}}\n",
        identity.sweep_id,
        identity.instance_id,
        h.finish(),
        vc_json::escape(&v2)
    );
    std::fs::write(&entry, v1_entry).unwrap();
    let spool = dir
        .join("spool")
        .join(format!("{}.ckpt.json", identity.sweep_id));
    std::fs::write(&spool, &v2).unwrap();

    let kept_spec = SweepSpec::new(
        InstanceRef::FullBinaryTree { n: 255, seed: 6 },
        AlgorithmRef::LeafDistance,
    );
    let kept_inst = kept_spec.instance.build();
    let kept_ref = dir.join("kept.ckpt.json");
    kept_spec
        .algorithm
        .run_checkpointed(&Engine::with_threads(2), &kept_inst, &config, &kept_ref)
        .unwrap();
    let mut forged =
        SweepCheckpoint::from_json(&std::fs::read_to_string(&kept_ref).unwrap()).unwrap();
    forged.chunks[0].as_mut().unwrap()[0].queries += 1;
    let resumed = forged.to_json();
    forged.chunks[3] = None;
    let kept_spool = dir
        .join("spool")
        .join(format!("{}.ckpt.json", forged.identity.sweep_id));
    std::fs::write(&kept_spool, forged.to_json()).unwrap();

    let service = SweepService::start(&ServeConfig {
        threads: 2,
        store_dir: dir.join("store"),
        spool_dir: dir.join("spool"),
        max_store_entries: None,
    })
    .unwrap();
    assert_eq!(service.stats().store_entries, 0, "the v1 entry was adopted");
    assert!(!entry.exists() && !spool.exists());
    assert!(kept_spool.exists(), "a current spool file was deleted");
    let sub = service.submit(&spec).unwrap();
    assert!(!sub.cache_hit, "the earlier schema's result was served");
    assert_eq!(service.wait_result(sub.job, WAIT).unwrap(), fresh);
    let kept = service.submit(&kept_spec).unwrap();
    assert_eq!(kept.sweep_id, forged.identity.sweep_id);
    assert_eq!(service.wait_result(kept.job, WAIT).unwrap(), resumed);
    let stats = service.stats();
    assert_eq!((stats.misses, stats.failed, stats.evictions), (2, 0, 0));
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);
}
