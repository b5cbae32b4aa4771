//! End-to-end contract of the `vc-serve-result/v1` content-addressed
//! result store, mirroring the `vc-instance/v1` suite: payloads
//! round-trip byte for byte, corrupt documents are rejected with typed
//! errors, and an entry whose filename disagrees with its embedded
//! sweep identity is refused before a byte of payload escapes.

use std::path::PathBuf;

use vc_engine::{Engine, InstanceId, SweepId, SweepIdentity};
use vc_ident::IdHasher;
use vc_serve::{AlgorithmRef, InstanceRef, ResultStore, StoreError, SweepSpec};

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

/// A payload shaped like the checkpoint documents the service actually
/// stores: nested JSON with escapes, not a flat token.
fn checkpoint_like_payload() -> String {
    "{\n  \"schema\": \"vc-engine-checkpoint/v2\",\n  \"rows\": [[0, 1], [2, 3]],\n  \
     \"note\": \"quotes \\\" and \\\\ backslashes\"\n}\n"
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
        pristine.replace("vc-serve-result/v1", "vc-serve-result/v9"),
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

/// DESIGN.md §17.2 promises that stored files stay byte-compatible. The
/// on-disk document of one real sweep (the full LeafColoring distance
/// sweep of a 255-node full binary tree) is pinned by its digest, so a
/// codec change that moves one byte of the document fails here.
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
        "06925d3a5a377d92 33231",
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
