//! End-to-end contract of the content-addressed result store, mirroring
//! the `vc-instance/v1` suite: an entry is a sweep's sealed
//! `vc-engine-checkpoint/v4` file, it round-trips byte for byte, every
//! damaged entry is refused with a typed error, an entry whose filename
//! disagrees with its header's sweep identity is refused before a byte
//! escapes, and a refused entry is recomputed rather than served again.

use std::path::{Path, PathBuf};
use std::time::Duration;

use vc_engine::{Engine, InstanceId, SweepCheckpoint, SweepId, SweepIdentity, CHECKPOINT_SCHEMA};
use vc_ident::IdHasher;
use vc_serve::{
    AlgorithmRef, InstanceRef, JobState, Priority, ResultStore, ServeConfig, ServeError,
    StoreError, SweepService, SweepSpec,
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

/// The smallest entry a load accepts: a sealed checkpoint of `identity`
/// with `num_chunks` empty chunks.
fn sealed(identity: SweepIdentity, num_chunks: usize) -> String {
    let mut ckpt = SweepCheckpoint::fresh(identity, num_chunks);
    ckpt.chunks.fill(Some(Vec::new()));
    ckpt.to_json()
}

/// The golden sweep: the full LeafColoring distance sweep of a 255-node
/// full binary tree.
fn golden_spec() -> SweepSpec {
    SweepSpec::new(
        InstanceRef::FullBinaryTree { n: 255, seed: 4 },
        AlgorithmRef::LeafDistance,
    )
}

/// Runs `spec` unbroken into the checkpoint file at `path` and returns
/// its identity and the sealed file's bytes.
fn run_sealed(spec: &SweepSpec, path: &Path) -> (SweepIdentity, String) {
    let inst = spec.instance.build();
    let config = spec.run_config();
    let starts = config.starts.starts(inst.n()).unwrap();
    let identity = spec.algorithm.identity(&inst, &config, &starts);
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    let _ = std::fs::remove_file(path);
    spec.algorithm
        .run_checkpointed(&Engine::with_threads(2), &inst, &config, path)
        .unwrap();
    (identity, std::fs::read_to_string(path).unwrap())
}

/// `body` followed by the seal the engine writes under it.
fn reseal(body: &str) -> String {
    let mut h = IdHasher::new(CHECKPOINT_SCHEMA);
    h.text(body);
    format!("{body}{{\"seal\": \"{:016x}\"}}\n", h.finish())
}

#[test]
fn payloads_round_trip_byte_for_byte() {
    let dir = temp_store("rt");
    let (golden, golden_bytes) = run_sealed(&golden_spec(), &dir.join("golden.ckpt.json"));
    let mut store = ResultStore::open(&dir.join("store"), None).unwrap();
    let entries = [
        (golden, golden_bytes),
        (ident(100), sealed(ident(100), 0)),
        (ident(101), sealed(ident(101), 3)),
    ];
    for (identity, payload) in &entries {
        store.store(identity, payload).unwrap();
        assert_eq!(
            &store.load(identity.sweep_id).unwrap(),
            payload,
            "entry {} drifted through the store",
            identity.sweep_id
        );
    }
    // Reopening adopts every entry and still verifies on load.
    let reopened = ResultStore::open(&dir.join("store"), None).unwrap();
    assert_eq!(reopened.len(), entries.len());
    for (identity, payload) in &entries {
        assert_eq!(&reopened.load(identity.sweep_id).unwrap(), payload);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A seeded xorshift64 draw below `n`.
fn below(state: &mut u64, n: usize) -> usize {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    (*state % n as u64) as usize
}

/// Writes `bytes` as the entry of `id` at `path` and asserts that `load`
/// refuses it with a typed error, never an I/O error and never a byte of
/// payload.
fn assert_refused(store: &ResultStore, path: &Path, id: SweepId, bytes: &[u8], what: &str) {
    std::fs::write(path, bytes).unwrap();
    match store.load(id) {
        Err(StoreError::Malformed(_) | StoreError::IdentityMismatch { .. }) => {}
        other => panic!("{what}: {other:?}"),
    }
}

/// Stores the golden sweep's entry in `dir/store` and returns the
/// store, the entry's identity, its bytes and its path.
fn golden_entry(dir: &Path) -> (ResultStore, SweepIdentity, String, PathBuf) {
    let (identity, pristine) = run_sealed(&golden_spec(), &dir.join("golden.ckpt.json"));
    let mut store = ResultStore::open(&dir.join("store"), None).unwrap();
    store.store(&identity, &pristine).unwrap();
    assert_eq!(store.load(identity.sweep_id).unwrap(), pristine);
    let path = dir
        .join("store")
        .join(format!("{}.json", identity.sweep_id));
    (store, identity, pristine, path)
}

/// Seeded truncations, bit flips and splices of a real entry: `load`
/// refuses each with a typed error.
#[test]
fn store_entry_mutants_are_refused_with_typed_errors() {
    let dir = temp_store("mutants");
    let (store, identity, pristine, path) = golden_entry(&dir);
    let mut state = 0x5eed_0023;
    for i in 0..1_500 {
        let mut m = pristine.as_bytes().to_vec();
        match below(&mut state, 3) {
            0 => m.truncate(below(&mut state, m.len())),
            1 => {
                let at = below(&mut state, m.len());
                m[at] ^= 1 << below(&mut state, 8);
            }
            _ => {
                let from = below(&mut state, m.len());
                let to = (from + 1 + below(&mut state, 40)).min(m.len());
                let slice = m[from..to].to_vec();
                let at = below(&mut state, m.len() + 1);
                m.splice(at..at, slice);
            }
        }
        let what = format!("mutant {i}");
        assert_refused(&store, &path, identity.sweep_id, &m, &what);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Hand-made damage at the edges of a real entry: a changed digit that
/// still parses, truncations at its line boundaries and a header of
/// another schema are each refused with a typed error. The pristine
/// bytes verify again, and a missing entry is `NotFound`.
#[test]
fn corrupt_documents_are_rejected_with_typed_errors() {
    let dir = temp_store("corrupt");
    let (store, identity, pristine, path) = golden_entry(&dir);
    let id = identity.sweep_id;

    // Flip the low bit of the first chunk's first volume digit: the line
    // still parses, but the seal no longer recomputes over the bytes.
    let digit_at = pristine.find("\"volume\": [").unwrap() + "\"volume\": [".len();
    let mut flipped = pristine.clone().into_bytes();
    assert!(flipped[digit_at].is_ascii_digit());
    flipped[digit_at] ^= 0x01;
    std::fs::write(&path, &flipped).unwrap();
    let err = store.load(id).unwrap_err();
    assert!(matches!(err, StoreError::Malformed(_)), "{err}");

    // Truncations at the line boundaries: a torn header, a file without
    // its seal line, a torn seal line and a seal without its newline.
    let header_end = pristine.find('\n').unwrap() + 1;
    let seal_at = pristine.rfind("{\"seal\"").unwrap();
    for cut in [0, 1, header_end - 1, header_end, seal_at, seal_at + 3] {
        let what = format!("cut at {cut}");
        assert_refused(&store, &path, id, &pristine.as_bytes()[..cut], &what);
    }
    let torn = &pristine.as_bytes()[..pristine.len() - 1];
    assert_refused(&store, &path, id, torn, "no final newline");

    // A header of another schema is refused before any identity is
    // trusted, even under a seal that matches its bytes.
    for schema in ["vc-engine-checkpoint/v3", "vc-engine-checkpoint/v9"] {
        let body = pristine[..seal_at].replacen(CHECKPOINT_SCHEMA, schema, 1);
        assert_refused(&store, &path, id, reseal(&body).as_bytes(), schema);
    }

    // Restore the pristine bytes: the entry verifies again.
    std::fs::write(&path, &pristine).unwrap();
    assert_eq!(store.load(id).unwrap(), pristine);

    // A missing entry is NotFound, not Io.
    assert_eq!(
        store.load(SweepId::from_raw(0xdead)),
        Err(StoreError::NotFound(SweepId::from_raw(0xdead)))
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `u64::from_str_radix` takes a leading `+`, so without a digit check a
/// signed id or seal names the same value as its unsigned spelling.
/// Neither the file-name scan nor a load may accept one.
#[test]
fn signed_hex_ids_and_hashes_are_refused() {
    let dir = temp_store("signed");
    let mut store = ResultStore::open(&dir, None).unwrap();
    // An id with a leading zero digit, so "+" and its last 15 digits
    // name it, and an entry whose seal also starts with a zero digit.
    let id = ident(0xabcd);
    let seal_hex = |entry: &str| entry[entry.len() - 19..entry.len() - 3].to_string();
    let entry = (1..)
        .map(|num_chunks| sealed(id, num_chunks))
        .find(|entry| seal_hex(entry).starts_with('0'))
        .unwrap();
    store.store(&id, &entry).unwrap();
    let path = dir.join(format!("{}.json", id.sweep_id));
    assert_eq!(store.load(id.sweep_id).unwrap(), entry);

    let spelled = "\"sweep_id\": \"000000000000abcd\"";
    assert!(entry.contains(spelled));
    let body = &entry[..entry.rfind("{\"seal\"").unwrap()];
    let signed_id = reseal(&body.replace(spelled, "\"sweep_id\": \"+00000000000abcd\""));
    let signed_seal = format!("{body}{{\"seal\": \"+{}\"}}\n", &seal_hex(&entry)[1..]);
    for (bytes, what) in [(&signed_id, "signed id"), (&signed_seal, "signed seal")] {
        assert_ne!(bytes, &entry);
        std::fs::write(&path, bytes).unwrap();
        let err = store.load(id.sweep_id).unwrap_err();
        assert!(matches!(err, StoreError::Malformed(_)), "{what}: {err}");
    }
    // Restore the pristine bytes: the entry verifies again.
    std::fs::write(&path, &entry).unwrap();
    assert_eq!(store.load(id.sweep_id).unwrap(), entry);

    // A file named with the signed spelling is not adopted under the id
    // whose entry is another file.
    std::fs::remove_file(&path).unwrap();
    std::fs::write(dir.join("+00000000000abcd.json"), &entry).unwrap();
    let reopened = ResultStore::open(&dir, None).unwrap();
    assert!(reopened.is_empty());
    assert!(!reopened.contains(id.sweep_id));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn filename_and_payload_identity_must_agree() {
    let dir = temp_store("rename");
    let mut store = ResultStore::open(&dir, None).unwrap();
    let original = ident(0x1234);
    store.store(&original, &sealed(original, 2)).unwrap();

    // Cross-link the entry under a different sweep id, as a spliced
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
        sealed(original, 2)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fifo_eviction_enforces_the_cap_and_counts() {
    let dir = temp_store("evict");
    let mut store = ResultStore::open(&dir, Some(3)).unwrap();
    for raw in 1..=5u64 {
        store.store(&ident(raw), &sealed(ident(raw), 1)).unwrap();
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
/// bump. The entry of one real sweep (the golden sweep) is the spool
/// file the engine wrote, renamed in, and it is pinned by its digest, so
/// a codec change that moves one byte of it fails here.
#[test]
fn stored_document_of_a_real_sweep_keeps_its_bytes() {
    let dir = temp_store("golden");
    let spool = dir.join("sweep.ckpt.json");
    let (identity, payload) = run_sealed(&golden_spec(), &spool);
    let mut store = ResultStore::open(&dir.join("store"), None).unwrap();
    store.store_file(identity.sweep_id, &spool).unwrap();
    assert!(!spool.exists(), "the spool file was copied, not renamed");
    let entry = dir
        .join("store")
        .join(format!("{}.json", identity.sweep_id));
    let doc = std::fs::read_to_string(entry).unwrap();
    assert_eq!(doc, payload);
    let mut h = IdHasher::new("serve-store-golden");
    h.text(&doc);
    assert_eq!(
        format!("{:016x} {}", h.finish(), doc.len()),
        "222bb36c57e478e2 2841",
        "the stored entry's bytes moved"
    );
    assert_eq!(store.load(identity.sweep_id).unwrap(), payload);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A damaged entry is refused once, then dropped: the next submission
/// of its sweep is a miss that recomputes the original bytes, and a
/// restarted service adopts the recomputed entry.
#[test]
fn a_refused_entry_is_recomputed_not_served_again() {
    let dir = temp_store("wedge");
    let config = ServeConfig {
        threads: 2,
        store_dir: dir.join("store"),
        spool_dir: dir.join("spool"),
        max_store_entries: None,
    };
    let spec = golden_spec();
    let service = SweepService::start(&config).unwrap();
    let cold = service.submit(&spec).unwrap();
    let original = service.wait_result(cold.job, WAIT).unwrap();
    let entry = config.store_dir.join(format!("{}.json", cold.sweep_id));
    let mut damaged = std::fs::read(&entry).unwrap();
    let mid = damaged.len() / 2;
    damaged[mid] ^= 0x01;
    std::fs::write(&entry, &damaged).unwrap();

    let hit = service.submit(&spec).unwrap();
    assert!(hit.cache_hit);
    let err = service.wait_result(hit.job, WAIT).unwrap_err();
    assert!(
        matches!(err, ServeError::Store(StoreError::Malformed(_))),
        "{err}"
    );
    assert!(!entry.exists(), "the refused entry stayed on disk");
    let again = service.submit(&spec).unwrap();
    assert!(!again.cache_hit, "the refused entry was served again");
    assert_eq!(service.wait_result(again.job, WAIT).unwrap(), original);
    let stats = service.stats();
    assert_eq!(
        (stats.hits, stats.misses, stats.evictions, stats.failed),
        (1, 2, 0, 0)
    );
    drop(service);

    let restarted = SweepService::start(&config).unwrap();
    let warm = restarted.submit(&spec).unwrap();
    assert!(warm.cache_hit);
    assert_eq!(restarted.wait_result(warm.job, WAIT).unwrap(), original);
    drop(restarted);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A finished spool file the store cannot take (here a directory stands
/// where its entry goes; in service, a spool on another filesystem)
/// fails the job with the rename's message and stays in the spool, so a
/// resubmission, once the way is clear, moves it in without rerunning.
#[test]
fn a_failed_rename_into_the_store_fails_the_job() {
    let dir = temp_store("rename_fails");
    let config = ServeConfig {
        threads: 1,
        store_dir: dir.join("store"),
        spool_dir: dir.join("spool"),
        max_store_entries: None,
    };
    let spec = golden_spec();
    let (identity, sealed_bytes) = run_sealed(&spec, &dir.join("reference.ckpt.json"));
    let service = SweepService::start(&config).unwrap();
    let blocker = config.store_dir.join(format!("{}.json", identity.sweep_id));
    std::fs::create_dir_all(blocker.join("occupied")).unwrap();
    let job = service.submit(&spec).unwrap().job;
    let err = service.wait_result(job, WAIT).unwrap_err();
    assert!(
        matches!(&err, ServeError::JobFailed(msg) if msg.contains("I/O failed")),
        "{err}"
    );
    let spool = service.spool_path(identity.sweep_id);
    assert_eq!(std::fs::read_to_string(&spool).unwrap(), sealed_bytes);
    std::fs::remove_dir_all(&blocker).unwrap();
    let again = service.submit(&spec).unwrap();
    assert!(!again.cache_hit);
    assert_eq!(service.wait_result(again.job, WAIT).unwrap(), sealed_bytes);
    assert!(!spool.exists());
    let stats = service.stats();
    assert_eq!((stats.misses, stats.completed, stats.failed), (2, 1, 1));
    drop(service);
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
    let (old, new) = (sealed(id, 1), sealed(id, 2));
    store.store(&id, &old).unwrap();
    let orphan = ident(0x72);
    let tmp = dir.join(format!("{}.json.tmp", id.sweep_id));
    std::fs::write(&tmp, &old[..20]).unwrap();
    std::fs::write(dir.join(format!("{}.json.tmp", orphan.sweep_id)), "torn").unwrap();

    let mut reopened = ResultStore::open(&dir, None).unwrap();
    assert_eq!(reopened.len(), 1);
    assert!(!reopened.contains(orphan.sweep_id));
    assert_eq!(reopened.load(id.sweep_id).unwrap(), old);
    assert_eq!(
        reopened.load(orphan.sweep_id),
        Err(StoreError::NotFound(orphan.sweep_id))
    );
    reopened.store(&id, &new).unwrap();
    assert!(!tmp.exists(), "the store left {} behind", tmp.display());
    assert_eq!(reopened.load(id.sweep_id).unwrap(), new);
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

/// An upgraded service must neither serve a result an earlier format
/// stored nor wedge on a checkpoint an earlier release parked. Both are
/// planted under one spec's ids: a `vc-serve-result/v2` document (the
/// store's format before entries became checkpoints) wrapping a
/// `vc-engine-checkpoint/v3` payload, and that payload as a spool file;
/// a v3 checkpoint is planted as the entry of another id too. The
/// submission is a miss, and its payload is a fresh run's bytes. A
/// current spool file, planted under a second spec's ids, is kept and
/// resumed: its one forged record shows up in that spec's result.
#[test]
fn an_upgraded_service_recomputes_what_an_earlier_schema_stored() {
    let dir = temp_store("upgrade");
    std::fs::create_dir_all(dir.join("store")).unwrap();
    std::fs::create_dir_all(dir.join("spool")).unwrap();
    let spec = golden_spec();
    let config = spec.run_config();
    let (identity, fresh) = run_sealed(&spec, &dir.join("reference.ckpt.json"));

    let v3 = fresh.replacen(CHECKPOINT_SCHEMA, "vc-engine-checkpoint/v3", 1);
    let mut h = IdHasher::new("vc-serve-result/v2");
    h.text(&v3);
    let entry = dir
        .join("store")
        .join(format!("{}.json", identity.sweep_id));
    let v2_entry = format!(
        "{{\n  \"schema\": \"vc-serve-result/v2\",\n  \"sweep_id\": \"{}\",\n  \
         \"instance_id\": \"{}\",\n  \"payload_hash\": \"{:016x}\",\n  \"payload\": \"{}\"\n}}\n",
        identity.sweep_id,
        identity.instance_id,
        h.finish(),
        vc_json::escape(&v3)
    );
    std::fs::write(&entry, v2_entry).unwrap();
    let spool = dir
        .join("spool")
        .join(format!("{}.ckpt.json", identity.sweep_id));
    std::fs::write(&spool, &v3).unwrap();
    let v3_entry = dir
        .join("store")
        .join(format!("{}.json", ident(0x33).sweep_id));
    let v3_sealed =
        sealed(ident(0x33), 1).replacen(CHECKPOINT_SCHEMA, "vc-engine-checkpoint/v3", 1);
    std::fs::write(&v3_entry, v3_sealed).unwrap();

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
    assert_eq!(
        service.stats().store_entries,
        0,
        "an earlier entry was adopted"
    );
    assert!(!entry.exists() && !spool.exists() && !v3_entry.exists());
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
