//! The content-addressed result store (`vc-serve-result/v2`).
//!
//! One finished sweep = one file named `<sweep_id>.json` holding the
//! sweep's final checkpoint document as an escaped payload, wrapped with
//! enough identity to refuse every corruption the instance store
//! (`vc-instance/v1`) refuses:
//!
//! * the **filename** id must equal the **embedded** `sweep_id` field —
//!   a renamed or cross-linked file is an [`StoreError::IdentityMismatch`],
//! * a `payload_hash` digest (an [`IdHasher`] fold over the payload
//!   text, domain [`RESULT_SCHEMA`]) must recompute — a flipped byte
//!   inside an otherwise well-formed document is a
//!   [`StoreError::DigestMismatch`],
//! * truncations and stray bytes fail JSON parsing —
//!   [`StoreError::Malformed`].
//!
//! Hashes are emitted as hex *strings*. vc-json reads plain integers
//! exactly, but an id is a name rather than a quantity: the hex form is
//! the one file names and checkpoints use, it keeps stored files
//! byte-compatible, and generic JSON readers round integers past 2^53.
//!
//! Entries are replaced atomically ([`vc_engine::write_atomically`]), so
//! loads need no lock; a stale `.tmp` left by a killed writer is never
//! adopted or read. [`ResultStore::open`] adopts only entries whose head
//! carries [`RESULT_SCHEMA`] and deletes the rest: an entry of an earlier
//! schema wraps a payload no fresh run produces (`v1` wrapped
//! `vc-engine-checkpoint/v2` files), so it is recomputed, never served.
//!
//! Eviction is FIFO over insertion order with an optional entry cap;
//! evictions are counted for the `vc-serve-report/v1` document.

use std::collections::VecDeque;
use std::fmt;
use std::path::{Path, PathBuf};

use vc_engine::{write_atomically, SweepId, SweepIdentity};
use vc_ident::IdHasher;
use vc_json::Value;

/// Schema tag of one stored result document.
pub const RESULT_SCHEMA: &str = "vc-serve-result/v2";

/// Why a store operation failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreError {
    /// Filesystem failure (message carries the OS error).
    Io(String),
    /// The document is not a well-formed `vc-serve-result/v2` file —
    /// truncated, not JSON, wrong schema tag or missing fields.
    Malformed(String),
    /// No entry under the requested id.
    NotFound(SweepId),
    /// The embedded `sweep_id` disagrees with the id the entry was
    /// addressed by (renamed or cross-linked file).
    IdentityMismatch {
        /// The id the caller asked for (and the filename encodes).
        requested: SweepId,
        /// The id the document claims.
        stored: SweepId,
    },
    /// The payload digest does not recompute — the payload bytes were
    /// altered after the document was written.
    DigestMismatch {
        /// Digest recorded in the document.
        stored: u64,
        /// Digest of the payload as read.
        computed: u64,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(msg) => write!(f, "result store I/O failed: {msg}"),
            StoreError::Malformed(msg) => write!(f, "malformed result document: {msg}"),
            StoreError::NotFound(id) => write!(f, "no stored result for sweep {id}"),
            StoreError::IdentityMismatch { requested, stored } => write!(
                f,
                "result identity mismatch: requested sweep {requested}, document claims {stored}"
            ),
            StoreError::DigestMismatch { stored, computed } => write!(
                f,
                "result payload digest mismatch: stored {stored:016x}, computed {computed:016x}"
            ),
        }
    }
}

impl std::error::Error for StoreError {}

fn payload_digest(payload: &str) -> u64 {
    let mut h = IdHasher::new(RESULT_SCHEMA);
    h.text(payload);
    h.finish()
}

/// The content-addressed on-disk result store.
#[derive(Debug)]
pub struct ResultStore {
    dir: PathBuf,
    cap: Option<usize>,
    /// Insertion order, oldest first — the FIFO eviction queue.
    order: VecDeque<SweepId>,
    evictions: u64,
}

impl ResultStore {
    /// Opens (creating if needed) a store rooted at `dir` with an
    /// optional entry cap. Pre-existing entries are adopted in id order
    /// (insertion order is not persisted across restarts); those whose
    /// head does not carry [`RESULT_SCHEMA`] are deleted, not counted as
    /// evictions.
    pub fn open(dir: &Path, cap: Option<usize>) -> Result<Self, StoreError> {
        use std::io::Read as _;
        let head = format!("{{\n  \"schema\": \"{RESULT_SCHEMA}\",");
        std::fs::create_dir_all(dir).map_err(|e| StoreError::Io(e.to_string()))?;
        let mut ids = Vec::new();
        let entries = std::fs::read_dir(dir).map_err(|e| StoreError::Io(e.to_string()))?;
        for entry in entries {
            let entry = entry.map_err(|e| StoreError::Io(e.to_string()))?;
            let name = entry.file_name();
            let Some(stem) = name.to_str().and_then(|n| n.strip_suffix(".json")) else {
                continue;
            };
            let Some(id) = SweepId::parse_hex(stem) else {
                continue;
            };
            let mut bytes = Vec::with_capacity(head.len());
            std::fs::File::open(entry.path())
                .and_then(|f| f.take(head.len() as u64).read_to_end(&mut bytes))
                .map_err(|e| StoreError::Io(e.to_string()))?;
            if bytes == head.as_bytes() {
                ids.push(id);
            } else {
                std::fs::remove_file(entry.path()).map_err(|e| StoreError::Io(e.to_string()))?;
            }
        }
        ids.sort();
        Ok(Self {
            dir: dir.to_path_buf(),
            cap,
            order: ids.into(),
            evictions: 0,
        })
    }

    pub(crate) fn entry_path(&self, id: SweepId) -> PathBuf {
        self.dir.join(format!("{id}.json"))
    }

    /// Whether an entry for `id` exists.
    pub fn contains(&self, id: SweepId) -> bool {
        self.order.contains(&id)
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Entries evicted since the store was opened.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Stores `payload` (a checkpoint document) under `identity`,
    /// evicting oldest-first past the cap. Re-storing an existing id
    /// replaces the entry atomically without touching the FIFO order.
    pub fn store(&mut self, identity: &SweepIdentity, payload: &str) -> Result<(), StoreError> {
        const TAIL: &str = "\"\n}\n";
        let head = format!(
            "{{\n  \"schema\": \"{RESULT_SCHEMA}\",\n  \"sweep_id\": \"{}\",\n  \
             \"instance_id\": \"{}\",\n  \"payload_hash\": \"{:016x}\",\n  \"payload\": \"",
            identity.sweep_id,
            identity.instance_id,
            payload_digest(payload)
        );
        // One exact-size buffer: the payload is escaped straight into it.
        let mut doc =
            String::with_capacity(head.len() + vc_json::escaped_len(payload) + TAIL.len());
        doc.push_str(&head);
        vc_json::escape_into(&mut doc, payload);
        doc.push_str(TAIL);
        write_atomically(&self.entry_path(identity.sweep_id), &doc)
            .map_err(|e| StoreError::Io(e.to_string()))?;
        if !self.order.contains(&identity.sweep_id) {
            self.order.push_back(identity.sweep_id);
        }
        while self.cap.is_some_and(|cap| self.order.len() > cap) {
            if let Some(oldest) = self.order.pop_front() {
                let _ = std::fs::remove_file(self.entry_path(oldest));
                self.evictions += 1;
            }
        }
        Ok(())
    }

    /// Loads the payload stored under `id`, verifying the embedded
    /// identity and the payload digest before returning a byte.
    pub fn load(&self, id: SweepId) -> Result<String, StoreError> {
        Self::load_entry(&self.entry_path(id), id)
    }

    /// [`ResultStore::load`] of the entry at `path`: it needs no store,
    /// so the service can take the path under its lock and load outside.
    pub(crate) fn load_entry(path: &Path, id: SweepId) -> Result<String, StoreError> {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(StoreError::NotFound(id))
            }
            Err(e) => return Err(StoreError::Io(e.to_string())),
        };
        let doc = vc_json::parse(&text).map_err(StoreError::Malformed)?;
        let field = |key: &str| -> Result<&str, StoreError> {
            doc.get(key)
                .and_then(Value::as_str)
                .ok_or_else(|| StoreError::Malformed(format!("missing field: {key}")))
        };
        if field("schema")? != RESULT_SCHEMA {
            return Err(StoreError::Malformed(format!(
                "wrong schema tag (want {RESULT_SCHEMA})"
            )));
        }
        let stored_id = SweepId::parse_hex(field("sweep_id")?)
            .ok_or_else(|| StoreError::Malformed("unparsable sweep_id".to_string()))?;
        if stored_id != id {
            return Err(StoreError::IdentityMismatch {
                requested: id,
                stored: stored_id,
            });
        }
        let stored_hash = vc_ident::parse_hex(field("payload_hash")?)
            .ok_or_else(|| StoreError::Malformed("unparsable payload_hash".to_string()))?;
        // The payload, the bulk of the document, moves out of the parsed
        // tree rather than being copied.
        let payload = match doc {
            Value::Obj(members) => members.into_iter().find(|(k, _)| k == "payload"),
            _ => None,
        };
        let Some((_, Value::Str(payload))) = payload else {
            return Err(StoreError::Malformed("missing field: payload".to_string()));
        };
        let computed = payload_digest(&payload);
        if stored_hash != computed {
            return Err(StoreError::DigestMismatch {
                stored: stored_hash,
                computed,
            });
        }
        Ok(payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vc_engine::InstanceId;

    fn ident(raw: u64) -> SweepIdentity {
        SweepIdentity {
            instance_id: InstanceId::from_raw(raw ^ 0xabcd),
            sweep_id: SweepId::from_raw(raw),
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("vc-serve-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn round_trip_and_reopen() {
        let dir = temp_dir("rt");
        let mut store = ResultStore::open(&dir, None).expect("open");
        let id = ident(7);
        store.store(&id, "{\"k\": [1, 2]}").expect("store");
        assert!(store.contains(id.sweep_id));
        assert_eq!(store.load(id.sweep_id).expect("load"), "{\"k\": [1, 2]}");
        let reopened = ResultStore::open(&dir, None).expect("reopen");
        assert_eq!(reopened.len(), 1);
        assert!(reopened.contains(id.sweep_id));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fifo_eviction_is_counted() {
        let dir = temp_dir("evict");
        let mut store = ResultStore::open(&dir, Some(2)).expect("open");
        for raw in 1..=4u64 {
            store.store(&ident(raw), "payload").expect("store");
        }
        assert_eq!(store.len(), 2);
        assert_eq!(store.evictions(), 2);
        assert!(!store.contains(SweepId::from_raw(1)));
        assert!(!store.contains(SweepId::from_raw(2)));
        assert!(store.contains(SweepId::from_raw(4)));
        assert_eq!(
            store.load(SweepId::from_raw(1)),
            Err(StoreError::NotFound(SweepId::from_raw(1)))
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restore_of_existing_id_keeps_one_entry() {
        let dir = temp_dir("dup");
        let mut store = ResultStore::open(&dir, Some(8)).expect("open");
        store.store(&ident(3), "first").expect("store");
        store.store(&ident(3), "second").expect("restore");
        assert_eq!(store.len(), 1);
        assert_eq!(store.load(SweepId::from_raw(3)).expect("load"), "second");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
