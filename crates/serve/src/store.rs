//! The content-addressed result store.
//!
//! One finished sweep = one file named `<sweep_id>.json`: the sweep's
//! sealed `vc-engine-checkpoint/v4` file itself, renamed in from the
//! spool ([`ResultStore::store_file`]). The file is served as it is, so
//! one format and one digest serve the spool, the store and the wire.
//! [`vc_engine::sealed_identity`] checks an entry by its header and its
//! seal, an [`IdHasher`](vc_ident::IdHasher) digest of every byte before
//! it, without decoding a chunk line; a load then refuses every
//! corruption the instance store (`vc-instance/v1`) refuses:
//!
//! * a flipped byte anywhere, a truncation (a torn or missing seal line
//!   included) and a header of another schema are
//!   [`StoreError::Malformed`], the engine's refusal attached;
//! * a header whose `sweep_id` is not the requested id — a renamed or
//!   cross-linked file — is a [`StoreError::IdentityMismatch`].
//!
//! Entries appear whole, by a rename, so loads need no lock; a stale
//! `.tmp` left by a killed writer is never adopted or read.
//! [`ResultStore::open`] adopts only entries whose head names
//! [`CHECKPOINT_SCHEMA`] and deletes the rest: an entry of an earlier
//! format (a document wrapping an escaped checkpoint, as the store wrote
//! before, or a checkpoint of a retired schema) is recomputed, never
//! served.
//!
//! Eviction is FIFO over insertion order with an optional entry cap;
//! evictions are counted for the `vc-serve-report/v1` document.

use std::collections::VecDeque;
use std::fmt;
use std::path::{Path, PathBuf};

use vc_engine::{sealed_identity, write_atomically, SweepId, SweepIdentity, CHECKPOINT_SCHEMA};

/// Why a store operation failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreError {
    /// Filesystem failure (message carries the OS error).
    Io(String),
    /// The entry is not a sealed `vc-engine-checkpoint/v4` file whose
    /// seal matches its bytes: truncated, altered, or of another schema.
    Malformed(String),
    /// No entry under the requested id.
    NotFound(SweepId),
    /// The header's `sweep_id` disagrees with the id the entry was
    /// addressed by (renamed or cross-linked file).
    IdentityMismatch {
        /// The id the caller asked for (and the filename encodes).
        requested: SweepId,
        /// The id the entry's header claims.
        stored: SweepId,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(msg) => write!(f, "result store I/O failed: {msg}"),
            StoreError::Malformed(msg) => write!(f, "malformed result entry: {msg}"),
            StoreError::NotFound(id) => write!(f, "no stored result for sweep {id}"),
            StoreError::IdentityMismatch { requested, stored } => write!(
                f,
                "result identity mismatch: requested sweep {requested}, entry claims {stored}"
            ),
        }
    }
}

impl std::error::Error for StoreError {}

fn io(e: std::io::Error) -> StoreError {
    StoreError::Io(e.to_string())
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
    /// head does not name [`CHECKPOINT_SCHEMA`] are deleted, not counted
    /// as evictions.
    pub fn open(dir: &Path, cap: Option<usize>) -> Result<Self, StoreError> {
        use std::io::Read as _;
        let head = format!("{{\"schema\": \"{CHECKPOINT_SCHEMA}\",");
        std::fs::create_dir_all(dir).map_err(io)?;
        let mut ids = Vec::new();
        for entry in std::fs::read_dir(dir).map_err(io)? {
            let entry = entry.map_err(io)?;
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
                .map_err(io)?;
            if bytes == head.as_bytes() {
                ids.push(id);
            } else {
                std::fs::remove_file(entry.path()).map_err(io)?;
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

    /// Stores `payload`, a sealed checkpoint file's bytes, as the entry
    /// of `identity`, atomically. See [`ResultStore::store_file`].
    pub fn store(&mut self, identity: &SweepIdentity, payload: &str) -> Result<(), StoreError> {
        write_atomically(&self.entry_path(identity.sweep_id), payload).map_err(io)?;
        self.admit(identity.sweep_id);
        Ok(())
    }

    /// Renames the sealed checkpoint file at `path` into the store as the
    /// entry of `id`, evicting oldest-first past the cap. Re-storing an
    /// existing id replaces the entry without touching the FIFO order. The
    /// rename fails, and the file stays where it is, if `path` lies on
    /// another filesystem.
    pub fn store_file(&mut self, id: SweepId, path: &Path) -> Result<(), StoreError> {
        std::fs::rename(path, self.entry_path(id)).map_err(io)?;
        self.admit(id);
        Ok(())
    }

    fn admit(&mut self, id: SweepId) {
        if !self.order.contains(&id) {
            self.order.push_back(id);
        }
        while self.cap.is_some_and(|cap| self.order.len() > cap) {
            if let Some(oldest) = self.order.pop_front() {
                let _ = std::fs::remove_file(self.entry_path(oldest));
                self.evictions += 1;
            }
        }
    }

    /// Drops the entry of `id` from the index and from disk, without
    /// counting an eviction: the service removes an entry that a load
    /// refused, so the next submission of its sweep recomputes it.
    pub(crate) fn remove(&mut self, id: SweepId) {
        self.order.retain(|&other| other != id);
        let _ = std::fs::remove_file(self.entry_path(id));
    }

    /// Loads the entry stored under `id`, checking its header's identity
    /// and its seal before returning a byte.
    pub fn load(&self, id: SweepId) -> Result<String, StoreError> {
        Self::load_entry(&self.entry_path(id), id)
    }

    /// [`ResultStore::load`] of the entry at `path`: it needs no store,
    /// so the service can take the path under its lock and load outside.
    pub(crate) fn load_entry(path: &Path, id: SweepId) -> Result<String, StoreError> {
        let bytes = std::fs::read(path).map_err(|e| match e.kind() {
            std::io::ErrorKind::NotFound => StoreError::NotFound(id),
            _ => io(e),
        })?;
        let text = String::from_utf8(bytes).map_err(|e| StoreError::Malformed(e.to_string()))?;
        let stored = sealed_identity(&text).map_err(StoreError::Malformed)?;
        if stored.sweep_id != id {
            return Err(StoreError::IdentityMismatch {
                requested: id,
                stored: stored.sweep_id,
            });
        }
        Ok(text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vc_engine::{InstanceId, SweepCheckpoint};

    fn ident(raw: u64) -> SweepIdentity {
        SweepIdentity {
            instance_id: InstanceId::from_raw(raw ^ 0xabcd),
            sweep_id: SweepId::from_raw(raw),
        }
    }

    /// A sealed checkpoint of `ident(raw)` with `num_chunks` empty chunks.
    fn sealed(raw: u64, num_chunks: usize) -> String {
        let mut ckpt = SweepCheckpoint::fresh(ident(raw), num_chunks);
        ckpt.chunks.fill(Some(Vec::new()));
        ckpt.to_json()
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("vc-serve-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn round_trip_and_reopen() {
        let dir = temp_dir("rt");
        let mut store = ResultStore::open(&dir.join("store"), None).expect("open");
        let id = ident(7);
        store.store(&id, &sealed(7, 2)).expect("store");
        assert!(store.contains(id.sweep_id));
        assert_eq!(store.load(id.sweep_id).expect("load"), sealed(7, 2));
        // A spool file moves in whole.
        let spool = dir.join("8.ckpt.json");
        std::fs::write(&spool, sealed(8, 1)).expect("spool");
        store
            .store_file(ident(8).sweep_id, &spool)
            .expect("store_file");
        assert!(!spool.exists());
        let reopened = ResultStore::open(&dir.join("store"), None).expect("reopen");
        assert_eq!(reopened.len(), 2);
        assert!(reopened.contains(id.sweep_id));
        assert_eq!(
            reopened.load(ident(8).sweep_id).expect("load"),
            sealed(8, 1)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fifo_eviction_is_counted() {
        let dir = temp_dir("evict");
        let mut store = ResultStore::open(&dir, Some(2)).expect("open");
        for raw in 1..=4u64 {
            store.store(&ident(raw), &sealed(raw, 1)).expect("store");
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
        // A removal is no eviction.
        store.remove(SweepId::from_raw(4));
        assert!(!store.contains(SweepId::from_raw(4)));
        assert_eq!(store.evictions(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restore_of_existing_id_keeps_one_entry() {
        let dir = temp_dir("dup");
        let mut store = ResultStore::open(&dir, Some(8)).expect("open");
        store.store(&ident(3), &sealed(3, 1)).expect("store");
        store.store(&ident(3), &sealed(3, 2)).expect("restore");
        assert_eq!(store.len(), 1);
        assert_eq!(
            store.load(SweepId::from_raw(3)).expect("load"),
            sealed(3, 2)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
