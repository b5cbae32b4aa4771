//! The versioned binary on-disk instance format (`vc-instance/v1`).
//!
//! Million-node instances are expensive to generate (and to hash): the
//! store lets a generator build `(G, L)` once, [`save_instance`] it, and
//! every later sweep [`load_instance`] the flat arrays straight back into
//! memory instead of re-running the generator per process. The format is
//! the in-memory layout itself — the CSR arrays of [`Graph`] and a fixed
//! 18-byte record per [`NodeLabel`], all little-endian — so a load is one
//! file read plus one exact-capacity pass per array, with no per-node
//! parsing or reallocation.
//!
//! ## Layout (all integers little-endian)
//!
//! | bytes | field |
//! |-------|-------|
//! | 8     | magic `"VCINST1\0"` |
//! | 4     | format version (`u32`, currently 1) |
//! | 8     | [`InstanceId`] of the stored instance (`u64`) |
//! | 8     | node count `n` (`u64`) |
//! | 8     | CSR slot count `num_slots = Σ deg(v)` (`u64`) |
//! | 4·(n+1) | CSR `offsets` (`u32` each) |
//! | 4·num_slots | CSR `neighbors` (`u32` each) |
//! | num_slots | CSR mirror `ports` (`u8` each) |
//! | 8·n   | unique `ids` (`u64` each) |
//! | 18·n  | node labels (see below) |
//!
//! Each label record is `[P, LC, RC, LN, RN]` as 1-based port bytes with
//! `0` encoding `⊥`, a color byte (`0` = `⊥`, `1` = R, `2` = B), a level
//! tag byte and level value byte, a bit byte (`0` = `⊥`, `1` = false,
//! `2` = true), an aux tag byte, and the 8-byte aux payload.
//!
//! ## Trust model
//!
//! Files are untrusted input. Every declared length is range-checked
//! (`usize::try_from`, checked arithmetic) **before** any allocation, the
//! decoded CSR goes through the full [`Graph::validate`], and the header's
//! [`InstanceId`] is recomputed from the decoded content — a stored id
//! that does not match the bytes is a loud [`StoreError::IdentityMismatch`],
//! never a silently mislabeled instance. Each failure mode has its own
//! [`StoreError`] variant so callers (and tests) can tell truncation from
//! corruption from identity forgery.

// VC012: no truncating `as` cast on an on-disk length (non-test code).
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]

use crate::graph::{Graph, GraphError};
use crate::instance::Instance;
use crate::label::{Color, NodeLabel, Port};
use std::path::Path;
use vc_ident::InstanceId;

/// Magic bytes opening every `vc-instance/v1` file.
pub const STORE_MAGIC: [u8; 8] = *b"VCINST1\0";

/// Current (and only) format version.
pub const STORE_VERSION: u32 = 1;

/// Fixed header length: magic + version + instance id + n + num_slots.
const HEADER_LEN: usize = 8 + 4 + 8 + 8 + 8;

/// Encoded bytes per node label.
const LABEL_LEN: usize = 18;

/// Failures of the binary instance store. Every variant is typed so a
/// caller can distinguish I/O trouble from a truncated file from content
/// corruption from an identity mismatch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreError {
    /// Reading or writing the file failed.
    Io(String),
    /// The file does not start with the `vc-instance` magic bytes.
    BadMagic,
    /// The file declares a format version this build cannot decode.
    UnsupportedVersion(u32),
    /// The file ends before the declared arrays do.
    Truncated {
        /// Bytes the declared header implies the file must hold.
        expected: usize,
        /// Bytes actually present.
        actual: usize,
    },
    /// A declared length or field value is out of range (including files
    /// with trailing garbage after the declared arrays).
    Malformed(String),
    /// The decoded CSR arrays are not a structurally valid graph.
    Graph(GraphError),
    /// The decoded content hashes to a different [`InstanceId`] than the
    /// header claims — the file is mislabeled or was tampered with.
    IdentityMismatch {
        /// The id stored in the header.
        stored: InstanceId,
        /// The id recomputed from the decoded content.
        computed: InstanceId,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(msg) => write!(f, "instance store I/O failed: {msg}"),
            StoreError::BadMagic => write!(f, "not a vc-instance file (bad magic)"),
            StoreError::UnsupportedVersion(v) => {
                write!(f, "unsupported vc-instance format version {v}")
            }
            StoreError::Truncated { expected, actual } => write!(
                f,
                "truncated vc-instance file: header declares {expected} bytes, file has {actual}"
            ),
            StoreError::Malformed(msg) => write!(f, "malformed vc-instance file: {msg}"),
            StoreError::Graph(e) => write!(f, "stored graph is structurally invalid: {e}"),
            StoreError::IdentityMismatch { stored, computed } => write!(
                f,
                "instance identity mismatch: header claims {stored}, content hashes to {computed}"
            ),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<GraphError> for StoreError {
    fn from(e: GraphError) -> Self {
        StoreError::Graph(e)
    }
}

/// Encodes `Some(port)` as its 1-based number and `None` (`⊥`) as 0 —
/// exactly the gap the 1-based port numbering leaves free.
fn port_byte(p: Option<Port>) -> u8 {
    p.map_or(0, Port::number)
}

/// Decodes a port byte written by [`port_byte`].
fn byte_port(b: u8) -> Option<Port> {
    (b != 0).then(|| Port::new(b))
}

fn encode_label(label: &NodeLabel, out: &mut Vec<u8>) {
    out.push(port_byte(label.parent));
    out.push(port_byte(label.left_child));
    out.push(port_byte(label.right_child));
    out.push(port_byte(label.left_nbr));
    out.push(port_byte(label.right_nbr));
    out.push(match label.color {
        None => 0,
        Some(Color::R) => 1,
        Some(Color::B) => 2,
    });
    match label.level {
        None => out.extend_from_slice(&[0, 0]),
        Some(l) => out.extend_from_slice(&[1, l]),
    }
    out.push(match label.bit {
        None => 0,
        Some(false) => 1,
        Some(true) => 2,
    });
    match label.aux {
        None => {
            out.push(0);
            out.extend_from_slice(&0u64.to_le_bytes());
        }
        Some(a) => {
            out.push(1);
            out.extend_from_slice(&a.to_le_bytes());
        }
    }
}

fn decode_label(node: usize, bytes: &[u8]) -> Result<NodeLabel, StoreError> {
    debug_assert_eq!(bytes.len(), LABEL_LEN);
    let field = |what: &str, b: u8, max: u8| {
        if b > max {
            Err(StoreError::Malformed(format!(
                "label of node {node}: {what} byte {b} exceeds {max}"
            )))
        } else {
            Ok(b)
        }
    };
    let color = match field("color", bytes[5], 2)? {
        0 => None,
        1 => Some(Color::R),
        _ => Some(Color::B),
    };
    let level = match field("level tag", bytes[6], 1)? {
        0 => None,
        _ => Some(bytes[7]),
    };
    let bit = match field("bit", bytes[8], 2)? {
        0 => None,
        1 => Some(false),
        _ => Some(true),
    };
    let aux_payload = u64::from_le_bytes(bytes[10..18].try_into().expect("18-byte label record"));
    let aux = match field("aux tag", bytes[9], 1)? {
        0 => None,
        _ => Some(aux_payload),
    };
    Ok(NodeLabel {
        parent: byte_port(bytes[0]),
        left_child: byte_port(bytes[1]),
        right_child: byte_port(bytes[2]),
        left_nbr: byte_port(bytes[3]),
        right_nbr: byte_port(bytes[4]),
        color,
        level,
        bit,
        aux,
    })
}

/// Serializes an instance as a `vc-instance/v1` byte image.
///
/// The encoding is a pure function of the instance content (the header id
/// is the content-addressed [`Instance::instance_id`]), so equal instances
/// produce byte-identical files.
pub fn encode_instance(inst: &Instance) -> Vec<u8> {
    let (offsets, neighbors, ports, ids) = inst.graph.raw_parts();
    let total = HEADER_LEN
        + 4 * offsets.len()
        + 4 * neighbors.len()
        + ports.len()
        + 8 * ids.len()
        + LABEL_LEN * inst.labels.len();
    let mut out = Vec::with_capacity(total);
    out.extend_from_slice(&STORE_MAGIC);
    out.extend_from_slice(&STORE_VERSION.to_le_bytes());
    out.extend_from_slice(&inst.instance_id().raw().to_le_bytes());
    out.extend_from_slice(&(inst.n() as u64).to_le_bytes());
    out.extend_from_slice(&(neighbors.len() as u64).to_le_bytes());
    for &o in offsets {
        out.extend_from_slice(&o.to_le_bytes());
    }
    for &w in neighbors {
        out.extend_from_slice(&w.to_le_bytes());
    }
    out.extend_from_slice(ports);
    for &id in ids {
        out.extend_from_slice(&id.to_le_bytes());
    }
    for label in &inst.labels {
        encode_label(label, &mut out);
    }
    debug_assert_eq!(out.len(), total);
    out
}

/// A bounds-checked little-endian reader over the file image.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, len: usize) -> Result<&'a [u8], StoreError> {
        let end = self
            .pos
            .checked_add(len)
            .ok_or_else(|| StoreError::Malformed("length overflow".to_string()))?;
        if end > self.bytes.len() {
            return Err(StoreError::Truncated {
                expected: end,
                actual: self.bytes.len(),
            });
        }
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u32_le(&mut self) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4-byte slice"),
        ))
    }

    fn u64_le(&mut self) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8-byte slice"),
        ))
    }
}

/// Converts a declared length to `usize`, surfacing out-of-range values
/// as a typed error instead of truncating (VC012: decode lengths never go
/// through `as` casts).
fn length_field(what: &str, v: u64) -> Result<usize, StoreError> {
    usize::try_from(v)
        .map_err(|_| StoreError::Malformed(format!("{what} {v} exceeds the address space")))
}

/// Decodes a `vc-instance/v1` byte image produced by [`encode_instance`].
///
/// One pass, exact-capacity allocations, full validation: the CSR arrays
/// are checked by [`Graph::validate`] and the content is re-hashed against
/// the header's [`InstanceId`].
///
/// # Errors
///
/// A typed [`StoreError`] for every failure mode — see the module docs'
/// trust model.
pub fn decode_instance(bytes: &[u8]) -> Result<Instance, StoreError> {
    let mut r = Reader { bytes, pos: 0 };
    if r.take(8)? != STORE_MAGIC {
        return Err(StoreError::BadMagic);
    }
    let version = r.u32_le()?;
    if version != STORE_VERSION {
        return Err(StoreError::UnsupportedVersion(version));
    }
    let stored = InstanceId::from_raw(r.u64_le()?);
    let n = length_field("node count", r.u64_le()?)?;
    let num_slots = length_field("slot count", r.u64_le()?)?;

    // Reject a lying header before allocating anything: the declared
    // lengths must add up (checked, so absurd counts cannot wrap) to
    // exactly the file size.
    let expected = [
        n.checked_add(1).and_then(|o| o.checked_mul(4)),
        num_slots.checked_mul(4),
        Some(num_slots),
        n.checked_mul(8),
        n.checked_mul(LABEL_LEN),
    ]
    .into_iter()
    .try_fold(HEADER_LEN, |acc, part| {
        part.and_then(|p| acc.checked_add(p))
    })
    .ok_or_else(|| StoreError::Malformed("declared lengths overflow".to_string()))?;
    if bytes.len() < expected {
        return Err(StoreError::Truncated {
            expected,
            actual: bytes.len(),
        });
    }
    if bytes.len() > expected {
        return Err(StoreError::Malformed(format!(
            "{} trailing bytes after the declared arrays",
            bytes.len() - expected
        )));
    }

    let mut offsets = Vec::with_capacity(n + 1);
    for _ in 0..n + 1 {
        offsets.push(r.u32_le()?);
    }
    let mut neighbors = Vec::with_capacity(num_slots);
    for _ in 0..num_slots {
        neighbors.push(r.u32_le()?);
    }
    let ports = r.take(num_slots)?.to_vec();
    let mut ids = Vec::with_capacity(n);
    for _ in 0..n {
        ids.push(r.u64_le()?);
    }
    let mut labels = Vec::with_capacity(n);
    for v in 0..n {
        labels.push(decode_label(v, r.take(LABEL_LEN)?)?);
    }

    let graph = Graph::from_raw_parts(offsets, neighbors, ports, ids)?;
    let inst = Instance::new(graph, labels);
    let computed = inst.instance_id();
    if computed != stored {
        return Err(StoreError::IdentityMismatch { stored, computed });
    }
    Ok(inst)
}

/// Writes `inst` to `path` in the `vc-instance/v1` format, atomically
/// (see [`write_atomically`]).
///
/// # Errors
///
/// [`StoreError::Io`] when the file cannot be written.
pub fn save_instance(inst: &Instance, path: &Path) -> Result<(), StoreError> {
    write_atomically(path, encode_instance(inst)).map_err(|e| StoreError::Io(e.to_string()))
}

/// Writes `bytes` to `<path>.tmp`, then renames it over `path`, so a
/// reader — or the next run, after a kill mid-write — sees the old file
/// or the new one, never a torn one. A stale `.tmp` from a killed writer
/// is simply overwritten; writers of one `path` must not overlap. Every
/// file the workspace persists goes through here.
///
/// # Errors
///
/// The error of the write or of the rename.
pub fn write_atomically(path: &Path, bytes: impl AsRef<[u8]>) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}

/// Reads a `vc-instance/v1` file back into an [`Instance`], validating
/// structure and identity (see [`decode_instance`]).
///
/// # Errors
///
/// [`StoreError::Io`] when the file cannot be read, otherwise any decode
/// error.
pub fn load_instance(path: &Path) -> Result<Instance, StoreError> {
    let bytes = std::fs::read(path).map_err(|e| StoreError::Io(e.to_string()))?;
    decode_instance(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    fn sample() -> Instance {
        gen::random_full_binary_tree(151, 7)
    }

    #[test]
    fn encode_decode_round_trips() {
        let inst = sample();
        let bytes = encode_instance(&inst);
        let back = decode_instance(&bytes).unwrap();
        assert_eq!(back, inst);
        assert_eq!(back.instance_id(), inst.instance_id());
    }

    #[test]
    fn encoding_is_deterministic() {
        assert_eq!(encode_instance(&sample()), encode_instance(&sample()));
    }

    #[test]
    fn labels_round_trip_every_field() {
        let mut inst = sample();
        inst.labels[0] = NodeLabel::empty()
            .with_color(Color::B)
            .with_level(3)
            .with_bit(true);
        inst.labels[1].aux = Some(u64::MAX);
        inst.labels[2].bit = Some(false);
        let back = decode_instance(&encode_instance(&inst)).unwrap();
        assert_eq!(back.labels, inst.labels);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = encode_instance(&sample());
        bytes[0] ^= 0xff;
        assert_eq!(decode_instance(&bytes), Err(StoreError::BadMagic));
    }

    #[test]
    fn unknown_version_is_rejected() {
        let mut bytes = encode_instance(&sample());
        bytes[8] = 9;
        assert_eq!(
            decode_instance(&bytes),
            Err(StoreError::UnsupportedVersion(9))
        );
    }

    #[test]
    fn truncation_is_rejected_at_every_length() {
        let bytes = encode_instance(&sample());
        // The empty file, a half header, and a file cut mid-arrays all
        // surface as typed truncation errors.
        for cut in [0, 7, HEADER_LEN - 1, HEADER_LEN + 5, bytes.len() - 1] {
            match decode_instance(&bytes[..cut]) {
                Err(StoreError::Truncated { expected, actual }) => {
                    assert_eq!(actual, cut);
                    assert!(expected > actual);
                }
                other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode_instance(&sample());
        bytes.push(0);
        assert!(matches!(
            decode_instance(&bytes),
            Err(StoreError::Malformed(_))
        ));
    }

    #[test]
    fn flipped_content_fails_the_identity_check() {
        let inst = sample();
        let mut bytes = encode_instance(&inst);
        // Flip the high byte of the first id: the CSR stays valid and the
        // id stays unique, but the content hash changes.
        let ids_start = HEADER_LEN + 4 * (inst.n() + 1) + 5 * inst.graph.m() * 2;
        bytes[ids_start + 7] ^= 0x80;
        match decode_instance(&bytes) {
            Err(StoreError::IdentityMismatch { stored, computed }) => {
                assert_eq!(stored, inst.instance_id());
                assert_ne!(stored, computed);
            }
            other => panic!("expected IdentityMismatch, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_csr_is_rejected_by_validation() {
        let inst = sample();
        let mut bytes = encode_instance(&inst);
        // Point the first neighbor slot at a node beyond n: structurally
        // invalid regardless of hashes.
        let neighbors_start = HEADER_LEN + 4 * (inst.n() + 1);
        bytes[neighbors_start..neighbors_start + 4]
            .copy_from_slice(&u32::try_from(inst.n()).unwrap().to_le_bytes());
        assert!(matches!(decode_instance(&bytes), Err(StoreError::Graph(_))));
    }

    #[test]
    fn bad_label_bytes_are_rejected() {
        let inst = sample();
        let mut bytes = encode_instance(&inst);
        let len = bytes.len();
        // Last label's color byte (offset 5 within the 18-byte record).
        bytes[len - LABEL_LEN + 5] = 7;
        assert!(matches!(
            decode_instance(&bytes),
            Err(StoreError::Malformed(_))
        ));
    }

    #[test]
    fn save_load_round_trips_on_disk() {
        let dir = std::env::temp_dir().join("vc-graph-store-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.vci");
        let inst = sample();
        save_instance(&inst, &path).unwrap();
        assert_eq!(load_instance(&path).unwrap(), inst);
        let missing = load_instance(&dir.join("nope.vci")).unwrap_err();
        assert!(matches!(missing, StoreError::Io(_)));
    }

    #[test]
    fn a_save_replaces_a_stale_temp_file_from_a_killed_writer() {
        let dir = std::env::temp_dir().join("vc-graph-store-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stale.vci");
        let tmp = dir.join("stale.vci.tmp");
        std::fs::write(&tmp, &STORE_MAGIC[..5]).unwrap();
        let inst = sample();
        save_instance(&inst, &path).unwrap();
        assert!(!tmp.exists(), "the save left {} behind", tmp.display());
        assert_eq!(load_instance(&path).unwrap(), inst);
    }

    #[test]
    fn errors_display_nonempty() {
        let errs = [
            StoreError::Io("gone".to_string()),
            StoreError::BadMagic,
            StoreError::UnsupportedVersion(2),
            StoreError::Truncated {
                expected: 10,
                actual: 3,
            },
            StoreError::Malformed("junk".to_string()),
            StoreError::Graph(GraphError::MalformedCsr),
            StoreError::IdentityMismatch {
                stored: InstanceId::from_raw(1),
                computed: InstanceId::from_raw(2),
            },
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }
}
