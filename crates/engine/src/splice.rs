//! Splicing disjoint partial checkpoints into one full sweep result.
//!
//! The merge side of fleet execution (DESIGN.md §15): each worker process
//! runs a [`ChunkSet`]-restricted sweep against its own checkpoint file,
//! and [`splice_checkpoints`] recombines the partial
//! `vc-engine-checkpoint/v4` files into a single complete checkpoint.
//! Because chunk contents are deterministic and identified by index, the
//! spliced file is **byte-identical** to the sealed checkpoint a single
//! unpartitioned process would have written — the `partition` stamp on
//! the inputs is dropped, the chunk lines are written in chunk order
//! whatever order they landed in, and every other byte of the encoding
//! is a pure function of (identity, chunk plan, records). A partial file
//! is not canonical (its lines follow landing order), so the inputs are
//! compared as decoded chunks, never as bytes.
//!
//! Validation is strict and loud, in the spirit of the identity checks on
//! resume: every input must carry the same [`SweepIdentity`] and chunk
//! count, no chunk may be supplied twice ([`SpliceError::Overlap`] — two
//! workers ran the same slice, so at least one range assignment was
//! wrong), and every chunk must be supplied by someone
//! ([`SpliceError::Incomplete`] — a worker died or a slice was never
//! assigned; rerun or reassign before merging). A silent gap would
//! masquerade as a finished sweep with missing records, which is exactly
//! the failure mode the engine exists to rule out.
//!
//! Supervised recovery uses [`splice_partial`] instead: it performs the
//! same validations but *returns* the gap next to a merged, resumable
//! partial checkpoint, so a recovery worker continues the merged file
//! directly instead of re-running whole slices (DESIGN.md §16).

use crate::checkpoint::{SweepCheckpoint, SweepIdentity};
use crate::ChunkSet;

/// Why a set of partial checkpoints cannot be spliced. Every variant
/// names the offending part by its index in the input slice, so a
/// coordinator (or `xtask merge-checkpoints`) can report the file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpliceError {
    /// No checkpoints were supplied.
    Empty,
    /// Part `part` belongs to a different sweep than part 0.
    IdentityMismatch {
        /// Index of the offending checkpoint in the input slice.
        part: usize,
        /// The sweep id of part 0, as hex.
        expected: String,
        /// The offending checkpoint's sweep id, as hex.
        found: String,
    },
    /// Part `part` has a different chunk count than part 0 (same sweep id
    /// but different shape — a corrupt or hand-edited file).
    ShapeMismatch {
        /// Index of the offending checkpoint in the input slice.
        part: usize,
        /// The chunk count of part 0.
        expected: usize,
        /// The offending checkpoint's chunk count.
        found: usize,
    },
    /// Two parts both completed `chunk`: the partition was not disjoint.
    Overlap {
        /// The doubly-supplied chunk index.
        chunk: usize,
        /// Index of the part that supplied the chunk first.
        first: usize,
        /// Index of the part that supplied it again.
        second: usize,
    },
    /// No part completed these chunks: the partition does not cover the
    /// plan (ascending). Reassign or rerun the missing slices, then
    /// splice again — or merge what exists with [`splice_partial`].
    Incomplete {
        /// Every chunk index no part supplied, ascending.
        missing: Vec<usize>,
        /// Total chunks in the plan, so the rendered message is a
        /// complete, pasteable `VC_CHUNKS` reassignment spec.
        total: usize,
    },
}

impl std::fmt::Display for SpliceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpliceError::Empty => write!(f, "no partial checkpoints to splice"),
            SpliceError::IdentityMismatch {
                part,
                expected,
                found,
            } => write!(
                f,
                "part {part} belongs to sweep {found}, the other parts to {expected} — \
                 partials of different sweeps can never be merged"
            ),
            SpliceError::ShapeMismatch {
                part,
                expected,
                found,
            } => write!(
                f,
                "part {part} has {found} chunks where the other parts have {expected}"
            ),
            SpliceError::Overlap {
                chunk,
                first,
                second,
            } => write!(
                f,
                "chunk {chunk} was completed by both part {first} and part {second} — \
                 the partition is not disjoint"
            ),
            SpliceError::Incomplete { missing, total } => {
                let gap = ChunkSet::from_chunks(missing, *total)
                    .map_or_else(|e| e.to_string(), |set| set.to_string());
                write!(
                    f,
                    "{} chunk(s) have no records: the partition does not cover the plan — \
                     reassign the gap (VC_CHUNKS={gap}) or merge what exists with \
                     splice_partial",
                    missing.len(),
                )
            }
        }
    }
}

impl std::error::Error for SpliceError {}

/// Splices disjoint partial checkpoints of one sweep into the complete
/// checkpoint, byte-identical (via [`SweepCheckpoint::to_json`]) to what
/// a single unpartitioned run would have written.
///
/// Part order is irrelevant — chunks carry their own indices. A single
/// complete, unpartitioned checkpoint splices to itself.
///
/// # Errors
///
/// See [`SpliceError`]: empty input, identity or shape mismatch between
/// parts, overlapping chunk coverage, or incomplete coverage.
pub fn splice_checkpoints(parts: &[SweepCheckpoint]) -> Result<SweepCheckpoint, SpliceError> {
    let (merged, missing) = splice_partial(parts)?;
    if !missing.is_empty() {
        return Err(SpliceError::Incomplete {
            missing,
            total: merged.num_chunks,
        });
    }
    Ok(merged)
}

/// Splices whatever disjoint partial coverage exists — the recovery side
/// of fleet supervision. Where [`splice_checkpoints`] refuses a gap,
/// `splice_partial` merges the supplied chunks into one resumable partial
/// checkpoint and *returns* the gap: the merged file can be handed
/// straight to a run under
/// [`Engine::with_checkpoint`](crate::Engine::with_checkpoint), which
/// executes only the missing chunks, so recovery cost is proportional to
/// the lost work rather than to whole lost slices.
///
/// The merged checkpoint carries no `partition` stamp (like a full
/// splice), so once the missing chunks are filled in the file is
/// byte-identical to an unbroken single-process run. The second element
/// is every chunk no part supplied, ascending — empty exactly when the
/// coverage is complete.
///
/// # Errors
///
/// The [`splice_checkpoints`] validations minus the coverage check:
/// empty input, identity or shape mismatch between parts, overlapping
/// chunk coverage.
pub fn splice_partial(
    parts: &[SweepCheckpoint],
) -> Result<(SweepCheckpoint, Vec<usize>), SpliceError> {
    let first = parts.first().ok_or(SpliceError::Empty)?;
    let identity: SweepIdentity = first.identity;
    let num_chunks = first.num_chunks;
    for (p, part) in parts.iter().enumerate() {
        if part.identity != identity {
            return Err(SpliceError::IdentityMismatch {
                part: p,
                expected: identity.sweep_id.to_string(),
                found: part.identity.sweep_id.to_string(),
            });
        }
        if part.num_chunks != num_chunks || part.chunks.len() != num_chunks {
            return Err(SpliceError::ShapeMismatch {
                part: p,
                expected: num_chunks,
                found: part.num_chunks.max(part.chunks.len()),
            });
        }
    }

    let mut merged = SweepCheckpoint::fresh(identity, num_chunks);
    let mut owner: Vec<Option<usize>> = vec![None; num_chunks];
    for (p, part) in parts.iter().enumerate() {
        for (c, chunk) in part.chunks.iter().enumerate() {
            let Some(records) = chunk else { continue };
            if let Some(prev) = owner[c] {
                return Err(SpliceError::Overlap {
                    chunk: c,
                    first: prev,
                    second: p,
                });
            }
            owner[c] = Some(p);
            merged.chunks[c] = Some(records.clone());
        }
    }

    let missing: Vec<usize> = owner
        .iter()
        .enumerate()
        .filter_map(|(c, o)| o.is_none().then_some(c))
        .collect();
    // `fresh` leaves `partition: None`: the merged file is a (possibly
    // partial) checkpoint of the *whole* sweep, so the partition stamps
    // of the inputs must not leak into it — that is what makes a complete
    // splice, or a resumed partial one, byte-identical to an
    // unpartitioned run.
    Ok((merged, missing))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vc_ident::{InstanceId, SweepId};
    use vc_model::cost::ExecutionRecord;

    fn identity(sweep: u64) -> SweepIdentity {
        SweepIdentity {
            instance_id: InstanceId::from_raw(7),
            sweep_id: SweepId::from_raw(sweep),
        }
    }

    fn rec(root: usize) -> ExecutionRecord {
        ExecutionRecord {
            root,
            volume: 3,
            distance: Some(1),
            distance_upper: 2,
            queries: 5,
            random_bits: 0,
            completed: true,
        }
    }

    fn part(sweep: u64, num_chunks: usize, owned: &[usize]) -> SweepCheckpoint {
        let mut ckpt = SweepCheckpoint::fresh(identity(sweep), num_chunks);
        for &c in owned {
            ckpt.chunks[c] = Some(vec![rec(c)]);
        }
        ckpt
    }

    #[test]
    fn disjoint_cover_splices_in_any_order() {
        let parts = [part(1, 4, &[2]), part(1, 4, &[0, 3]), part(1, 4, &[1])];
        let merged = splice_checkpoints(&parts).unwrap();
        assert!(merged.is_complete());
        assert_eq!(merged.partition, None);
        for c in 0..4 {
            assert_eq!(merged.chunks[c], Some(vec![rec(c)]), "chunk {c}");
        }
        let mut reversed = parts.to_vec();
        reversed.reverse();
        assert_eq!(splice_checkpoints(&reversed).unwrap(), merged);
    }

    #[test]
    fn empty_input_is_refused() {
        assert_eq!(splice_checkpoints(&[]), Err(SpliceError::Empty));
    }

    #[test]
    fn foreign_sweep_ids_are_refused() {
        let err = splice_checkpoints(&[part(1, 2, &[0]), part(2, 2, &[1])]).unwrap_err();
        assert!(
            matches!(err, SpliceError::IdentityMismatch { part: 1, .. }),
            "{err}"
        );
    }

    #[test]
    fn shape_mismatch_is_refused() {
        let err = splice_checkpoints(&[part(1, 2, &[0]), part(1, 3, &[1, 2])]).unwrap_err();
        assert_eq!(
            err,
            SpliceError::ShapeMismatch {
                part: 1,
                expected: 2,
                found: 3
            }
        );
    }

    #[test]
    fn overlapping_coverage_is_refused() {
        let err = splice_checkpoints(&[part(1, 3, &[0, 1]), part(1, 3, &[1, 2])]).unwrap_err();
        assert_eq!(
            err,
            SpliceError::Overlap {
                chunk: 1,
                first: 0,
                second: 1
            }
        );
    }

    #[test]
    fn coverage_gaps_are_refused_loudly() {
        let err = splice_checkpoints(&[part(1, 5, &[0, 4])]).unwrap_err();
        assert_eq!(
            err,
            SpliceError::Incomplete {
                missing: vec![1, 2, 3],
                total: 5
            }
        );
        assert!(err.to_string().contains("reassign"), "{err}");
        // The message carries a pasteable reassignment spec.
        assert!(err.to_string().contains("VC_CHUNKS=1..4/5"), "{err}");
    }

    #[test]
    fn partial_splice_merges_what_exists_and_returns_the_gap() {
        let parts = [part(1, 5, &[4]), part(1, 5, &[0])];
        let (merged, missing) = splice_partial(&parts).unwrap();
        assert_eq!(missing, vec![1, 2, 3]);
        assert_eq!(merged.partition, None);
        assert_eq!(merged.completed_chunks(), 2);
        assert_eq!(merged.chunks[0], Some(vec![rec(0)]));
        assert_eq!(merged.chunks[4], Some(vec![rec(4)]));
        // Filling the gap and splicing the result with nothing else
        // reproduces the full merge.
        let mut filled = merged.clone();
        for c in missing {
            filled.chunks[c] = Some(vec![rec(c)]);
        }
        let full = splice_checkpoints(std::slice::from_ref(&filled)).unwrap();
        assert_eq!(full, part(1, 5, &[0, 1, 2, 3, 4]));
    }

    #[test]
    fn partial_splice_of_complete_coverage_has_no_gap() {
        let parts = [part(1, 3, &[1]), part(1, 3, &[0, 2])];
        let (merged, missing) = splice_partial(&parts).unwrap();
        assert!(missing.is_empty());
        assert_eq!(merged, splice_checkpoints(&parts).unwrap());
        // The strict validations still apply.
        assert_eq!(splice_partial(&[]), Err(SpliceError::Empty));
        let overlap = splice_partial(&[part(1, 3, &[0, 1]), part(1, 3, &[1])]).unwrap_err();
        assert!(matches!(overlap, SpliceError::Overlap { chunk: 1, .. }));
    }

    #[test]
    fn single_complete_part_splices_to_itself() {
        let full = part(9, 3, &[0, 1, 2]);
        let merged = splice_checkpoints(std::slice::from_ref(&full)).unwrap();
        assert_eq!(merged, full);
        assert_eq!(merged.to_json(), full.to_json());
    }

    #[test]
    fn partition_stamps_do_not_leak_into_the_merge() {
        let mut a = part(4, 2, &[0]);
        a.partition = Some(crate::ChunkSet::parse("0..1/2").unwrap());
        let mut b = part(4, 2, &[1]);
        b.partition = Some(crate::ChunkSet::parse("1..2/2").unwrap());
        let merged = splice_checkpoints(&[a, b]).unwrap();
        assert_eq!(merged.partition, None);
        assert_eq!(merged.to_json(), part(4, 2, &[0, 1]).to_json());
    }
}
