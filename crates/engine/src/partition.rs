//! Chunk partitioning: restricting one sweep to a disjoint subset of its
//! planned chunks, so a fleet of worker processes can share the work.
//!
//! The chunk plan ([`plan_chunks`](crate::plan_chunks)) is a pure function
//! of the start count, so every process that agrees on the sweep inputs
//! agrees on the partition boundaries. A [`ChunkSet`] names a union of
//! half-open slices of that *full* plan of `total` chunks. The spec
//! syntax is `lo..hi/total` for one slice, e.g. `VC_CHUNKS=0..512/2048`,
//! or a comma-separated list such as `VC_CHUNKS=3..7,12/40`: the shape a
//! supervisor reassigns when a dead worker's missing chunks are not
//! contiguous. The engine then claims only chunks inside the set.
//! Because the set carries the plan's total, a worker launched against
//! the wrong sweep shape fails loudly ([`RangeError::PlanMismatch`])
//! instead of silently computing a different slice than the coordinator
//! intended.
//!
//! The partition never enters the [`SweepId`](vc_ident::SweepId):
//! identity covers the sweep (instance, algorithm, config, starts, full
//! plan), not which process happens to execute which slice. All
//! partitions of one sweep therefore share one identity, which is what
//! lets their partial checkpoints be spliced back into a single file
//! byte-identical to an unpartitioned run (see `splice`).

/// Environment variable restricting a sweep to a chunk set
/// (`VC_CHUNKS=lo..hi/total` or `VC_CHUNKS=3..7,12/40`; see
/// [`ChunkSet::parse`]).
pub const CHUNKS_ENV: &str = "VC_CHUNKS";

/// Strict integer component of a chunk spec: ASCII digits only — no
/// sign, no whitespace, no empty string, so `VC_CHUNKS=" 0..4/8"` and
/// `+0..4/8` are refused. A partition spec names chunks for a fleet
/// worker; anything that is not exactly the canonical
/// [`Display`](std::fmt::Display) form is refused loudly rather than
/// normalized.
fn parse_component(s: &str) -> Option<usize> {
    if s.is_empty() || !s.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    s.parse().ok()
}

/// An unusable chunk-range specification. Always loud: a worker running
/// the wrong slice would poison the merged result, so nothing here is
/// clamped or ignored.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RangeError {
    /// The spec does not have the `lo..hi/total` shape.
    Malformed(String),
    /// `lo > hi`: the slice is inverted.
    Inverted {
        /// First chunk of the slice.
        lo: usize,
        /// Past-the-end chunk of the slice.
        hi: usize,
    },
    /// `hi > total`: the slice reaches past the plan it claims to slice.
    BeyondTotal {
        /// Past-the-end chunk of the slice.
        hi: usize,
        /// Chunks in the plan the spec names.
        total: usize,
    },
    /// The range was planned against a different sweep shape: its `total`
    /// disagrees with the actual chunk plan of the start set.
    PlanMismatch {
        /// Chunks the range says the plan has.
        total: usize,
        /// Chunks the sweep's plan actually has.
        num_chunks: usize,
    },
}

impl std::fmt::Display for RangeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RangeError::Malformed(spec) => {
                write!(f, "`{spec}` is not a chunk range (expected `lo..hi/total`)")
            }
            RangeError::Inverted { lo, hi } => {
                write!(f, "chunk range {lo}..{hi} is inverted (lo > hi)")
            }
            RangeError::BeyondTotal { hi, total } => {
                write!(
                    f,
                    "chunk range ends at {hi} but the plan has {total} chunks"
                )
            }
            RangeError::PlanMismatch { total, num_chunks } => write!(
                f,
                "chunk range was cut from a plan of {total} chunks, but this sweep plans \
                 {num_chunks} — the partition belongs to a different sweep shape"
            ),
        }
    }
}

impl std::error::Error for RangeError {}

/// A sorted, disjoint set of chunks of a plan of `total` chunks: one
/// contiguous slice for a fleet worker ([`ChunkSet::range`],
/// [`ChunkSet::split`]), or any union of slices for a recovery worker
/// that reruns a dead worker's missing chunks ([`ChunkSet::from_chunks`]).
/// The spec syntax is comma-separated items before the `/total`, each
/// either a half-open run `lo..hi` or a single chunk index, e.g.
/// `VC_CHUNKS=3..7,12/40`.
///
/// Sets are normalized on construction — runs sorted, overlapping or
/// adjacent runs coalesced, empty runs dropped — so two specs naming the
/// same chunks compare equal and display identically. A single-run set
/// displays as `lo..hi/total`, the layout of the `partition` stamps of
/// range-restricted checkpoints; the empty set displays as `0..0/total`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChunkSet {
    /// Sorted, disjoint, non-adjacent, non-empty half-open runs.
    runs: Vec<(usize, usize)>,
    total: usize,
}

impl ChunkSet {
    /// The contiguous slice `lo..hi` of a plan of `total` chunks.
    ///
    /// # Errors
    ///
    /// [`RangeError::Inverted`] when `lo > hi`,
    /// [`RangeError::BeyondTotal`] when `hi > total`.
    pub fn range(lo: usize, hi: usize, total: usize) -> Result<Self, RangeError> {
        Self::from_runs(&[(lo, hi)], total)
    }

    /// A validated set from arbitrary half-open runs over a plan of
    /// `total` chunks. Runs may arrive unsorted, overlapping, adjacent or
    /// empty; the set is normalized.
    ///
    /// # Errors
    ///
    /// The [`ChunkSet::range`] validations, per run.
    pub fn from_runs(runs: &[(usize, usize)], total: usize) -> Result<Self, RangeError> {
        let mut keep = Vec::with_capacity(runs.len());
        for &(lo, hi) in runs {
            if lo > hi {
                return Err(RangeError::Inverted { lo, hi });
            }
            if hi > total {
                return Err(RangeError::BeyondTotal { hi, total });
            }
            if lo < hi {
                keep.push((lo, hi));
            }
        }
        keep.sort_unstable();
        let mut normalized: Vec<(usize, usize)> = Vec::with_capacity(keep.len());
        for (lo, hi) in keep {
            match normalized.last_mut() {
                // Touching or overlapping runs coalesce into one.
                Some(last) if lo <= last.1 => last.1 = last.1.max(hi),
                _ => normalized.push((lo, hi)),
            }
        }
        Ok(Self {
            runs: normalized,
            total,
        })
    }

    /// The set of exactly the given chunk indices (any order, duplicates
    /// welcome), grouped into maximal contiguous runs.
    ///
    /// # Errors
    ///
    /// [`RangeError::BeyondTotal`] when an index is outside the plan.
    pub fn from_chunks(chunks: &[usize], total: usize) -> Result<Self, RangeError> {
        let runs: Vec<(usize, usize)> = chunks.iter().map(|&c| (c, c + 1)).collect();
        Self::from_runs(&runs, total)
    }

    /// The unrestricted set covering a whole plan of `total` chunks.
    pub fn full(total: usize) -> Self {
        let runs = if total == 0 {
            Vec::new()
        } else {
            vec![(0, total)]
        };
        Self { runs, total }
    }

    /// Cuts a plan of `total` chunks into `parts` contiguous, disjoint,
    /// jointly-covering slices (the coordinator side of a fleet). Earlier
    /// slices get the remainder chunks, so part sizes differ by at most
    /// one; with `parts > total`, trailing slices are empty. `parts` is
    /// clamped to at least 1.
    pub fn split(total: usize, parts: usize) -> Vec<ChunkSet> {
        let parts = parts.max(1);
        let (base, rem) = (total / parts, total % parts);
        let mut lo = 0;
        (0..parts)
            .map(|p| {
                let hi = lo + base + usize::from(p < rem);
                let runs = if lo < hi { vec![(lo, hi)] } else { Vec::new() };
                lo = hi;
                Self { runs, total }
            })
            .collect()
    }

    /// Parses a `VC_CHUNKS` spec: comma-separated runs and/or single
    /// chunk indices, then `/total` — `0..512/2048`, `3..7,12/40`,
    /// `12/40`. Parsing is strict: bare ASCII digits only, no whitespace
    /// around commas or components, no sign characters.
    ///
    /// # Errors
    ///
    /// [`RangeError::Malformed`] for anything that is not that shape,
    /// including a component past `usize` or the index `usize::MAX`, plus
    /// the per-run [`ChunkSet::from_runs`] validations.
    pub fn parse(spec: &str) -> Result<Self, RangeError> {
        let malformed = || RangeError::Malformed(spec.to_string());
        let (items, total) = spec.split_once('/').ok_or_else(malformed)?;
        let total = parse_component(total).ok_or_else(malformed)?;
        let mut runs = Vec::new();
        for item in items.split(',') {
            let run = match item.split_once("..") {
                Some((lo, hi)) => (
                    parse_component(lo).ok_or_else(malformed)?,
                    parse_component(hi).ok_or_else(malformed)?,
                ),
                None => {
                    // An index with no successor names no chunk of any plan.
                    let c = parse_component(item).ok_or_else(malformed)?;
                    (c, c.checked_add(1).ok_or_else(malformed)?)
                }
            };
            runs.push(run);
        }
        Self::from_runs(&runs, total)
    }

    /// Chunks in the full plan this set partitions.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Chunks inside the set.
    pub fn len(&self) -> usize {
        self.runs.iter().map(|(lo, hi)| hi - lo).sum()
    }

    /// Whether the set contains no chunks.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Whether `chunk` falls inside the set.
    pub fn contains(&self, chunk: usize) -> bool {
        self.runs.iter().any(|&(lo, hi)| (lo..hi).contains(&chunk))
    }

    /// Whether this set covers its whole plan.
    pub fn is_full(&self) -> bool {
        self.runs == [(0, self.total)] || (self.total == 0 && self.runs.is_empty())
    }

    /// Checks the set against the actual chunk count of a planned sweep.
    ///
    /// # Errors
    ///
    /// [`RangeError::PlanMismatch`] when the set's `total` is not
    /// `num_chunks`: the partition was cut from a different plan.
    pub fn check_plan(&self, num_chunks: usize) -> Result<(), RangeError> {
        if self.total == num_chunks {
            Ok(())
        } else {
            Err(RangeError::PlanMismatch {
                total: self.total,
                num_chunks,
            })
        }
    }

    /// The maximal contiguous half-open runs `(lo, hi)` of the set,
    /// ascending.
    pub(crate) fn runs(&self) -> &[(usize, usize)] {
        &self.runs
    }

    /// Every chunk index in the set, ascending.
    pub fn chunks(&self) -> impl Iterator<Item = usize> + '_ {
        self.runs.iter().flat_map(|&(lo, hi)| lo..hi)
    }
}

/// The canonical spec, which [`ChunkSet::parse`] reads back: maximal runs
/// in ascending order, a single chunk bare (`3..7,12/40`), and `0..0/total`
/// for the empty set. Every `VC_CHUNKS` value, partition stamp and gap
/// report is rendered here.
impl std::fmt::Display for ChunkSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.runs.is_empty() {
            return write!(f, "0..0/{}", self.total);
        }
        for (i, &(lo, hi)) in self.runs.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            if hi == lo + 1 {
                write!(f, "{lo}")?;
            } else {
                write!(f, "{lo}..{hi}")?;
            }
        }
        write!(f, "/{}", self.total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_through_display() {
        for spec in ["0..512/2048", "3..3/7", "0..0/0", "1..2/4"] {
            let set = ChunkSet::parse(spec).unwrap();
            assert_eq!(ChunkSet::parse(&set.to_string()), Ok(set), "spec {spec:?}");
        }
        let r = ChunkSet::parse("5..9/16").unwrap();
        assert_eq!(ChunkSet::range(5, 9, 16), Ok(r.clone()));
        assert_eq!((r.runs(), r.total()), (&[(5, 9)][..], 16));
        assert_eq!(r.len(), 4);
        assert!(r.contains(5) && r.contains(8));
        assert!(!r.contains(4) && !r.contains(9));
        assert!(!r.is_full());
        assert!(ChunkSet::full(16).is_full());
    }

    #[test]
    fn malformed_specs_are_loud() {
        for spec in ["", "0..4", "0-4/8", "a..b/c", "0..4/8/2", "-1..4/8"] {
            assert!(
                matches!(ChunkSet::parse(spec), Err(RangeError::Malformed(_))),
                "spec {spec:?}"
            );
        }
        // A bare index is a one-chunk set, not a malformed range; the
        // index `usize::MAX` has no successor, so it is refused, not
        // wrapped or overflowed.
        assert_eq!(ChunkSet::parse("4/8"), ChunkSet::range(4, 5, 8));
        for spec in [
            "18446744073709551615/18446744073709551615",
            "18446744073709551615/4",
        ] {
            let err = RangeError::Malformed(spec.to_string());
            assert_eq!(ChunkSet::parse(spec), Err(err));
        }
        assert_eq!(
            ChunkSet::parse("5..2/8"),
            Err(RangeError::Inverted { lo: 5, hi: 2 })
        );
        assert_eq!(
            ChunkSet::parse("0..9/8"),
            Err(RangeError::BeyondTotal { hi: 9, total: 8 })
        );
    }

    #[test]
    fn both_parse_paths_reject_signs_and_whitespace_identically() {
        // Digits only, and the typed error carries the offending spec
        // verbatim: whitespace and signs are refused, never normalized.
        for spec in [
            " 0..4/8", "0..4/8 ", "0 ..4/8", "0.. 4/8", "0..4/ 8", "0..4 /8", "+0..4/8", "0..+4/8",
            "0..4/+8", "\t0..4/8", "0..4/8\n",
        ] {
            assert_eq!(
                ChunkSet::parse(spec),
                Err(RangeError::Malformed(spec.to_string())),
                "spec {spec:?}"
            );
        }
        // Edge cases the parser and the range constructor agree on:
        // lo==hi (a valid empty slice), hi>total (typed, not malformed).
        assert!(matches!(ChunkSet::parse(""), Err(RangeError::Malformed(_))));
        for empty in [ChunkSet::parse("3..3/7"), ChunkSet::range(3, 3, 7)] {
            let empty = empty.unwrap();
            assert!(empty.is_empty());
            assert_eq!(empty.total(), 7);
        }
        let beyond = Err(RangeError::BeyondTotal { hi: 9, total: 8 });
        assert_eq!(ChunkSet::parse("0..9/8"), beyond);
        assert_eq!(ChunkSet::range(0, 9, 8), beyond);
    }

    #[test]
    fn plan_check_separates_sweep_shapes() {
        let r = ChunkSet::parse("0..4/8").unwrap();
        assert_eq!(r.check_plan(8), Ok(()));
        assert_eq!(
            r.check_plan(6),
            Err(RangeError::PlanMismatch {
                total: 8,
                num_chunks: 6
            })
        );
    }

    #[test]
    fn split_is_a_disjoint_cover() {
        for (total, parts) in [(8, 4), (7, 3), (3, 5), (0, 2), (245, 16), (10, 1)] {
            let sets = ChunkSet::split(total, parts);
            assert_eq!(sets.len(), parts.max(1));
            let mut next = 0;
            for s in &sets {
                assert!(
                    s.chunks().eq(next..next + s.len()),
                    "total {total} parts {parts}"
                );
                assert_eq!(s.total(), total);
                assert!(s.len() <= total.div_ceil(parts.max(1)));
                next += s.len();
            }
            assert_eq!(next, total, "total {total} parts {parts}");
        }
        // The remainder goes to the earliest parts.
        let sets = ChunkSet::split(7, 3);
        assert_eq!(
            sets.iter().map(ChunkSet::len).collect::<Vec<_>>(),
            vec![3, 2, 2]
        );
    }

    #[test]
    fn set_parse_normalizes_and_round_trips() {
        // Unsorted items, a bare index and an adjacent run all normalize.
        let set = ChunkSet::parse("12,3..5,5..7/40").unwrap();
        assert_eq!(set.to_string(), "3..7,12/40");
        assert_eq!(ChunkSet::parse(&set.to_string()), Ok(set.clone()));
        assert_eq!(set.len(), 5);
        assert_eq!(set.total(), 40);
        assert_eq!(set.chunks().collect::<Vec<_>>(), vec![3, 4, 5, 6, 12]);
        assert!(set.contains(3) && set.contains(6) && set.contains(12));
        assert!(!set.contains(2) && !set.contains(7) && !set.contains(13));
        assert!(!set.is_empty() && !set.is_full());
        assert_eq!(set.runs(), [(3, 7), (12, 13)]);
    }

    #[test]
    fn set_from_chunks_groups_contiguous_indices() {
        let set = ChunkSet::from_chunks(&[12, 4, 3, 6, 5, 4], 40).unwrap();
        assert_eq!(set, ChunkSet::parse("3..7,12/40").unwrap());
        assert_eq!(ChunkSet::from_chunks(&[], 8).unwrap().to_string(), "0..0/8");
        assert_eq!(
            ChunkSet::from_chunks(&[8], 8),
            Err(RangeError::BeyondTotal { hi: 9, total: 8 })
        );
    }

    #[test]
    fn single_run_sets_display_like_the_equivalent_range() {
        // Byte-compatibility of checkpoint partition stamps rests on this.
        for (lo, hi, total) in [(0, 512, 2048), (2, 4, 6)] {
            let set = ChunkSet::range(lo, hi, total).unwrap();
            assert_eq!(set.to_string(), format!("{lo}..{hi}/{total}"));
            assert_eq!(set.len(), hi - lo);
            assert!(!set.is_full());
        }
        assert_eq!(ChunkSet::range(3, 3, 7).unwrap().to_string(), "0..0/7");
        assert!(ChunkSet::range(0, 6, 6).unwrap().is_full());
        assert!(ChunkSet::full(6).is_full());
        assert!(ChunkSet::full(0).is_full());
        assert_eq!(ChunkSet::full(6).to_string(), "0..6/6");
    }

    #[test]
    fn mutated_specs_are_refused_or_round_trip() {
        let specs = [
            "3..7,12/40",
            "18446744073709551614/18446744073709551615",
            "0..2,18446744073709551614/18446744073709551615",
        ];
        let mut state = 0x5eed_0031_u64;
        let mut below = |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            usize::try_from(state % n as u64).expect("below a usize")
        };
        let (mut refused, mut parsed) = (0, 0);
        for i in 0..2_000 {
            // Seeded truncations, ASCII bit flips and splices.
            let mut m = specs[i % specs.len()].as_bytes().to_vec();
            match below(3) {
                0 => m.truncate(below(m.len())),
                1 => {
                    let at = below(m.len());
                    m[at] ^= 1 << below(7);
                }
                _ => {
                    let from = below(m.len());
                    let to = (from + 1 + below(12)).min(m.len());
                    let slice = m[from..to].to_vec();
                    let at = below(m.len() + 1);
                    m.splice(at..at, slice);
                }
            }
            let m = String::from_utf8(m).expect("ASCII mutations stay UTF-8");
            // No mutant panics; a parsed one displays as a spec that
            // parses back to it.
            match ChunkSet::parse(&m) {
                Ok(set) => {
                    assert_eq!(ChunkSet::parse(&set.to_string()), Ok(set), "{m}");
                    parsed += 1;
                }
                Err(_) => refused += 1,
            }
        }
        assert!(
            parsed > 0 && refused > 0,
            "{parsed} parsed, {refused} refused"
        );
    }

    #[test]
    fn malformed_set_specs_are_loud() {
        for spec in [
            "",
            "3..7,12",
            "3..7,,12/40",
            "/40",
            "a,3/40",
            "1..2/x",
            "3..7, 12/40",
            "+3..7/40",
        ] {
            assert!(
                matches!(ChunkSet::parse(spec), Err(RangeError::Malformed(_))),
                "spec {spec:?}"
            );
        }
        assert_eq!(
            ChunkSet::parse("5..2,7/8"),
            Err(RangeError::Inverted { lo: 5, hi: 2 })
        );
        assert_eq!(
            ChunkSet::parse("0..9/8"),
            Err(RangeError::BeyondTotal { hi: 9, total: 8 })
        );
        assert_eq!(
            ChunkSet::parse("0..4/8").unwrap().check_plan(6),
            Err(RangeError::PlanMismatch {
                total: 8,
                num_chunks: 6
            })
        );
    }
}
