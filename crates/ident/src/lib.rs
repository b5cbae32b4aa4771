//! # vc-ident
//!
//! Content-addressed identity for the sweep universe.
//!
//! Every claim the workspace makes — Table-1 separations, replay
//! convictions, kill-and-resume byte-identity — is a statement about one
//! *specific* labeled instance swept under one *specific* configuration,
//! not about an instance size. This crate is the single audited place
//! where that identity is computed: a streaming splitmix64 fold
//! ([`IdHasher`]) over canonical encodings, producing stable
//! [`InstanceId`] and [`SweepId`] values that serialize as 16-digit hex
//! strings in checkpoint files, bench baselines and trace reports.
//!
//! Design constraints:
//!
//! * **Dependency-free and panic-free.** The ids flow through checkpoint
//!   parsing and CI gating; nothing here may pull in serde or abort.
//! * **Streaming.** A 2^16-node CSR instance folds without allocating:
//!   callers feed words (and byte strings) one at a time.
//! * **Injective encodings.** Strings are length-prefixed, `Option`s are
//!   tag-prefixed (`None` ≠ `Some(0)`), and the total word count is
//!   folded into [`IdHasher::finish`], so distinct field sequences
//!   cannot collide by concatenation tricks.
//! * **Domain separation.** Every hash starts from a domain string
//!   ([`IdHasher::new`]); bumping the domain (e.g. `vc-sweep/v2` →
//!   `vc-sweep/v3`) invalidates every persisted id at once, which is the
//!   intended migration story for encoding changes.
//!
//! The splitmix64 constants live here and nowhere else: the random
//! tape, the fault decisions, the adversary's coin and the property-test
//! stream all call [`mix`] and [`GAMMA`]. xtask's `repo_is_clean` test
//! rejects the constants, and any ad-hoc fingerprint helper, anywhere
//! else in the workspace (rule VC008).

#![deny(missing_docs)]
#![forbid(unsafe_code)]
// VC001: library code returns errors and never aborts. Test code may
// unwrap, expect and panic (clippy.toml).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use std::fmt;

/// The splitmix64 increment ("golden gamma").
pub const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The splitmix64 finalizer: a well-mixed permutation of 64-bit words.
/// Step `i` of a splitmix64 stream seeded at `s` is
/// `mix(s + (i + 1) * GAMMA)` (wrapping).
#[inline]
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A streaming content hasher: words are folded one at a time through the
/// splitmix64 finalizer, so arbitrarily large structures hash without
/// allocation.
///
/// Construct with a domain string, feed fields in a fixed documented
/// order, and take the digest with [`IdHasher::finish`]. Two hashers fed
/// the same domain and the same field sequence always produce the same
/// digest — on any platform, at any thread count.
#[derive(Clone, Debug)]
pub struct IdHasher {
    state: u64,
    words: u64,
}

impl IdHasher {
    /// A fresh hasher seeded by a domain-separation string (e.g.
    /// `"vc-instance/v1"`). Distinct domains produce unrelated digests
    /// for identical field sequences.
    pub fn new(domain: &str) -> Self {
        let mut h = Self { state: 0, words: 0 };
        h.text(domain);
        h
    }

    /// Folds one word.
    pub fn word(&mut self, w: u64) {
        self.state = mix(self.state.wrapping_add(GAMMA) ^ w);
        self.words = self.words.wrapping_add(1);
    }

    /// Folds a sequence of words, in order. Purely a convenience over
    /// repeated [`IdHasher::word`] calls — no length prefix is added, so
    /// callers folding variable-length sequences should fold the length
    /// first (as [`IdHasher::text`] does).
    pub fn words(&mut self, ws: &[u64]) {
        for &w in ws {
            self.word(w);
        }
    }

    /// Folds an optional word with a presence tag, so `None` and
    /// `Some(0)` are distinct.
    pub fn opt_word(&mut self, w: Option<u64>) {
        match w {
            None => self.word(0),
            Some(v) => {
                self.word(1);
                self.word(v);
            }
        }
    }

    /// Folds a boolean as one word.
    pub fn flag(&mut self, b: bool) {
        self.word(u64::from(b));
    }

    /// Folds a byte string, length-prefixed and packed little-endian into
    /// words, so `["ab", "c"]` and `["a", "bc"]` fold differently.
    pub fn text(&mut self, s: &str) {
        self.word(s.len() as u64);
        for chunk in s.as_bytes().chunks(8) {
            let mut w = 0u64;
            for (i, &b) in chunk.iter().enumerate() {
                w |= u64::from(b) << (8 * i);
            }
            self.word(w);
        }
    }

    /// The digest over everything folded so far (the total word count is
    /// folded in, so a prefix of a longer sequence gets a different
    /// digest).
    pub fn finish(self) -> u64 {
        mix(self.state.wrapping_add(GAMMA) ^ self.words)
    }
}

/// Renders an id as the canonical 16-digit lowercase hex string.
fn fmt_hex(raw: u64, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    write!(f, "{raw:016x}")
}

/// Parses a hex digest, the form ids and stored hashes take in file
/// names and documents: 1–16 ASCII hex digits, case-insensitive. A sign
/// is refused, though `u64::from_str_radix` alone takes a leading `+`.
pub fn parse_hex(s: &str) -> Option<u64> {
    if s.is_empty() || s.len() > 16 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

/// The content-addressed identity of one labeled instance: a digest over
/// the full CSR adjacency (offsets, neighbors, reverse ports, unique
/// identifiers) and every node's input label. Two instances share an
/// `InstanceId` exactly when they are the same mathematical object
/// `(G, L)` — size alone never suffices.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct InstanceId(u64);

/// The content-addressed identity of one sweep: a digest folding the
/// [`InstanceId`], the algorithm identity (including any fault plan), the
/// run configuration (budgets, exact-distance flag, randomness tape,
/// start selection), the resolved start set and the engine chunk size.
/// Anything that can change a single execution record changes the
/// `SweepId`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SweepId(u64);

macro_rules! id_impls {
    ($ty:ident) => {
        impl $ty {
            /// Wraps a raw digest.
            pub const fn from_raw(raw: u64) -> Self {
                Self(raw)
            }

            /// The raw digest.
            pub const fn raw(self) -> u64 {
                self.0
            }

            /// Parses the hex form produced by `Display` (1–16 hex
            /// digits; case-insensitive).
            pub fn parse_hex(s: &str) -> Option<Self> {
                parse_hex(s).map(Self)
            }
        }

        impl fmt::Display for $ty {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt_hex(self.0, f)
            }
        }
    };
}

id_impls!(InstanceId);
id_impls!(SweepId);

#[cfg(test)]
mod tests {
    use super::*;

    fn digest(build: impl FnOnce(&mut IdHasher)) -> u64 {
        let mut h = IdHasher::new("test/v1");
        build(&mut h);
        h.finish()
    }

    #[test]
    fn digests_are_deterministic() {
        let a = digest(|h| {
            h.word(1);
            h.text("abc");
            h.flag(true);
        });
        let b = digest(|h| {
            h.word(1);
            h.text("abc");
            h.flag(true);
        });
        assert_eq!(a, b);
    }

    #[test]
    fn domains_separate() {
        let a = IdHasher::new("domain/a").finish();
        let b = IdHasher::new("domain/b").finish();
        assert_ne!(a, b);
    }

    #[test]
    fn strings_are_length_prefixed() {
        // Without length prefixes these two sequences would pack into the
        // same byte stream.
        let ab_c = digest(|h| {
            h.text("ab");
            h.text("c");
        });
        let a_bc = digest(|h| {
            h.text("a");
            h.text("bc");
        });
        assert_ne!(ab_c, a_bc);
        // Long strings spanning several words still separate on the tail.
        let x = digest(|h| h.text("0123456789abcdef"));
        let y = digest(|h| h.text("0123456789abcdeg"));
        assert_ne!(x, y);
    }

    #[test]
    fn options_are_tagged() {
        assert_ne!(
            digest(|h| h.opt_word(None)),
            digest(|h| h.opt_word(Some(0)))
        );
        assert_ne!(
            digest(|h| h.opt_word(Some(0))),
            digest(|h| h.opt_word(Some(1)))
        );
    }

    #[test]
    fn prefixes_do_not_collide() {
        let short = digest(|h| h.word(7));
        let long = digest(|h| {
            h.word(7);
            h.word(0);
        });
        assert_ne!(short, long, "word count must be folded into finish()");
    }

    #[test]
    fn hex_round_trips() {
        for raw in [0u64, 1, 0xdead_beef, u64::MAX] {
            let id = InstanceId::from_raw(raw);
            let hex = id.to_string();
            assert_eq!(hex.len(), 16);
            assert_eq!(InstanceId::parse_hex(&hex), Some(id));
            let sid = SweepId::from_raw(raw);
            assert_eq!(SweepId::parse_hex(&sid.to_string()), Some(sid));
        }
        assert_eq!(InstanceId::parse_hex(""), None);
        assert_eq!(InstanceId::parse_hex("not-hex"), None);
        assert_eq!(InstanceId::parse_hex("00000000000000000"), None);
        // `from_str_radix` alone takes a leading `+`: an id must not.
        assert_eq!(SweepId::parse_hex("+00000000000abcd"), None);
        assert_eq!(InstanceId::parse_hex("+f"), None);
        assert_eq!(parse_hex("+1"), None);
        assert_eq!(parse_hex("-1"), None);
        assert_eq!(
            InstanceId::parse_hex("FF"),
            Some(InstanceId::from_raw(0xff))
        );
    }

    #[test]
    fn digest_spreads_bits() {
        // Sanity: single-word changes flip roughly half the output bits.
        let base = digest(|h| h.word(0));
        let mut total = 0u32;
        for w in 1..=64u64 {
            total += (digest(|h| h.word(w)) ^ base).count_ones();
        }
        let mean = total / 64;
        assert!((20..=44).contains(&mean), "poor diffusion: mean {mean}");
    }
}
