//! Per-node random strings `r_v` (paper §2.2 and §7.4).
//!
//! Each node has a random string `r_v : ℕ → {0,1}` of iid fair bits. The
//! string is *part of the node's input*: every execution that visits `v`
//! sees the same `r_v`, no matter where it was initiated (this is what makes
//! the coupled random walks of Algorithm 1 agree — footnote 3). We realize
//! this with a pure function of `(tape seed, node id, bit index)`.

use vc_ident::{mix, GAMMA};

/// The flavor of randomness available to algorithms (§7.4).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RandomnessMode {
    /// Each node has an independent string; querying a node reveals its
    /// string. This is the paper's main model.
    Private,
    /// A single string shared by all nodes (`r_v` identical for every `v`).
    Public,
    /// Each node has an independent string, but it is visible *only* to
    /// executions initiated at that node.
    Secret,
}

/// A source of per-node random bits, deterministic in `(seed, node, index)`.
///
/// Determinism is essential: the runner starts one execution per node and
/// all of them must observe identical `r_v`, and lower-bound experiments
/// must be reproducible.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RandomTape {
    seed: u64,
    mode: RandomnessMode,
}

/// One splitmix64 step: the increment, then the finalizer.
#[inline]
fn splitmix(z: u64) -> u64 {
    mix(z.wrapping_add(GAMMA))
}

impl RandomTape {
    /// A tape in the private-randomness model (the paper's default).
    pub fn private(seed: u64) -> Self {
        Self {
            seed,
            mode: RandomnessMode::Private,
        }
    }

    /// A tape in the public-randomness model.
    pub fn public(seed: u64) -> Self {
        Self {
            seed,
            mode: RandomnessMode::Public,
        }
    }

    /// A tape in the secret-randomness model.
    pub fn secret(seed: u64) -> Self {
        Self {
            seed,
            mode: RandomnessMode::Secret,
        }
    }

    /// The randomness mode this tape operates in.
    pub fn mode(&self) -> RandomnessMode {
        self.mode
    }

    /// The seed the tape was built from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The `index`-th bit of `r_v` for the node with unique identifier
    /// `node_id`.
    ///
    /// In [`RandomnessMode::Public`] mode the node identifier is ignored, so
    /// every node shares one string. Access control for
    /// [`RandomnessMode::Secret`] is enforced by the execution layer
    /// ([`crate::oracle::Execution`]), not here.
    pub fn bit(&self, node_id: u64, index: u64) -> bool {
        let node_key = match self.mode {
            RandomnessMode::Public => 0,
            _ => node_id,
        };
        let h = splitmix(
            splitmix(self.seed ^ 0xA5A5_5A5A_1234_5678)
                .wrapping_add(splitmix(node_key))
                .wrapping_add(index.wrapping_mul(GAMMA)),
        );
        h & 1 == 1
    }

    /// Convenience: interprets bits `64*word .. 64*word+63` of `r_v` as one
    /// `u64` (used by solvers that need a random rank per node).
    pub fn word(&self, node_id: u64, word: u64) -> u64 {
        let mut out = 0u64;
        for i in 0..64 {
            out = (out << 1) | u64::from(self.bit(node_id, word * 64 + i));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_calls() {
        let t = RandomTape::private(42);
        for i in 0..100 {
            assert_eq!(t.bit(7, i), t.bit(7, i));
        }
    }

    #[test]
    fn different_nodes_differ_somewhere() {
        let t = RandomTape::private(42);
        let a: Vec<bool> = (0..128).map(|i| t.bit(1, i)).collect();
        let b: Vec<bool> = (0..128).map(|i| t.bit(2, i)).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn public_mode_shares_string() {
        let t = RandomTape::public(42);
        for i in 0..128 {
            assert_eq!(t.bit(1, i), t.bit(999, i));
        }
    }

    #[test]
    fn bits_are_roughly_balanced() {
        let t = RandomTape::private(3);
        let ones: usize = (0..10_000u64).map(|i| usize::from(t.bit(i % 17, i))).sum();
        assert!((4_500..5_500).contains(&ones), "ones = {ones}");
    }

    #[test]
    fn seeds_decorrelate() {
        let t1 = RandomTape::private(1);
        let t2 = RandomTape::private(2);
        let same = (0..256).filter(|&i| t1.bit(5, i) == t2.bit(5, i)).count();
        assert!((64..192).contains(&same), "agreement = {same}");
    }

    #[test]
    fn word_concatenates_bits() {
        let t = RandomTape::private(9);
        let w = t.word(3, 0);
        let rebuilt: u64 = (0..64).fold(0, |acc, i| (acc << 1) | u64::from(t.bit(3, i)));
        assert_eq!(w, rebuilt);
    }

    #[test]
    fn mode_accessors() {
        assert_eq!(RandomTape::secret(0).mode(), RandomnessMode::Secret);
        assert_eq!(RandomTape::private(5).seed(), 5);
    }
}
