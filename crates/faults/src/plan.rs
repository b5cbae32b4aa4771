//! [`FaultPlan`]: the seeded, declarative description of which faults a
//! sweep injects.
//!
//! A plan is four optional fault classes plus a seed. Every individual
//! fault decision is a pure function of `(seed, fault class, stable key)`
//! — no global state, no clocks, no real randomness — so two runs with the
//! same plan inject *exactly* the same faults, query by query, for any
//! thread count. That determinism is what makes faulty sweeps replayable
//! and their degradation contracts testable (DESIGN.md §11).

use vc_ident::{mix, GAMMA};

/// Hashes a word sequence by folding each word through the splitmix64
/// finalizer, the scramble of `vc-model`'s random tape. Plans fold a
/// per-class rule constant into every hash, so fault decisions stay
/// domain-separated from algorithm randomness.
pub(crate) fn mix_words(words: &[u64]) -> u64 {
    let mut h: u64 = 0x6661_756c_7473_2e31; // "faults.1"
    for &w in words {
        h = mix(h.wrapping_add(GAMMA) ^ w);
    }
    h
}

/// Environment variable holding a [`FaultPlan::from_spec`] string.
pub const FAULTS_ENV: &str = "VC_FAULTS";

/// Domain-separation constants: one per fault class, folded into every
/// decision hash so e.g. refusal and crash decisions with the same key
/// stay independent.
pub(crate) mod rule {
    /// Per-query refusals.
    pub const REFUSE: u64 = 0x52_45_46;
    /// Per-node label corruption ("liars").
    pub const CORRUPT: u64 = 0x4c_49_45;
    /// Per-node crashes.
    pub const CRASH: u64 = 0x43_52_41;
}

/// A seeded, deterministic fault plan. Construct with [`FaultPlan::none`]
/// and the `with_*` builders, parse one from a spec string
/// ([`FaultPlan::from_spec`]), or read the ambient `VC_FAULTS` variable
/// ([`FaultPlan::from_env`]).
///
/// Each `*_one_in(k)` class fires on roughly one key in `k`: `k = 1`
/// always fires, and an absent class never fires. All classes compose;
/// an all-`None` plan is fully transparent (the wrapped oracle behaves
/// bit-identically to the bare one — enforced by
/// `tests/fault_transparency.rs`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed for every fault decision.
    pub seed: u64,
    /// Refuse ~1 in `k` queries (keyed per start node and query index).
    pub refuse_one_in: Option<u64>,
    /// Corrupt the label answers of ~1 in `k` nodes ("liars"; stable per
    /// node, so a liar lies identically on every revisit).
    pub corrupt_one_in: Option<u64>,
    /// Crash ~1 in `k` nodes: a crashed node answers no query issued from
    /// it (and serves no random bits).
    pub crash_one_in: Option<u64>,
    /// Refuse every query after the execution has already issued this
    /// many — a deterministic mid-run budget squeeze.
    pub squeeze_queries: Option<u64>,
}

impl FaultPlan {
    /// The all-pass plan: wraps transparently, injects nothing.
    pub fn none(seed: u64) -> Self {
        Self {
            seed,
            refuse_one_in: None,
            corrupt_one_in: None,
            crash_one_in: None,
            squeeze_queries: None,
        }
    }

    /// Enables per-query refusals, ~1 in `k`.
    pub fn with_refusals(mut self, one_in: u64) -> Self {
        self.refuse_one_in = Some(one_in);
        self
    }

    /// Enables per-node label corruption, ~1 node in `k`.
    pub fn with_corruption(mut self, one_in: u64) -> Self {
        self.corrupt_one_in = Some(one_in);
        self
    }

    /// Enables per-node crashes, ~1 node in `k`.
    pub fn with_crashes(mut self, one_in: u64) -> Self {
        self.crash_one_in = Some(one_in);
        self
    }

    /// Refuses every query after the first `limit` per execution.
    pub fn with_query_squeeze(mut self, limit: u64) -> Self {
        self.squeeze_queries = Some(limit);
        self
    }

    /// Whether this plan can inject anything at all.
    pub fn is_transparent(&self) -> bool {
        self.refuse_one_in.is_none()
            && self.corrupt_one_in.is_none()
            && self.crash_one_in.is_none()
            && self.squeeze_queries.is_none()
    }

    /// Parses a plan from a comma-separated `key=value` spec, e.g.
    /// `seed=7,refuse=64,crash=128,squeeze=500`. Keys: `seed` (default 0),
    /// `refuse`, `corrupt`, `crash` (each "one in k"), `squeeze` (query
    /// limit). A value of `0` disables its class; unknown keys, repeated
    /// keys and malformed numbers are errors, not silently ignored.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first malformed entry.
    pub fn from_spec(spec: &str) -> Result<Self, SpecError> {
        let mut plan = Self::none(0);
        let mut seen: Vec<&str> = Vec::new();
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| SpecError(format!("`{part}` is not a key=value pair")))?;
            let value: u64 = value
                .trim()
                .parse()
                .map_err(|_| SpecError(format!("`{part}` has a malformed value")))?;
            let gate = if value == 0 { None } else { Some(value) };
            let key = key.trim();
            if seen.contains(&key) {
                return Err(SpecError(format!("`{key}` is given more than once")));
            }
            seen.push(key);
            match key {
                "seed" => plan.seed = value,
                "refuse" => plan.refuse_one_in = gate,
                "corrupt" => plan.corrupt_one_in = gate,
                "crash" => plan.crash_one_in = gate,
                "squeeze" => plan.squeeze_queries = gate,
                other => return Err(SpecError(format!("unknown fault class `{other}`"))),
            }
        }
        Ok(plan)
    }

    /// The canonical spec string of this plan: the unique
    /// [`FaultPlan::from_spec`] input (no spaces, fixed key order, absent
    /// classes omitted) that parses back to exactly this plan. This is
    /// the plan's identity surface — the engine folds it into `SweepId`
    /// via [`FaultPlan::fold_content`], so two sweeps under different
    /// plans can never share a checkpoint.
    pub fn canonical_spec(&self) -> String {
        let mut spec = format!("seed={}", self.seed);
        for (key, value) in [
            ("refuse", self.refuse_one_in),
            ("corrupt", self.corrupt_one_in),
            ("crash", self.crash_one_in),
            ("squeeze", self.squeeze_queries),
        ] {
            if let Some(k) = value {
                spec.push_str(&format!(",{key}={k}"));
            }
        }
        spec
    }

    /// Folds the plan's identity — the canonical spec — into `h`
    /// (DESIGN.md §12).
    pub fn fold_content(&self, h: &mut vc_ident::IdHasher) {
        h.text(&self.canonical_spec());
    }

    /// Reads the `VC_FAULTS` environment variable: `None` when unset or
    /// blank, the parsed plan (or parse error — ambient typos must be
    /// loud) otherwise.
    ///
    /// # Errors
    ///
    /// [`SpecError`] as for [`FaultPlan::from_spec`].
    #[expect(
        clippy::disallowed_methods,
        reason = "VC011: VC_FAULTS is the fault plan's own documented entry point, \
                  mirroring Engine::from_env; the plan reaches the engine only through RunConfig"
    )]
    pub fn from_env() -> Result<Option<Self>, SpecError> {
        match std::env::var(FAULTS_ENV) {
            Ok(spec) if !spec.trim().is_empty() => Self::from_spec(&spec).map(Some),
            _ => Ok(None),
        }
    }

    /// One fault decision: does `class` (one of the [`rule`] constants)
    /// fire for `(a, b)` under this plan's seed and the class's `one_in`
    /// gate? Pure and stateless — the heart of replayability.
    pub(crate) fn fires(&self, class: u64, a: u64, b: u64, one_in: Option<u64>) -> bool {
        match one_in {
            None | Some(0) => false,
            Some(k) => mix_words(&[self.seed, class, a, b]).is_multiple_of(k),
        }
    }
}

/// A malformed [`FaultPlan::from_spec`] string.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpecError(pub String);

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad {FAULTS_ENV} spec: {}", self.0)
    }
}

impl std::error::Error for SpecError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixing_is_deterministic_and_sensitive() {
        assert_eq!(mix_words(&[1, 2, 3]), mix_words(&[1, 2, 3]));
        assert_ne!(mix_words(&[1, 2, 3]), mix_words(&[1, 2, 4]));
        assert_ne!(mix_words(&[1, 2, 3]), mix_words(&[3, 2, 1]));
        assert_ne!(mix_words(&[0]), mix_words(&[0, 0]));
    }

    #[test]
    fn spec_round_trip_and_defaults() {
        let plan = FaultPlan::from_spec("seed=7, refuse=64, crash=128, squeeze=500").unwrap();
        assert_eq!(
            plan,
            FaultPlan::none(7)
                .with_refusals(64)
                .with_crashes(128)
                .with_query_squeeze(500)
        );
        assert!(FaultPlan::from_spec("").unwrap().is_transparent());
        assert!(FaultPlan::from_spec("refuse=0").unwrap().is_transparent());
        assert!(!FaultPlan::from_spec("corrupt=9").unwrap().is_transparent());
    }

    #[test]
    fn canonical_spec_round_trips_and_separates_plans() {
        let plans = [
            FaultPlan::none(0),
            FaultPlan::none(7)
                .with_refusals(64)
                .with_crashes(128)
                .with_query_squeeze(500),
            FaultPlan::none(7).with_refusals(64),
            FaultPlan::none(7).with_refusals(65),
            FaultPlan::none(7).with_corruption(64),
            FaultPlan::none(8).with_refusals(64),
        ];
        for plan in &plans {
            let spec = plan.canonical_spec();
            assert_eq!(&FaultPlan::from_spec(&spec).unwrap(), plan, "{spec}");
        }
        // Distinct plans must have distinct canonical specs (the spec is
        // the identity surface).
        for (i, a) in plans.iter().enumerate() {
            for b in &plans[i + 1..] {
                assert_ne!(a.canonical_spec(), b.canonical_spec());
            }
        }
    }

    #[test]
    fn malformed_specs_are_loud() {
        assert!(FaultPlan::from_spec("refuse").is_err());
        assert!(FaultPlan::from_spec("refuse=lots").is_err());
        assert!(FaultPlan::from_spec("explode=3").is_err());
        let msg = FaultPlan::from_spec("explode=3").unwrap_err().to_string();
        assert!(msg.contains("explode"), "{msg}");
        // A repeated key is refused, not resolved to its last value.
        let msg = FaultPlan::from_spec("seed=7,refuse=64,seed=8")
            .unwrap_err()
            .to_string();
        assert!(msg.contains("`seed`"), "{msg}");
        assert!(FaultPlan::from_spec("crash=2, crash =2").is_err());
    }

    #[test]
    fn mutated_specs_are_refused_or_round_trip() {
        let specs = [
            "seed=7,refuse=64,crash=256",
            "seed=18446744073709551615,corrupt=18446744073709551615,squeeze=500",
            "refuse=1, crash=2",
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
            // No mutant panics; a parsed one has a canonical spec that
            // parses back to it.
            match FaultPlan::from_spec(&m) {
                Ok(plan) => {
                    assert_eq!(
                        FaultPlan::from_spec(&plan.canonical_spec()),
                        Ok(plan),
                        "{m}"
                    );
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
    fn decisions_are_deterministic_and_class_separated() {
        let plan = FaultPlan::none(42);
        let a = plan.fires(rule::REFUSE, 3, 17, Some(2));
        assert_eq!(a, plan.fires(rule::REFUSE, 3, 17, Some(2)));
        assert!(plan.fires(rule::CRASH, 3, 17, Some(1)));
        assert!(!plan.fires(rule::CRASH, 3, 17, None));
        // Different classes with the same key must be able to disagree:
        // check that over many keys the two decision streams differ.
        let disagreements = (0..256)
            .filter(|&i| {
                plan.fires(rule::REFUSE, i, 0, Some(2)) != plan.fires(rule::CRASH, i, 0, Some(2))
            })
            .count();
        assert!(disagreements > 32, "only {disagreements} disagreements");
    }

    #[test]
    fn fire_rate_tracks_one_in_k() {
        let plan = FaultPlan::none(1);
        let hits = (0..10_000)
            .filter(|&i| plan.fires(rule::CORRUPT, i, 0, Some(16)))
            .count();
        // ~625 expected; allow generous slack.
        assert!((300..1000).contains(&hits), "{hits} hits");
    }
}
