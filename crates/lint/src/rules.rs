//! The rule registry: every architectural invariant as a [`Rule`] with a
//! stable code.
//!
//! Codes are append-only and never reused: `VC001`–`VC008` are the eight
//! rules the original `xtask` linter enforced (ported token-exact),
//! `VC009`–`VC012` are the determinism rules added with this crate,
//! `VC015` came with the fleet supervisor, and `VC013`/`VC014` are the
//! suppression-hygiene findings emitted by the driver itself (see
//! [`crate::run`]). `VC004` (`bench-provenance`) is retired: it checked
//! the headers of `crates/bench/benches`, which holds no file since the
//! tables and figures moved into `examples/table1_report.rs`, and its code
//! stays reserved. DESIGN.md §13 is the catalog of record; the README
//! maps each code to its invariant and origin PR.
//!
//! Each rule is one row of [`registry`]: its [`RuleInfo`] and one of two
//! checks. Most rules flag a token sequence in the files they cover and
//! share one matcher; their row gives the path scope, whether
//! `#[cfg(test)]` code is scanned, the patterns with the spelling each
//! message shows, and the message. The structural rules (`VC002`,
//! `VC008`, `VC010`) are plain walk functions instead.

use crate::lexer::TokKind;
use crate::report::Finding;
use crate::source::{SourceFile, Workspace};

/// Identity card of a rule: stable code, human name, one-line invariant.
pub struct RuleInfo {
    /// Stable code (`VC001`…), append-only, never reused.
    pub code: &'static str,
    /// Human-readable rule name, used in rendered findings.
    pub name: &'static str,
    /// One-line statement of the invariant the rule protects.
    pub summary: &'static str,
}

/// A lint rule: an invariant checked against the loaded workspace.
pub struct Rule {
    /// The rule's identity card.
    pub info: RuleInfo,
    check: Check,
}

/// A token sequence. An element that is one ASCII punctuation byte
/// matches that punctuation token; any other element matches an
/// identifier with exactly that spelling.
type Pattern = &'static [&'static str];

/// How a rule finds its violations.
enum Check {
    /// Flags every match of any pattern in the files in scope, anchored
    /// at the match's first token.
    Tokens {
        /// True for the workspace-relative paths the rule scans.
        scope: fn(&str) -> bool,
        /// Whether `#[cfg(test)]` code is scanned too.
        tests: bool,
        /// The patterns, each with the spelling its message shows.
        patterns: &'static [(&'static str, Pattern)],
        /// The message of a match, given the spelling it shows.
        message: fn(&str) -> String,
    },
    /// A structural walk over the whole workspace.
    Walk(fn(&Workspace, &RuleInfo, &mut Vec<Finding>)),
}

impl Rule {
    /// Appends findings for every violation in `ws`.
    pub fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        match self.check {
            Check::Walk(walk) => walk(ws, &self.info, out),
            Check::Tokens {
                scope,
                tests,
                patterns,
                message,
            } => {
                for f in ws.files.iter().filter(|f| scope(&f.rel)) {
                    let idx = f.code_indices(tests);
                    for k in 0..idx.len() {
                        for (shown, pat) in patterns {
                            if matches_at(f, &idx, k, pat) {
                                out.push(finding_at(f, idx[k], &self.info, message(shown)));
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Crates whose non-test `src/` code must be panic-free (VC001).
const PANIC_FREE_CRATES: &[&str] = &[
    "crates/model",
    "crates/adversary",
    "crates/audit",
    "crates/engine",
    "crates/trace",
    "crates/faults",
    "crates/fleet",
    "crates/ident",
    "crates/lint",
    "crates/json",
    "crates/serve",
];

/// Crates whose root must carry `#![deny(missing_docs)]` (VC002).
const MISSING_DOCS_CRATES: &[&str] = &[
    "crates/model",
    "crates/graph",
    "crates/audit",
    "crates/engine",
    "crates/trace",
    "crates/faults",
    "crates/fleet",
    "crates/ident",
    "crates/lint",
    "crates/json",
    "crates/serve",
];

/// Places allowed to contain identity/splitmix hashing code (VC008):
/// `vc-ident` itself, plus the pre-existing splitmix *stream* generators
/// (random tape, fault tape, adversary coin flips) that share the mixing
/// constants but never mint identities.
const IDENTITY_ALLOWED_DIR: &str = "crates/ident/src";
const IDENTITY_ALLOWED_FILES: &[&str] = &[
    "crates/faults/src/splitmix.rs",
    "crates/model/src/randomness.rs",
    "crates/adversary/src/hidden_leaf.rs",
];

/// Identifier spelling (normalized: lowercased, underscores stripped)
/// that marks an ad-hoc identity helper (VC008).
const IDENTITY_IDENT: &str = "sweepfingerprint";

/// Splitmix64 mixing constants (normalized numeric-literal spellings)
/// whose appearance outside `vc-ident` marks a hand-rolled digest
/// (VC008).
const IDENTITY_CONSTS: &[&str] = &[
    "0x9e3779b97f4a7c15",
    "0xbf58476d1ce4e5b9",
    "0x94d049bb133111eb",
];

/// Crates that feed deterministic merged results (VC009): a hashed
/// collection anywhere in them is iteration-order nondeterminism waiting
/// to reach a merge. `crates/bench` is covered by the older VC003;
/// `crates/model`'s hot path by VC005.
const MERGE_TAINTED_CRATES: &[&str] = &[
    "crates/engine",
    "crates/trace",
    "crates/ident",
    "crates/faults",
    "crates/stats",
    "crates/serve",
];

/// Struct fields allowed to be `f64` in engine/trace structs (VC010):
/// wall-clock throughput, explicitly quarantined from merged counts.
const FLOAT_FIELD_ALLOWLIST: &[&str] = &["starts_per_sec", "queries_per_sec"];

/// Directories whose structs VC010 scans.
const FLOAT_SCAN_DIRS: &[&str] = &["crates/engine/src", "crates/trace/src", "crates/serve/src"];

/// Merge-path files VC012 scans for truncating casts: the engine (chunk
/// merge, splice, checkpoint decode), the mergeable metrics/histograms,
/// the binary instance-store decoder (untrusted on-disk length fields),
/// and the JSON parser every checkpoint/partial decode flows through.
const CAST_SCAN_DIR: &str = "crates/engine/src";
const CAST_SCAN_FILES: &[&str] = &[
    "crates/trace/src/metrics.rs",
    "crates/trace/src/hist.rs",
    "crates/graph/src/store.rs",
    "crates/json/src/lib.rs",
];

/// The patterns of the hashed-collection rules (VC003, VC005, VC009).
const HASHED: &[(&str, Pattern)] = &[("HashMap", &["HashMap"]), ("HashSet", &["HashSet"])];

/// True when `rel` lies under directory `dir` (both `/`-separated).
fn under(rel: &str, dir: &str) -> bool {
    rel.len() > dir.len() && rel.starts_with(dir) && rel.as_bytes()[dir.len()] == b'/'
}

/// True when the filtered token positions `idx[k..]` start with `pat`.
fn matches_at(f: &SourceFile, idx: &[usize], k: usize, pat: &[&str]) -> bool {
    pat.iter().enumerate().all(|(o, p)| {
        idx.get(k + o).is_some_and(|&ti| match p.as_bytes() {
            &[b] if b.is_ascii_punctuation() => f.is_punct(ti, b),
            _ => f.is_ident(ti, p),
        })
    })
}

/// Builds a finding anchored at token `ti` of `f`.
fn finding_at(f: &SourceFile, ti: usize, info: &RuleInfo, message: String) -> Finding {
    Finding {
        file: f.rel.clone(),
        line: f.toks[ti].line,
        col: f.toks[ti].col,
        code: info.code,
        rule: info.name,
        message,
    }
}

/// Builds a file-level finding, anchored at `1:1` of `rel`.
fn file_finding(rel: &str, info: &RuleInfo, message: String) -> Finding {
    Finding {
        file: rel.to_string(),
        line: 1,
        col: 1,
        code: info.code,
        rule: info.name,
        message,
    }
}

/// Lowercases and strips underscores, so `SweepFingerprint`,
/// `sweep_fingerprint` and `0x9E37_79B9_7F4A_7C15` all normalize into
/// their canonical spellings.
fn normalize(s: &str) -> String {
    s.to_ascii_lowercase()
        .chars()
        .filter(|&c| c != '_')
        .collect()
}

/// VC001: no panic paths in library code.
const VC001: Rule = Rule {
    info: RuleInfo {
        code: "VC001",
        name: "no-panic-paths",
        summary: "non-test code in core crates must return errors, never abort",
    },
    check: Check::Tokens {
        scope: |rel| {
            PANIC_FREE_CRATES
                .iter()
                .any(|k| under(rel, &format!("{k}/src")))
        },
        tests: false,
        patterns: &[
            (".unwrap()", &[".", "unwrap", "(", ")"]),
            (".expect(", &[".", "expect", "("]),
            ("panic!", &["panic", "!"]),
            ("unreachable!(", &["unreachable", "!", "("]),
            ("todo!(", &["todo", "!", "("]),
            ("unimplemented!(", &["unimplemented", "!", "("]),
        ],
        message: |shown| {
            format!("`{shown}` in non-test code; return a QueryError/GraphError instead")
        },
    },
};

/// VC002: documentation is mandatory in core crates.
const VC002: Rule = Rule {
    info: RuleInfo {
        code: "VC002",
        name: "deny-missing-docs",
        summary: "core crate roots must declare #![deny(missing_docs)]",
    },
    check: Check::Walk(deny_missing_docs),
};

/// VC003: deterministic figure/table paths: `crates/bench` and the
/// `examples/` that build every table and figure.
const VC003: Rule = Rule {
    info: RuleInfo {
        code: "VC003",
        name: "ordered-collections-only",
        summary: "crates/bench and examples/ must not use hashed collections: iteration order feeds figures",
    },
    check: Check::Tokens {
        scope: |rel| under(rel, "crates/bench") || under(rel, "examples"),
        tests: false,
        patterns: HASHED,
        message: |name| {
            format!(
                "`{name}` in a figure/table code path; use BTreeMap/BTreeSet \
                 so iteration order is deterministic"
            )
        },
    },
};

/// VC005: the execution hot path stays flat — the oracle and the
/// query-model solvers under `crates/core/src/problems`, whose per-node
/// state lives in epoch-stamped scratch. Deliberately scans test code
/// too: a HashMap-shaped test fixture is usually the first step of a
/// HashMap-shaped regression.
const VC005: Rule = Rule {
    info: RuleInfo {
        code: "VC005",
        name: "flat-oracle-state",
        summary: "no hashed collections in the oracle or solver hot path, tests included",
    },
    check: Check::Tokens {
        scope: |rel| rel == "crates/model/src/oracle.rs" || under(rel, "crates/core/src/problems"),
        tests: true,
        patterns: HASHED,
        message: |name| {
            format!(
                "`{name}` in the execution hot path; per-node state belongs in \
                 the epoch-stamped ExecScratch / SolverScratch buffers"
            )
        },
    },
};

/// VC006: no hidden clocks; only `crates/trace/src/time.rs` reads the wall
/// clock. Test code is scanned too: timing assertions belong on Stopwatch
/// as well, so its monotonicity guarantees hold everywhere.
const VC006: Rule = Rule {
    info: RuleInfo {
        code: "VC006",
        name: "no-hidden-clocks",
        summary: "Instant::now only in the sanctioned Stopwatch module",
    },
    check: Check::Tokens {
        scope: |rel| rel != "crates/trace/src/time.rs",
        tests: true,
        patterns: &[("Instant::now", &["Instant", ":", ":", "now"])],
        message: |shown| {
            format!("`{shown}` outside crates/trace/src/time.rs; use vc_trace::time::Stopwatch")
        },
    },
};

/// VC007: panic isolation stays centralized in `crates/engine/src`. Test
/// code is scanned too: a test that swallows panics hides exactly the
/// failures the engine ledger is meant to surface.
const VC007: Rule = Rule {
    info: RuleInfo {
        code: "VC007",
        name: "centralized-panic-isolation",
        summary: "catch_unwind only in the engine's chunk runner",
    },
    check: Check::Tokens {
        scope: |rel| !under(rel, "crates/engine/src"),
        tests: true,
        patterns: &[("catch_unwind", &["catch_unwind"])],
        message: |shown| {
            format!(
                "`{shown}` outside crates/engine/src; panic isolation \
                 belongs to the engine's chunk runner"
            )
        },
    },
};

/// VC008: identity hashing stays in `vc-ident`.
const VC008: Rule = Rule {
    info: RuleInfo {
        code: "VC008",
        name: "content-addressed-identity",
        summary: "no ad-hoc fingerprint helpers or splitmix constants outside vc-ident",
    },
    check: Check::Walk(content_addressed_identity),
};

/// VC009: no nondeterministic iteration in crates that feed merged
/// results. Tests included: byte-identical-merge suites that iterate a
/// hashed collection can pass locally and flake in CI.
const VC009: Rule = Rule {
    info: RuleInfo {
        code: "VC009",
        name: "merge-tainted-collections",
        summary: "no hashed collections in crates whose output reaches deterministic merges",
    },
    check: Check::Tokens {
        scope: |rel| MERGE_TAINTED_CRATES.iter().any(|k| under(rel, k)),
        tests: true,
        patterns: HASHED,
        message: |name| {
            format!(
                "`{name}` in a crate that feeds deterministic merged results; \
                 iteration order is seed-dependent — use BTreeMap/BTreeSet, \
                 or suppress with `// vc-lint: allow(VC009, reason = \
                 \"…\")` if iteration order is provably never observed"
            )
        },
    },
};

/// VC010: merged count structs stay integral.
const VC010: Rule = Rule {
    info: RuleInfo {
        code: "VC010",
        name: "no-floats-in-merged-counts",
        summary: "no f32/f64 struct fields in engine/trace except allowlisted throughput",
    },
    check: Check::Walk(no_floats_in_merged_counts),
};

/// VC011: environment access stays centralized in the sanctioned sites,
/// `Engine::from_env` (the engine crate root) and the `xtask` driver.
/// Tests included: an env read in a test couples its outcome to ambient
/// shell state just as silently.
const VC011: Rule = Rule {
    info: RuleInfo {
        code: "VC011",
        name: "centralized-env-access",
        summary: "env::var only in Engine::from_env and the xtask driver",
    },
    check: Check::Tokens {
        scope: |rel| rel != "crates/engine/src/lib.rs" && !under(rel, "crates/xtask"),
        tests: true,
        patterns: &[("env::var", &["env", ":", ":", "var"])],
        message: |shown| {
            format!(
                "`{shown}` outside Engine::from_env and xtask; ambient \
                 configuration must flow through the engine's single entry \
                 point so sweeps stay reproducible from their RunConfig"
            )
        },
    },
};

/// VC012: no truncating `as` casts in merge paths. The targets are those
/// that can silently drop counter bits; `usize` and `isize` are included
/// because they are 32-bit on some targets, and merged counters are
/// `u64` by contract.
const VC012: Rule = Rule {
    info: RuleInfo {
        code: "VC012",
        name: "no-truncating-casts",
        summary: "no narrowing `as` casts on counters in engine/trace merge paths",
    },
    check: Check::Tokens {
        scope: |rel| under(rel, CAST_SCAN_DIR) || CAST_SCAN_FILES.contains(&rel),
        tests: false,
        patterns: &[
            ("u8", &["as", "u8"]),
            ("u16", &["as", "u16"]),
            ("u32", &["as", "u32"]),
            ("i8", &["as", "i8"]),
            ("i16", &["as", "i16"]),
            ("i32", &["as", "i32"]),
            ("usize", &["as", "usize"]),
            ("isize", &["as", "isize"]),
        ],
        message: |target| {
            format!(
                "`as {target}` in a merge path can silently truncate a \
                 counter; use `{target}::try_from(…)` and surface the error, \
                 or suppress with a justified `// vc-lint: allow(VC012, \
                 reason = \"…\")` when the value is provably in range"
            )
        },
    },
};

/// VC015: blocking waits stay in the fleet supervisor's poll/backoff loop.
/// Everywhere else a sleep is either a hidden scheduling dependency
/// (library code) or a flakiness seed (tests, which are scanned too) —
/// poll a condition or drive a scripted backend instead.
const VC015: Rule = Rule {
    info: RuleInfo {
        code: "VC015",
        name: "no-stray-sleeps",
        summary: "thread::sleep family only in the vc-fleet supervisor module",
    },
    check: Check::Tokens {
        scope: |rel| rel != "crates/fleet/src/supervisor.rs",
        tests: true,
        patterns: &[
            ("sleep", &["sleep", "("]),
            ("sleep_ms", &["sleep_ms", "("]),
            ("sleep_until", &["sleep_until", "("]),
            ("park_timeout", &["park_timeout", "("]),
        ],
        message: |name| {
            format!(
                "`{name}(…)` outside the fleet supervisor; voluntary waits \
                 belong in vc-fleet's poll/backoff loop — elsewhere they \
                 hide scheduling assumptions (or flakiness) the sweep's \
                 determinism contract forbids"
            )
        },
    },
};

/// VC002's walk: every core crate in the tree declares
/// `#![deny(missing_docs)]` at its root.
fn deny_missing_docs(ws: &Workspace, info: &RuleInfo, out: &mut Vec<Finding>) {
    for krate in MISSING_DOCS_CRATES {
        // A crate absent from this tree is not a finding (fixture
        // trees and partial checkouts); an existing crate whose root
        // lacks the attribute is.
        if !ws.root.join(krate).is_dir() {
            continue;
        }
        let rel = format!("{krate}/src/lib.rs");
        let message = match ws.file(&rel) {
            None => "crate root missing or unreadable; it must declare `#![deny(missing_docs)]`",
            Some(f) if !has_deny_missing_docs(f) => "crate must declare `#![deny(missing_docs)]`",
            Some(_) => continue,
        };
        out.push(file_finding(&rel, info, message.to_string()));
    }
}

/// True when the file contains an inner `#![deny(…missing_docs…)]`.
fn has_deny_missing_docs(f: &SourceFile) -> bool {
    let idx = f.code_indices(true);
    for k in 0..idx.len() {
        if !matches_at(f, &idx, k, &["#", "!", "[", "deny", "("]) {
            continue;
        }
        let mut j = k + 5;
        let mut named = false;
        while j < idx.len() && !f.is_punct(idx[j], b')') {
            if f.is_ident(idx[j], "missing_docs") {
                named = true;
            }
            j += 1;
        }
        if named && matches_at(f, &idx, j, &[")", "]"]) {
            return true;
        }
    }
    false
}

/// VC008's walk: an identifier or numeric literal that normalizes to an
/// identity-helper name or a splitmix constant, outside the allowed
/// places. Test code is scanned too: a test-local digest drifts from
/// `vc-ident` just as silently as a production one.
fn content_addressed_identity(ws: &Workspace, info: &RuleInfo, out: &mut Vec<Finding>) {
    for f in &ws.files {
        if under(&f.rel, IDENTITY_ALLOWED_DIR) || IDENTITY_ALLOWED_FILES.contains(&f.rel.as_str()) {
            continue;
        }
        for ti in f.code_indices(true) {
            let norm = normalize(f.tok_text(ti));
            let hit = match f.toks[ti].kind {
                TokKind::Ident => norm == IDENTITY_IDENT,
                TokKind::Num => IDENTITY_CONSTS.contains(&norm.as_str()),
                _ => false,
            };
            if hit {
                out.push(finding_at(
                    f,
                    ti,
                    info,
                    format!(
                        "`{norm}` outside crates/ident; fold content through \
                         vc_ident::IdHasher instead of hand-rolling a digest"
                    ),
                ));
            }
        }
    }
}

/// VC010's walk: every `f32`/`f64` token inside a struct's field list in
/// [`FLOAT_SCAN_DIRS`] non-test code, unless its field is allowlisted.
fn no_floats_in_merged_counts(ws: &Workspace, info: &RuleInfo, out: &mut Vec<Finding>) {
    for f in &ws.files {
        if !FLOAT_SCAN_DIRS.iter().any(|d| under(&f.rel, d)) {
            continue;
        }
        let idx = f.code_indices(false);
        let mut k = 0;
        while k < idx.len() {
            if !f.is_ident(idx[k], "struct") {
                k += 1;
                continue;
            }
            let (body, next) = struct_body(f, &idx, k);
            for &p in &body {
                let ti = idx[p];
                let float = ["f32", "f64"].iter().find(|t| f.is_ident(ti, t));
                let Some(float) = float else { continue };
                let field = field_name_before(f, &idx, p);
                if FLOAT_FIELD_ALLOWLIST.contains(&field.as_str()) {
                    continue;
                }
                let shown = if field.is_empty() {
                    "a tuple field".to_string()
                } else {
                    format!("field `{field}`")
                };
                out.push(finding_at(
                    f,
                    ti,
                    info,
                    format!(
                        "{shown} is `{float}` in an engine/trace struct; merged counts \
                         must stay integral (floats round under reordered merges) — use \
                         u64, or allowlist the field if it is wall-clock throughput"
                    ),
                ));
            }
            k = next;
        }
    }
}

/// Given `idx[k]` on a `struct` keyword, returns the positions (into
/// `idx`) of the tokens inside the struct's field list — the `{…}` or
/// tuple `(…)` body — plus the position to resume scanning from. Unit
/// structs return an empty body. Generic parameters, bounds and `where`
/// clauses sit before the body and are excluded.
fn struct_body(f: &SourceFile, idx: &[usize], k: usize) -> (Vec<usize>, usize) {
    let mut j = k + 1;
    while j < idx.len() {
        if f.is_punct(idx[j], b';') {
            return (Vec::new(), j + 1);
        }
        if f.is_punct(idx[j], b'{') || f.is_punct(idx[j], b'(') {
            let (open, close) = if f.is_punct(idx[j], b'{') {
                (b'{', b'}')
            } else {
                (b'(', b')')
            };
            let mut depth = 0usize;
            let start = j;
            while j < idx.len() {
                if f.is_punct(idx[j], open) {
                    depth += 1;
                } else if f.is_punct(idx[j], close) {
                    depth -= 1;
                    if depth == 0 {
                        return (((start + 1)..j).collect(), j + 1);
                    }
                }
                j += 1;
            }
            return (((start + 1)..j).collect(), j);
        }
        j += 1;
    }
    (Vec::new(), j)
}

/// Walks back from position `p` (into `idx`) to the field name: the
/// identifier directly before the nearest field-separating `:` (path
/// separators `::` are skipped). Empty for tuple fields.
fn field_name_before(f: &SourceFile, idx: &[usize], p: usize) -> String {
    let mut j = p;
    while j > 0 {
        j -= 1;
        if f.is_punct(idx[j], b':') {
            let path_sep = (j > 0 && f.is_punct(idx[j - 1], b':'))
                || f.is_punct(*idx.get(j + 1).unwrap_or(&usize::MAX), b':');
            if path_sep {
                // Skip the other half of `::`.
                if j > 0 && f.is_punct(idx[j - 1], b':') {
                    j -= 1;
                }
                continue;
            }
            if j > 0 && f.toks[idx[j - 1]].kind == TokKind::Ident {
                return f.tok_text(idx[j - 1]).to_string();
            }
            return String::new();
        }
        // A `,` or the body edge before any `:` means a tuple field.
        if f.is_punct(idx[j], b',') {
            return String::new();
        }
    }
    String::new()
}

/// Info for the unused-suppression finding emitted by [`crate::run`].
pub static UNUSED_SUPPRESSION: RuleInfo = RuleInfo {
    code: "VC013",
    name: "unused-suppression",
    summary: "a pragma code that suppresses nothing must be removed",
};

/// Info for the malformed-suppression finding emitted by [`crate::run`].
pub static MALFORMED_SUPPRESSION: RuleInfo = RuleInfo {
    code: "VC014",
    name: "malformed-suppression",
    summary: "a vc-lint pragma must parse and carry a non-empty reason",
};

/// Every rule, in code order.
pub fn registry() -> &'static [Rule] {
    static REGISTRY: [Rule; 12] = [
        VC001, VC002, VC003, VC005, VC006, VC007, VC008, VC009, VC010, VC011, VC012, VC015,
    ];
    &REGISTRY
}

/// The full code catalog (rules plus driver-emitted codes), for
/// documentation and tooling, in code order. The driver-emitted
/// suppression codes (VC013/VC014) slot in between the registry rules,
/// so the merged list is re-sorted.
pub fn catalog() -> Vec<&'static RuleInfo> {
    let mut infos: Vec<&'static RuleInfo> = registry().iter().map(|r| &r.info).collect();
    infos.push(&UNUSED_SUPPRESSION);
    infos.push(&MALFORMED_SUPPRESSION);
    infos.sort_by_key(|i| i.code);
    infos
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    static NEXT: AtomicUsize = AtomicUsize::new(0);

    /// Builds a throwaway workspace on disk and loads it.
    fn ws(files: &[(&str, &str)]) -> (Workspace, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!(
            "vc-lint-rules-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        for (rel, text) in files {
            let path = dir.join(rel);
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(path, text).unwrap();
        }
        (Workspace::load(&dir), dir)
    }

    fn run_rule(rule: &Rule, ws: &Workspace) -> Vec<Finding> {
        let mut out = Vec::new();
        rule.check(ws, &mut out);
        out
    }

    #[test]
    fn oracle_hot_path_rule_fires_on_hash_collections_even_in_tests() {
        let (ws, dir) = ws(&[(
            "crates/model/src/oracle.rs",
            "use std::collections::HashMap;\n#[cfg(test)]\nmod t { use std::collections::HashSet; }\n",
        )]);
        let findings = run_rule(&VC005, &ws);
        assert_eq!(findings.len(), 2);
        assert!(findings.iter().all(|f| f.code == "VC005"));
        assert_eq!((findings[0].line, findings[0].col), (1, 23));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flat_state_rule_covers_the_solvers_but_not_congest() {
        let (ws, dir) = ws(&[
            (
                "crates/core/src/problems/util.rs",
                "#[cfg(test)]\nmod t { use std::collections::HashSet; }\n",
            ),
            (
                "crates/core/src/congest.rs",
                "use std::collections::HashMap;\n",
            ),
        ]);
        let findings = run_rule(&VC005, &ws);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].file, "crates/core/src/problems/util.rs");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn no_hidden_clocks_rule_fires_outside_the_allowlist() {
        let (ws, dir) = ws(&[
            (
                "crates/engine/src/lib.rs",
                "fn f() { let t = std::time::Instant::now(); }\n",
            ),
            (
                "crates/trace/src/time.rs",
                "pub fn now() -> std::time::Instant { std::time::Instant::now() }\n",
            ),
        ]);
        let findings = run_rule(&VC006, &ws);
        assert_eq!(findings.len(), 1, "only the non-allowlisted read fires");
        assert_eq!(findings[0].code, "VC006");
        assert_eq!(findings[0].file, "crates/engine/src/lib.rs");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stray_sleep_rule_fires_everywhere_but_the_supervisor() {
        let (ws, dir) = ws(&[
            (
                "crates/engine/src/lib.rs",
                "fn f() { std::thread::sleep(d); }\n\
                 #[cfg(test)]\nmod t { fn g() { std::thread::sleep(d); } }\n",
            ),
            (
                "crates/fleet/src/supervisor.rs",
                "fn p() { std::thread::sleep(d); }\n",
            ),
            (
                "crates/comm/src/lib.rs",
                "fn h(t: &std::thread::Thread) { std::thread::park_timeout(d); let sleepy = 1; }\n",
            ),
        ]);
        let findings = run_rule(&VC015, &ws);
        assert_eq!(findings.len(), 3, "{findings:?}");
        assert!(findings.iter().all(|f| f.code == "VC015"));
        assert!(
            findings.iter().all(|f| !f.file.starts_with("crates/fleet")),
            "the supervisor is sanctioned"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn centralized_catch_unwind_rule_fires_outside_the_engine() {
        let (ws, dir) = ws(&[
            (
                "crates/faults/src/lib.rs",
                "fn f() { let _ = std::panic::catch_unwind(|| 1); }\n",
            ),
            (
                "crates/engine/src/lib.rs",
                "fn g() { let _ = std::panic::catch_unwind(|| 2); }\n",
            ),
        ]);
        let findings = run_rule(&VC007, &ws);
        assert_eq!(findings.len(), 1, "only the non-engine call fires");
        assert_eq!(findings[0].code, "VC007");
        assert_eq!(findings[0].file, "crates/faults/src/lib.rs");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn content_addressed_identity_rule_fires_outside_vc_ident() {
        // The forbidden spellings are assembled at runtime so this test
        // file itself stays clean under the repo-wide scan.
        let helper = "sweep_".to_string() + "fingerprint";
        let gamma = "0x9E37_79B9_".to_string() + "7F4A_7C15";
        let engine = format!("fn {helper}(x: u64) -> u64 {{\n    x.wrapping_mul({gamma})\n}}\n");
        let allowed = format!("const GAMMA: u64 = {gamma};\n");
        let (ws, dir) = ws(&[
            ("crates/engine/src/checkpoint.rs", engine.as_str()),
            ("crates/ident/src/lib.rs", allowed.as_str()),
            ("crates/model/src/randomness.rs", allowed.as_str()),
        ]);
        let findings = run_rule(&VC008, &ws);
        assert_eq!(findings.len(), 2, "helper name + constant, nothing else");
        assert!(findings.iter().all(|f| f.code == "VC008"));
        assert!(findings
            .iter()
            .all(|f| f.file == "crates/engine/src/checkpoint.rs"));
        assert_eq!(findings[0].line, 1);
        assert_eq!(findings[1].line, 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn merge_taint_rule_covers_the_result_feeding_crates() {
        let (ws, dir) = ws(&[
            (
                "crates/stats/src/lib.rs",
                "use std::collections::HashMap;\n",
            ),
            ("crates/core/src/lib.rs", "use std::collections::HashMap;\n"),
        ]);
        let findings = run_rule(&VC009, &ws);
        assert_eq!(findings.len(), 1, "vc-core is not merge-tainted");
        assert_eq!(findings[0].code, "VC009");
        assert_eq!(findings[0].file, "crates/stats/src/lib.rs");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ordered_collections_rule_covers_the_code_behind_the_figures() {
        let hashed = "use std::collections::HashSet;\n";
        let (ws, dir) = ws(&[
            ("examples/table1_report.rs", hashed),
            ("crates/bench/src/gate.rs", hashed),
            ("crates/core/src/lib.rs", hashed),
        ]);
        let files: Vec<String> = run_rule(&VC003, &ws).into_iter().map(|f| f.file).collect();
        assert_eq!(
            files,
            ["crates/bench/src/gate.rs", "examples/table1_report.rs"]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn float_fields_fire_unless_allowlisted_throughput() {
        let src = "\
pub struct Counts {
    pub n: u64,
    pub mean_volume: f64,
    pub starts_per_sec: f64,
    pub histogram: Vec<f64>,
}
pub struct Tuple(f32, u64);
pub fn rate(count: f64) -> f64 { count }
";
        let (ws, dir) = ws(&[("crates/trace/src/metrics.rs", src)]);
        let findings = run_rule(&VC010, &ws);
        let lines: Vec<u32> = findings.iter().map(|f| f.line).collect();
        // mean_volume, histogram, and the tuple field — not the
        // allowlisted starts_per_sec, and never bare fn signatures.
        assert_eq!(lines, vec![3, 5, 7]);
        assert!(findings[0].message.contains("mean_volume"));
        assert!(findings[2].message.contains("tuple field"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn env_access_rule_spares_the_engine_entry_point_and_xtask() {
        let engine = "pub fn from_env() { let _ = std::env::var(\"VC_THREADS\"); }\n";
        let stray = "pub fn sneak() { let _ = std::env::var(\"VC_SNEAKY\"); }\n";
        let (ws, dir) = ws(&[
            ("crates/engine/src/lib.rs", engine),
            ("crates/xtask/src/main.rs", stray),
            ("crates/trace/src/lib.rs", stray),
            ("tests/some_test.rs", stray),
        ]);
        let findings = run_rule(&VC011, &ws);
        let files: Vec<&str> = findings.iter().map(|f| f.file.as_str()).collect();
        assert_eq!(files, vec!["crates/trace/src/lib.rs", "tests/some_test.rs"]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncating_casts_fire_only_in_merge_paths_and_non_test_code() {
        let merge = "\
pub fn squash(x: u64) -> u32 { x as u32 }
pub fn widen(x: u32) -> u64 { x as u64 }
#[cfg(test)]
mod t { fn f(x: u64) -> u8 { x as u8 } }
";
        let (ws, dir) = ws(&[
            ("crates/engine/src/lib.rs", merge),
            (
                "crates/model/src/lib.rs",
                "pub fn ok(x: u64) -> u32 { x as u32 }\n",
            ),
        ]);
        let findings = run_rule(&VC012, &ws);
        assert_eq!(findings.len(), 1, "widening and test casts are fine");
        assert_eq!(findings[0].code, "VC012");
        assert_eq!(findings[0].line, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncating_casts_fire_in_the_binary_store_decoder() {
        // The on-disk length fields of `vc-instance/v1` are untrusted
        // input; narrowing them with `as` instead of `try_from` is exactly
        // the bug class VC012 exists to catch.
        let decode = "pub fn len(x: u64) -> usize { x as usize }\n";
        let (ws, dir) = ws(&[
            ("crates/graph/src/store.rs", decode),
            ("crates/graph/src/graph.rs", decode),
        ]);
        let findings = run_rule(&VC012, &ws);
        assert_eq!(findings.len(), 1, "only the store decoder is in scope");
        assert_eq!(findings[0].file, "crates/graph/src/store.rs");
        assert_eq!(findings[0].code, "VC012");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_docs_attr_is_found_token_exactly() {
        let with = "#![deny(missing_docs)]\npub fn f() {}\n";
        let without = "#![deny(warnings)]\npub fn f() {}\n";
        let (ws, dir) = ws(&[
            ("crates/model/src/lib.rs", with),
            ("crates/graph/src/lib.rs", without),
        ]);
        let findings = run_rule(&VC002, &ws);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].file, "crates/graph/src/lib.rs");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_crate_root_cut_inside_the_attribute_is_a_finding_not_a_panic() {
        let (ws, dir) = ws(&[("crates/model/src/lib.rs", "#![deny(missing_docs")]);
        let findings = run_rule(&VC002, &ws);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].file, "crates/model/src/lib.rs");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn absent_crates_are_not_missing_docs_findings() {
        let (ws, dir) = ws(&[("crates/model/src/lib.rs", "#![deny(missing_docs)]\n")]);
        let findings = run_rule(&VC002, &ws);
        assert!(findings.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn registry_codes_are_unique_sorted_and_stable() {
        let codes: Vec<&str> = catalog().iter().map(|i| i.code).collect();
        let mut sorted = codes.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(codes, sorted, "codes are unique and in order");
        assert_eq!(codes.first(), Some(&"VC001"));
        assert_eq!(codes.last(), Some(&"VC015"));
    }
}
