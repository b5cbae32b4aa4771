//! The rule registry: every architectural invariant as a [`Rule`] with a
//! stable code.
//!
//! Codes are append-only and never reused: `VC001`–`VC008` are the eight
//! rules the original `xtask` linter enforced (ported token-exact),
//! `VC009`–`VC012` are the determinism rules added with this crate, and
//! `VC013`/`VC014` are the suppression-hygiene findings emitted by the
//! driver itself (see [`crate::run`]). DESIGN.md §13 is the catalog of
//! record; the README maps each code to its invariant and origin PR.

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
pub trait Rule {
    /// The rule's identity card.
    fn info(&self) -> &'static RuleInfo;
    /// Appends findings for every violation in `ws`.
    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>);
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

/// The only file allowed to read the wall clock directly (VC006).
const CLOCK_ALLOWLIST: &[&str] = &["crates/trace/src/time.rs"];

/// The only file allowed to sleep or wait on wall-clock time (VC015):
/// the fleet supervisor's poll/backoff loop. Everywhere else a sleep is
/// either a hidden scheduling dependency (library code) or a flakiness
/// seed (tests).
const SLEEP_ALLOWLIST: &[&str] = &["crates/fleet/src/supervisor.rs"];

/// Call idents VC015 hunts for: the std blocking-wait family.
const SLEEP_IDENTS: &[&str] = &["sleep", "sleep_ms", "sleep_until", "park_timeout"];

/// The only directory allowed to call `catch_unwind` (VC007).
const CATCH_UNWIND_ALLOWED_DIR: &str = "crates/engine/src";

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

/// Paper anchors accepted as benchmark provenance (VC004).
const PROVENANCE_ANCHORS: &[&str] = &["Table", "Figure", "Example", "Observation", "Proposition"];

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

/// Files inside [`MERGE_TAINTED_CRATES`] exempt from VC009. Empty today:
/// prefer an inline pragma with a reason so the justification lives next
/// to the code; reserve this list for generated files that cannot carry
/// comments.
const MERGE_TAINT_FILE_ALLOWLIST: &[&str] = &[];

/// Struct fields allowed to be `f64` in engine/trace structs (VC010):
/// wall-clock throughput, explicitly quarantined from merged counts.
const FLOAT_FIELD_ALLOWLIST: &[&str] = &["starts_per_sec", "queries_per_sec"];

/// Directories whose structs VC010 scans.
const FLOAT_SCAN_DIRS: &[&str] = &["crates/engine/src", "crates/trace/src", "crates/serve/src"];

/// The sanctioned environment-access sites (VC011): `Engine::from_env`
/// (the engine crate root) and the `xtask` driver.
const ENV_ALLOWED_FILE: &str = "crates/engine/src/lib.rs";
const ENV_ALLOWED_DIR: &str = "crates/xtask";

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

/// Cast targets that can silently drop counter bits (VC012). `usize` and
/// `isize` are included: they are 32-bit on some targets, and merged
/// counters are `u64` by contract.
const NARROW_CAST_TARGETS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32", "usize", "isize"];

/// True when `rel` lies under directory `dir` (both `/`-separated).
fn under(rel: &str, dir: &str) -> bool {
    rel.len() > dir.len() && rel.starts_with(dir) && rel.as_bytes()[dir.len()] == b'/'
}

/// A token pattern element: an identifier with this exact spelling, or a
/// single punctuation byte.
enum Pat {
    I(&'static str),
    P(u8),
}

/// True when the filtered token positions `idx[k..]` start with `pat`.
fn matches_at(f: &SourceFile, idx: &[usize], k: usize, pat: &[Pat]) -> bool {
    pat.iter().enumerate().all(|(o, p)| {
        idx.get(k + o).is_some_and(|&ti| match p {
            Pat::I(name) => f.is_ident(ti, name),
            Pat::P(b) => f.is_punct(ti, *b),
        })
    })
}

/// Builds a finding anchored at token `ti` of `f`.
fn finding_at(f: &SourceFile, ti: usize, info: &'static RuleInfo, message: String) -> Finding {
    Finding {
        file: f.rel.clone(),
        line: f.toks[ti].line,
        col: f.toks[ti].col,
        code: info.code,
        rule: info.name,
        message,
    }
}

/// Builds a finding at `line:col` of `f` (for file-level findings).
fn finding_pos(f: &str, line: u32, col: u32, info: &'static RuleInfo, message: String) -> Finding {
    Finding {
        file: f.to_string(),
        line,
        col,
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

// ---------------------------------------------------------------------------
// VC001 no-panic-paths
// ---------------------------------------------------------------------------

/// VC001: no panic paths in library code.
pub struct NoPanicPaths;

/// Info for [`NoPanicPaths`].
pub static VC001: RuleInfo = RuleInfo {
    code: "VC001",
    name: "no-panic-paths",
    summary: "non-test code in core crates must return errors, never abort",
};

impl Rule for NoPanicPaths {
    fn info(&self) -> &'static RuleInfo {
        &VC001
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        const PATTERNS: &[(&str, &[Pat])] = &[
            (
                ".unwrap()",
                &[Pat::P(b'.'), Pat::I("unwrap"), Pat::P(b'('), Pat::P(b')')],
            ),
            (".expect(", &[Pat::P(b'.'), Pat::I("expect"), Pat::P(b'(')]),
            ("panic!", &[Pat::I("panic"), Pat::P(b'!')]),
            (
                "unreachable!(",
                &[Pat::I("unreachable"), Pat::P(b'!'), Pat::P(b'(')],
            ),
            ("todo!(", &[Pat::I("todo"), Pat::P(b'!'), Pat::P(b'(')]),
            (
                "unimplemented!(",
                &[Pat::I("unimplemented"), Pat::P(b'!'), Pat::P(b'(')],
            ),
        ];
        for f in &ws.files {
            if !PANIC_FREE_CRATES
                .iter()
                .any(|k| under(&f.rel, &format!("{k}/src")))
            {
                continue;
            }
            let idx = f.code_indices(false);
            for k in 0..idx.len() {
                for (shown, pat) in PATTERNS {
                    if matches_at(f, &idx, k, pat) {
                        out.push(finding_at(
                            f,
                            idx[k],
                            &VC001,
                            format!(
                                "`{shown}` in non-test code; return a QueryError/GraphError instead"
                            ),
                        ));
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// VC002 deny-missing-docs
// ---------------------------------------------------------------------------

/// VC002: documentation is mandatory in core crates.
pub struct DenyMissingDocs;

/// Info for [`DenyMissingDocs`].
pub static VC002: RuleInfo = RuleInfo {
    code: "VC002",
    name: "deny-missing-docs",
    summary: "core crate roots must declare #![deny(missing_docs)]",
};

impl Rule for DenyMissingDocs {
    fn info(&self) -> &'static RuleInfo {
        &VC002
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        for krate in MISSING_DOCS_CRATES {
            // A crate absent from this tree is not a finding (fixture
            // trees and partial checkouts); an existing crate whose root
            // lacks the attribute is.
            if !ws.root.join(krate).is_dir() {
                continue;
            }
            let rel = format!("{krate}/src/lib.rs");
            let Some(f) = ws.file(&rel) else {
                out.push(finding_pos(
                    &rel,
                    1,
                    1,
                    &VC002,
                    "crate root missing or unreadable; it must declare `#![deny(missing_docs)]`"
                        .to_string(),
                ));
                continue;
            };
            if !has_deny_missing_docs(f) {
                out.push(finding_pos(
                    &rel,
                    1,
                    1,
                    &VC002,
                    "crate must declare `#![deny(missing_docs)]`".to_string(),
                ));
            }
        }
    }
}

/// True when the file contains an inner `#![deny(…missing_docs…)]`.
fn has_deny_missing_docs(f: &SourceFile) -> bool {
    let idx = f.code_indices(true);
    for k in 0..idx.len() {
        let prefix = [
            Pat::P(b'#'),
            Pat::P(b'!'),
            Pat::P(b'['),
            Pat::I("deny"),
            Pat::P(b'('),
        ];
        if !matches_at(f, &idx, k, &prefix) {
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
        if named
            && f.is_punct(idx[j], b')')
            && f.is_punct(*idx.get(j + 1).unwrap_or(&usize::MAX), b']')
        {
            return true;
        }
    }
    false
}

// ---------------------------------------------------------------------------
// VC003 ordered-collections-only
// ---------------------------------------------------------------------------

/// VC003: deterministic figure/table paths in `crates/bench`.
pub struct OrderedCollectionsOnly;

/// Info for [`OrderedCollectionsOnly`].
pub static VC003: RuleInfo = RuleInfo {
    code: "VC003",
    name: "ordered-collections-only",
    summary: "crates/bench must not use hashed collections: iteration order feeds figures",
};

impl Rule for OrderedCollectionsOnly {
    fn info(&self) -> &'static RuleInfo {
        &VC003
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        for f in &ws.files {
            if !under(&f.rel, "crates/bench/src") && !under(&f.rel, "crates/bench/benches") {
                continue;
            }
            for (ti, name) in hashed_collection_idents(f, false) {
                out.push(finding_at(
                    f,
                    ti,
                    &VC003,
                    format!(
                        "`{name}` in a figure/table code path; use BTreeMap/BTreeSet \
                         so iteration order is deterministic"
                    ),
                ));
            }
        }
    }
}

/// Positions of `HashMap`/`HashSet` identifier tokens.
fn hashed_collection_idents(f: &SourceFile, include_tests: bool) -> Vec<(usize, &'static str)> {
    let mut hits = Vec::new();
    for ti in f.code_indices(include_tests) {
        for name in ["HashMap", "HashSet"] {
            if f.is_ident(ti, name) {
                hits.push((ti, name));
            }
        }
    }
    hits
}

// ---------------------------------------------------------------------------
// VC004 bench-provenance
// ---------------------------------------------------------------------------

/// VC004: benchmarks declare the paper artifact they reproduce.
pub struct BenchProvenance;

/// Info for [`BenchProvenance`].
pub static VC004: RuleInfo = RuleInfo {
    code: "VC004",
    name: "bench-provenance",
    summary: "every bench header must cite a Table/Figure/Example/Observation/Proposition",
};

impl Rule for BenchProvenance {
    fn info(&self) -> &'static RuleInfo {
        &VC004
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        for f in &ws.files {
            if !under(&f.rel, "crates/bench/benches") {
                continue;
            }
            // The header: comment tokens before the first code token.
            let cited = f
                .toks
                .iter()
                .enumerate()
                .take_while(|(_, t)| t.kind.is_comment())
                .any(|(i, _)| {
                    let text = f.tok_text(i);
                    PROVENANCE_ANCHORS.iter().any(|a| text.contains(a))
                });
            if !cited {
                out.push(finding_pos(
                    &f.rel,
                    1,
                    1,
                    &VC004,
                    format!(
                        "benchmark header must cite its paper artifact (one of: {})",
                        PROVENANCE_ANCHORS.join(", ")
                    ),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// VC005 flat-oracle-state
// ---------------------------------------------------------------------------

/// VC005: the execution hot path stays flat — the oracle and the
/// query-model solvers, whose per-node state lives in epoch-stamped
/// scratch.
pub struct FlatOracleState;

/// Info for [`FlatOracleState`].
pub static VC005: RuleInfo = RuleInfo {
    code: "VC005",
    name: "flat-oracle-state",
    summary: "no hashed collections in the oracle or solver hot path, tests included",
};

/// The query-model solvers VC005 scans besides `oracle.rs`.
const SOLVER_DIR: &str = "crates/core/src/problems";

impl Rule for FlatOracleState {
    fn info(&self) -> &'static RuleInfo {
        &VC005
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        // Deliberately scans test code too: a HashMap-shaped test fixture
        // is usually the first step of a HashMap-shaped regression.
        let hot = |rel: &str| rel == "crates/model/src/oracle.rs" || under(rel, SOLVER_DIR);
        for f in ws.files.iter().filter(|f| hot(&f.rel)) {
            for (ti, name) in hashed_collection_idents(f, true) {
                out.push(finding_at(
                    f,
                    ti,
                    &VC005,
                    format!(
                        "`{name}` in the execution hot path; per-node state belongs in \
                         the epoch-stamped ExecScratch / SolverScratch buffers"
                    ),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// VC006 no-hidden-clocks
// ---------------------------------------------------------------------------

/// VC006: no hidden clocks.
pub struct NoHiddenClocks;

/// Info for [`NoHiddenClocks`].
pub static VC006: RuleInfo = RuleInfo {
    code: "VC006",
    name: "no-hidden-clocks",
    summary: "Instant::now only in the sanctioned Stopwatch module",
};

impl Rule for NoHiddenClocks {
    fn info(&self) -> &'static RuleInfo {
        &VC006
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        for f in &ws.files {
            if CLOCK_ALLOWLIST.contains(&f.rel.as_str()) {
                continue;
            }
            // Test code is scanned too: timing assertions belong on
            // Stopwatch as well, so its monotonicity guarantees hold
            // everywhere.
            let idx = f.code_indices(true);
            for k in 0..idx.len() {
                let pat = [Pat::I("Instant"), Pat::P(b':'), Pat::P(b':'), Pat::I("now")];
                if matches_at(f, &idx, k, &pat) {
                    out.push(finding_at(
                        f,
                        idx[k],
                        &VC006,
                        "`Instant::now` outside crates/trace/src/time.rs; \
                         use vc_trace::time::Stopwatch"
                            .to_string(),
                    ));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// VC007 centralized-panic-isolation
// ---------------------------------------------------------------------------

/// VC007: panic isolation stays centralized.
pub struct CentralizedPanicIsolation;

/// Info for [`CentralizedPanicIsolation`].
pub static VC007: RuleInfo = RuleInfo {
    code: "VC007",
    name: "centralized-panic-isolation",
    summary: "catch_unwind only in the engine's chunk runner",
};

impl Rule for CentralizedPanicIsolation {
    fn info(&self) -> &'static RuleInfo {
        &VC007
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        for f in &ws.files {
            if under(&f.rel, CATCH_UNWIND_ALLOWED_DIR) {
                continue;
            }
            // Test code is scanned too: a test that swallows panics hides
            // exactly the failures the engine ledger is meant to surface.
            for ti in f.code_indices(true) {
                if f.is_ident(ti, "catch_unwind") {
                    out.push(finding_at(
                        f,
                        ti,
                        &VC007,
                        "`catch_unwind` outside crates/engine/src; panic isolation \
                         belongs to the engine's chunk runner"
                            .to_string(),
                    ));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// VC008 content-addressed-identity
// ---------------------------------------------------------------------------

/// VC008: identity hashing stays in `vc-ident`.
pub struct ContentAddressedIdentity;

/// Info for [`ContentAddressedIdentity`].
pub static VC008: RuleInfo = RuleInfo {
    code: "VC008",
    name: "content-addressed-identity",
    summary: "no ad-hoc fingerprint helpers or splitmix constants outside vc-ident",
};

impl Rule for ContentAddressedIdentity {
    fn info(&self) -> &'static RuleInfo {
        &VC008
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        for f in &ws.files {
            if under(&f.rel, IDENTITY_ALLOWED_DIR)
                || IDENTITY_ALLOWED_FILES.contains(&f.rel.as_str())
            {
                continue;
            }
            // Test code is scanned too: a test-local digest drifts from
            // `vc-ident` just as silently as a production one.
            for ti in f.code_indices(true) {
                let norm = normalize(f.tok_text(ti));
                let hit = match f.toks[ti].kind {
                    crate::lexer::TokKind::Ident => norm == IDENTITY_IDENT,
                    crate::lexer::TokKind::Num => IDENTITY_CONSTS.contains(&norm.as_str()),
                    _ => false,
                };
                if hit {
                    out.push(finding_at(
                        f,
                        ti,
                        &VC008,
                        format!(
                            "`{norm}` outside crates/ident; fold content through \
                             vc_ident::IdHasher instead of hand-rolling a digest"
                        ),
                    ));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// VC009 merge-tainted-collections
// ---------------------------------------------------------------------------

/// VC009: no nondeterministic iteration in crates that feed merged
/// results.
pub struct MergeTaintedCollections;

/// Info for [`MergeTaintedCollections`].
pub static VC009: RuleInfo = RuleInfo {
    code: "VC009",
    name: "merge-tainted-collections",
    summary: "no hashed collections in crates whose output reaches deterministic merges",
};

impl Rule for MergeTaintedCollections {
    fn info(&self) -> &'static RuleInfo {
        &VC009
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        for f in &ws.files {
            if !MERGE_TAINTED_CRATES.iter().any(|k| under(&f.rel, k)) {
                continue;
            }
            if MERGE_TAINT_FILE_ALLOWLIST.contains(&f.rel.as_str()) {
                continue;
            }
            // Tests included: byte-identical-merge suites that iterate a
            // hashed collection can pass locally and flake in CI.
            for (ti, name) in hashed_collection_idents(f, true) {
                out.push(finding_at(
                    f,
                    ti,
                    &VC009,
                    format!(
                        "`{name}` in a crate that feeds deterministic merged results; \
                         iteration order is seed-dependent — use BTreeMap/BTreeSet, \
                         or suppress with `// vc-lint: allow(VC009, reason = \
                         \"…\")` if iteration order is provably never observed"
                    ),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// VC010 no-floats-in-merged-counts
// ---------------------------------------------------------------------------

/// VC010: merged count structs stay integral.
pub struct NoFloatsInMergedCounts;

/// Info for [`NoFloatsInMergedCounts`].
pub static VC010: RuleInfo = RuleInfo {
    code: "VC010",
    name: "no-floats-in-merged-counts",
    summary: "no f32/f64 struct fields in engine/trace except allowlisted throughput",
};

impl Rule for NoFloatsInMergedCounts {
    fn info(&self) -> &'static RuleInfo {
        &VC010
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
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
                        &VC010,
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
            if j > 0 && f.toks[idx[j - 1]].kind == crate::lexer::TokKind::Ident {
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

// ---------------------------------------------------------------------------
// VC011 centralized-env-access
// ---------------------------------------------------------------------------

/// VC011: environment access stays centralized.
pub struct CentralizedEnvAccess;

/// Info for [`CentralizedEnvAccess`].
pub static VC011: RuleInfo = RuleInfo {
    code: "VC011",
    name: "centralized-env-access",
    summary: "env::var only in Engine::from_env and the xtask driver",
};

impl Rule for CentralizedEnvAccess {
    fn info(&self) -> &'static RuleInfo {
        &VC011
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        for f in &ws.files {
            if f.rel == ENV_ALLOWED_FILE || under(&f.rel, ENV_ALLOWED_DIR) {
                continue;
            }
            // Tests included: an env read in a test couples its outcome
            // to ambient shell state just as silently.
            let idx = f.code_indices(true);
            for k in 0..idx.len() {
                let pat = [Pat::I("env"), Pat::P(b':'), Pat::P(b':'), Pat::I("var")];
                if matches_at(f, &idx, k, &pat) {
                    out.push(finding_at(
                        f,
                        idx[k],
                        &VC011,
                        "`env::var` outside Engine::from_env and xtask; ambient \
                         configuration must flow through the engine's single entry \
                         point so sweeps stay reproducible from their RunConfig"
                            .to_string(),
                    ));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// VC012 no-truncating-casts
// ---------------------------------------------------------------------------

/// VC012: no truncating `as` casts in merge paths.
pub struct NoTruncatingCasts;

/// Info for [`NoTruncatingCasts`].
pub static VC012: RuleInfo = RuleInfo {
    code: "VC012",
    name: "no-truncating-casts",
    summary: "no narrowing `as` casts on counters in engine/trace merge paths",
};

impl Rule for NoTruncatingCasts {
    fn info(&self) -> &'static RuleInfo {
        &VC012
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        for f in &ws.files {
            let in_scope =
                under(&f.rel, CAST_SCAN_DIR) || CAST_SCAN_FILES.contains(&f.rel.as_str());
            if !in_scope {
                continue;
            }
            let idx = f.code_indices(false);
            for k in 0..idx.len() {
                if !f.is_ident(idx[k], "as") {
                    continue;
                }
                let Some(&target_ti) = idx.get(k + 1) else {
                    continue;
                };
                let target = NARROW_CAST_TARGETS
                    .iter()
                    .find(|t| f.is_ident(target_ti, t));
                if let Some(target) = target {
                    out.push(finding_at(
                        f,
                        idx[k],
                        &VC012,
                        format!(
                            "`as {target}` in a merge path can silently truncate a \
                             counter; use `{target}::try_from(…)` and surface the error, \
                             or suppress with a justified `// vc-lint: allow(VC012, \
                             reason = \"…\")` when the value is provably in range"
                        ),
                    ));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// VC015 no-stray-sleeps
// ---------------------------------------------------------------------------

/// VC015: blocking waits stay in the fleet supervisor.
pub struct NoStraySleeps;

/// Info for [`NoStraySleeps`].
pub static VC015: RuleInfo = RuleInfo {
    code: "VC015",
    name: "no-stray-sleeps",
    summary: "thread::sleep family only in the vc-fleet supervisor module",
};

impl Rule for NoStraySleeps {
    fn info(&self) -> &'static RuleInfo {
        &VC015
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        for f in &ws.files {
            if SLEEP_ALLOWLIST.contains(&f.rel.as_str()) {
                continue;
            }
            // Tests included: a sleep in a test is a flakiness seed —
            // poll a condition or drive a scripted backend instead.
            let idx = f.code_indices(true);
            for k in 0..idx.len() {
                let called = SLEEP_IDENTS
                    .iter()
                    .find(|name| matches_at(f, &idx, k, &[Pat::I(name), Pat::P(b'(')]));
                if let Some(name) = called {
                    out.push(finding_at(
                        f,
                        idx[k],
                        &VC015,
                        format!(
                            "`{name}(…)` outside the fleet supervisor; voluntary waits \
                             belong in vc-fleet's poll/backoff loop — elsewhere they \
                             hide scheduling assumptions (or flakiness) the sweep's \
                             determinism contract forbids"
                        ),
                    ));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Driver-emitted suppression findings (not rules, but cataloged codes)
// ---------------------------------------------------------------------------

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
pub fn registry() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(NoPanicPaths),
        Box::new(DenyMissingDocs),
        Box::new(OrderedCollectionsOnly),
        Box::new(BenchProvenance),
        Box::new(FlatOracleState),
        Box::new(NoHiddenClocks),
        Box::new(CentralizedPanicIsolation),
        Box::new(ContentAddressedIdentity),
        Box::new(MergeTaintedCollections),
        Box::new(NoFloatsInMergedCounts),
        Box::new(CentralizedEnvAccess),
        Box::new(NoTruncatingCasts),
        Box::new(NoStraySleeps),
    ]
}

/// The full code catalog (rules plus driver-emitted codes), for
/// documentation and tooling, in code order. The driver-emitted
/// suppression codes (VC013/VC014) slot in between the registry rules,
/// so the merged list is re-sorted.
pub fn catalog() -> Vec<&'static RuleInfo> {
    let mut infos: Vec<&'static RuleInfo> = registry().iter().map(|r| r.info()).collect();
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

    fn run_rule(rule: &dyn Rule, ws: &Workspace) -> Vec<Finding> {
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
        let findings = run_rule(&FlatOracleState, &ws);
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
        let findings = run_rule(&FlatOracleState, &ws);
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
        let findings = run_rule(&NoHiddenClocks, &ws);
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
        let findings = run_rule(&NoStraySleeps, &ws);
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
        let findings = run_rule(&CentralizedPanicIsolation, &ws);
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
        let findings = run_rule(&ContentAddressedIdentity, &ws);
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
        let findings = run_rule(&MergeTaintedCollections, &ws);
        assert_eq!(findings.len(), 1, "vc-core is not merge-tainted");
        assert_eq!(findings[0].code, "VC009");
        assert_eq!(findings[0].file, "crates/stats/src/lib.rs");
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
        let findings = run_rule(&NoFloatsInMergedCounts, &ws);
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
        let findings = run_rule(&CentralizedEnvAccess, &ws);
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
        let findings = run_rule(&NoTruncatingCasts, &ws);
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
        let findings = run_rule(&NoTruncatingCasts, &ws);
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
        let findings = run_rule(&DenyMissingDocs, &ws);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].file, "crates/graph/src/lib.rs");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn absent_crates_are_not_missing_docs_findings() {
        let (ws, dir) = ws(&[("crates/model/src/lib.rs", "#![deny(missing_docs)]\n")]);
        let findings = run_rule(&DenyMissingDocs, &ws);
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
