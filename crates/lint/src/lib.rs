//! vc-lint: the span-aware determinism linter for this workspace.
//!
//! The repository's architectural invariants — panic-free core crates,
//! ordered collections on result paths, centralized clocks, env access
//! and panic isolation, content-addressed identity — are enforced by a
//! small token-level linter rather than by convention. This crate is that
//! linter: dependency-free, driven by `cargo run -p xtask -- lint`.
//!
//! Structure:
//!
//! - [`lexer`]: a minimal Rust lexer producing spanned tokens. Strings,
//!   raw strings, byte strings, char/byte literals, lifetimes and nested
//!   block comments are single tokens, so rules match token sequences
//!   instead of substrings and never fire on text inside literals or
//!   comments.
//! - [`source`]: workspace loading, `target/`/`vendor/` skipping, and
//!   `#[cfg(test)]` masking.
//! - [`rules`]: the rule registry, one [`Rule`] row per code (`VC001`…;
//!   see DESIGN.md §13 for the catalog). A row holds its [`RuleInfo`]
//!   and either token patterns, matched in the files it covers by one
//!   shared loop, or a walk function for the structural rules.
//! - [`pragma`]: inline suppressions
//!   (`// vc-lint: allow(VC00x, reason = "…")`) with mandatory reasons;
//!   unused or malformed suppressions are themselves findings.
//! - [`report`]: deterministic ordering, human rendering, and the
//!   `vc-lint-report/v1` JSON document.
//!
//! [`run`] wires these together: load, check every rule, apply
//! suppressions, flag suppression-hygiene violations, sort.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod lexer;
pub mod pragma;
pub mod report;
pub mod rules;
pub mod source;

pub use report::{Finding, Report, REPORT_SCHEMA};
pub use rules::{catalog, registry, Rule, RuleInfo};
pub use source::Workspace;

use std::path::Path;

/// Runs the full rule registry against the workspace rooted at `root`
/// and returns the sorted report.
///
/// Suppression semantics: a finding is silenced when a well-formed
/// pragma in the same file lists its code and sits on the finding's own
/// line (trailing form) or the line directly above (standalone form).
/// Every silenced finding increments [`Report::suppressed`]; every
/// pragma code that silences nothing becomes a `VC013` finding and every
/// pragma that fails to parse becomes a `VC014` finding — neither of
/// which can be suppressed.
pub fn run(root: &Path) -> Report {
    let ws = Workspace::load(root);
    let mut findings = Vec::new();
    for rule in rules::registry() {
        rule.check(&ws, &mut findings);
    }

    let mut pragmas = Vec::new();
    let mut malformed = Vec::new();
    for f in &ws.files {
        let (p, m) = pragma::collect(f);
        pragmas.extend(p);
        malformed.extend(m);
    }

    let mut used: Vec<Vec<bool>> = pragmas.iter().map(|p| vec![false; p.codes.len()]).collect();
    let mut kept = Vec::new();
    let mut suppressed = 0usize;
    for f in findings {
        let mut hit = false;
        for (pi, p) in pragmas.iter().enumerate() {
            if p.file != f.file || (f.line != p.line && f.line != p.line + 1) {
                continue;
            }
            if let Some(ci) = p.codes.iter().position(|c| c == f.code) {
                used[pi][ci] = true;
                hit = true;
            }
        }
        if hit {
            suppressed += 1;
        } else {
            kept.push(f);
        }
    }

    for (pi, p) in pragmas.iter().enumerate() {
        for (ci, code) in p.codes.iter().enumerate() {
            if used[pi][ci] {
                continue;
            }
            kept.push(Finding {
                file: p.file.clone(),
                line: p.line,
                col: p.col,
                code: rules::UNUSED_SUPPRESSION.code,
                rule: rules::UNUSED_SUPPRESSION.name,
                message: format!(
                    "suppression of {code} matches no finding on this line or the next; \
                     remove it (its reason was: {:?})",
                    p.reason
                ),
            });
        }
    }

    for m in malformed {
        kept.push(Finding {
            file: m.file,
            line: m.line,
            col: m.col,
            code: rules::MALFORMED_SUPPRESSION.code,
            rule: rules::MALFORMED_SUPPRESSION.name,
            message: format!("malformed vc-lint pragma: {}", m.error),
        });
    }

    let mut report = Report {
        findings: kept,
        suppressed,
        files_scanned: ws.files.len(),
    };
    report.sort();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    static NEXT: AtomicUsize = AtomicUsize::new(0);

    fn tree(files: &[(&str, &str)]) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "vc-lint-run-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        for (rel, text) in files {
            let path = dir.join(rel);
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(path, text).unwrap();
        }
        dir
    }

    #[test]
    fn standalone_pragma_suppresses_the_line_below() {
        let dir = tree(&[(
            "crates/stats/src/lib.rs",
            "// vc-lint: allow(VC009, reason = \"keyed scratch, order never observed\")\n\
             use std::collections::HashMap;\n",
        )]);
        let r = run(&dir);
        assert!(r.findings.is_empty(), "unexpected: {:?}", r.findings);
        assert_eq!(r.suppressed, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn trailing_pragma_suppresses_its_own_line() {
        let dir = tree(&[(
            "crates/stats/src/lib.rs",
            "use std::collections::HashMap; // vc-lint: allow(VC009, reason = \"import only\")\n\
             struct S;\n",
        )]);
        let r = run(&dir);
        assert!(r.findings.is_empty(), "unexpected: {:?}", r.findings);
        assert_eq!(r.suppressed, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unused_suppressions_become_vc013_findings() {
        let dir = tree(&[(
            "crates/stats/src/lib.rs",
            "// vc-lint: allow(VC009, reason = \"nothing here uses a hash map\")\n\
             pub struct S;\n",
        )]);
        let r = run(&dir);
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].code, "VC013");
        assert_eq!(r.findings[0].line, 1);
        assert_eq!(r.suppressed, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn malformed_pragmas_become_vc014_findings() {
        let dir = tree(&[(
            "crates/stats/src/lib.rs",
            "// vc-lint: allow(VC009)\nuse std::collections::HashMap;\n",
        )]);
        let r = run(&dir);
        let codes: Vec<&str> = r.findings.iter().map(|f| f.code).collect();
        // The pragma is malformed, so it suppresses nothing: the VC009
        // finding survives alongside the VC014 (which sorts first — it
        // anchors at the pragma's own line).
        assert_eq!(codes, vec!["VC014", "VC009"]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_pragma_cannot_silence_suppression_hygiene_codes() {
        let dir = tree(&[(
            "crates/stats/src/lib.rs",
            "// vc-lint: allow(VC013, reason = \"trying to silence the silencer\")\n\
             pub struct S;\n",
        )]);
        let r = run(&dir);
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].code, "VC013");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn report_is_sorted_and_counts_files() {
        let dir = tree(&[
            ("crates/stats/src/b.rs", "use std::collections::HashMap;\n"),
            ("crates/stats/src/a.rs", "use std::collections::HashSet;\n"),
        ]);
        let r = run(&dir);
        assert_eq!(r.files_scanned, 2);
        let files: Vec<&str> = r.findings.iter().map(|f| f.file.as_str()).collect();
        assert_eq!(
            files,
            vec!["crates/stats/src/a.rs", "crates/stats/src/b.rs"]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
