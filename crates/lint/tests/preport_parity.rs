//! Port-parity regression: on the `tests/fixtures/preport/` tree, the
//! rules ported from the xtask-embedded linter must report exactly the
//! findings the pre-port linter reported.
//!
//! The expectation table below is ground truth captured by running the
//! last xtask-embedded build of the linter against this fixture tree
//! (file and line per finding; the old linter had no columns). The tree
//! exercises the seven ported rules still in force, their allowlists, and
//! their `#[cfg(test)]` handling in one place; the eighth, VC004
//! `bench-provenance`, is retired, and its one finding left the table
//! with it.

use std::path::PathBuf;

#[test]
fn ported_rules_match_the_pre_port_linter_on_the_parity_tree() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/preport");
    assert!(root.is_dir(), "missing fixture tree: {}", root.display());
    let report = vc_lint::run(&root);

    // (file, line, code) per pre-port finding, in the new deterministic
    // sort order. VC00x maps 1:1 onto the old rule names: no-panic-paths,
    // deny-missing-docs, ordered-collections-only, (retired)
    // bench-provenance, flat-oracle-state, no-hidden-clocks,
    // centralized-panic-isolation, content-addressed-identity.
    let expected: &[(&str, u32, &str)] = &[
        ("crates/bench/benches/no_anchor.rs", 2, "VC003"),
        ("crates/bench/benches/no_anchor.rs", 5, "VC003"),
        ("crates/bench/src/lib.rs", 2, "VC003"),
        ("crates/bench/src/lib.rs", 5, "VC003"),
        ("crates/engine/src/lib.rs", 1, "VC002"),
        ("crates/engine/src/lib.rs", 5, "VC006"),
        ("crates/model/src/lib.rs", 6, "VC001"),
        ("crates/model/src/oracle.rs", 2, "VC005"),
        ("crates/model/src/oracle.rs", 5, "VC005"),
        ("crates/model/src/oracle.rs", 9, "VC005"),
        ("crates/model/src/oracle.rs", 12, "VC005"),
        ("examples/demo.rs", 2, "VC008"),
        ("examples/demo.rs", 3, "VC008"),
        ("examples/demo.rs", 7, "VC008"),
        ("tests/kill.rs", 4, "VC007"),
    ];
    let got: Vec<(&str, u32, &str)> = report
        .findings
        .iter()
        .map(|f| (f.file.as_str(), f.line, f.code))
        .collect();
    assert_eq!(got, expected, "full findings: {:#?}", report.findings);
    assert_eq!(report.suppressed, 0);

    // Each finding's rule name and message, as rendered, are pinned too.
    let rendered: Vec<String> = report
        .findings
        .iter()
        .map(|f| format!("preport {f}"))
        .collect();
    let pinned: Vec<&str> = include_str!("fixtures/rendered.txt")
        .lines()
        .filter(|l| l.starts_with("preport "))
        .collect();
    assert_eq!(rendered, pinned, "a rule's name or message drifted");
}

#[test]
fn every_parity_finding_carries_a_nonzero_column() {
    // The port is allowed to *add* precision: each finding must now carry
    // a 1-indexed column pointing into the offending line.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/preport");
    let report = vc_lint::run(&root);
    for f in &report.findings {
        assert!(f.col >= 1, "finding without a column: {f}");
    }
}
