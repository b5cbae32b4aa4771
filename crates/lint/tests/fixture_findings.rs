//! Per-code fixture self-tests: every rule code has a minimal violating
//! tree under `tests/fixtures/percode/` that produces exactly one finding
//! with an exact `code:line:col` anchor, rendered exactly as pinned in
//! `tests/fixtures/rendered.txt`, and every suppressible determinism rule
//! (VC009–VC012) has a pragma-suppressed variant that runs clean.

use std::path::PathBuf;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/percode")
        .join(name)
}

fn run(name: &str) -> vc_lint::Report {
    let dir = fixture(name);
    assert!(dir.is_dir(), "missing fixture tree: {}", dir.display());
    vc_lint::run(&dir)
}

#[test]
fn each_rule_code_has_a_minimal_violating_fixture() {
    let expected: &[(&str, &str, u32, u32, &str)] = &[
        ("vc001", "crates/model/src/lib.rs", 6, 6, "VC001"),
        ("vc002", "crates/model/src/lib.rs", 1, 1, "VC002"),
        ("vc003", "crates/bench/src/lib.rs", 2, 23, "VC003"),
        ("vc005", "crates/model/src/oracle.rs", 2, 23, "VC005"),
        (
            "vc005_solvers",
            "crates/core/src/problems/walk.rs",
            4,
            27,
            "VC005",
        ),
        ("vc006", "examples/clock.rs", 3, 25, "VC006"),
        ("vc007", "tests/t.rs", 3, 25, "VC007"),
        ("vc008", "examples/id.rs", 2, 19, "VC008"),
        ("vc009", "crates/engine/src/lib.rs", 3, 23, "VC009"),
        ("vc010", "crates/trace/src/lib.rs", 7, 22, "VC010"),
        ("vc011", "examples/env.rs", 3, 18, "VC011"),
        ("vc012", "crates/engine/src/lib.rs", 6, 7, "VC012"),
        ("vc012_store", "crates/graph/src/store.rs", 6, 7, "VC012"),
        ("vc012_json", "crates/json/src/lib.rs", 6, 7, "VC012"),
        ("vc013", "examples/unused.rs", 2, 1, "VC013"),
        ("vc014", "examples/malformed.rs", 2, 1, "VC014"),
        ("vc015", "examples/sleepy.rs", 3, 18, "VC015"),
    ];
    let mut rendered = Vec::new();
    for &(name, file, line, col, code) in expected {
        let r = run(name);
        assert_eq!(
            r.findings.len(),
            1,
            "{name}: expected exactly one finding, got {:?}",
            r.findings
        );
        let f = &r.findings[0];
        assert_eq!(
            (f.file.as_str(), f.line, f.col, f.code),
            (file, line, col, code),
            "{name}: wrong anchor"
        );
        assert_eq!(r.suppressed, 0, "{name}: nothing should be suppressed");
        rendered.push(format!("percode/{name} {f}"));
    }
    rendered.sort();
    let pinned: Vec<&str> = include_str!("fixtures/rendered.txt")
        .lines()
        .filter(|l| l.starts_with("percode/"))
        .collect();
    assert_eq!(rendered, pinned, "a rule's name or message drifted");
}

#[test]
fn suppressed_variants_run_clean_and_count_the_suppression() {
    for name in [
        "vc009_suppressed",
        "vc010_suppressed",
        "vc011_suppressed",
        "vc012_suppressed",
    ] {
        let r = run(name);
        assert!(
            r.findings.is_empty(),
            "{name}: expected a clean run, got {:?}",
            r.findings
        );
        assert_eq!(r.suppressed, 1, "{name}: the pragma must count as used");
    }
}

#[test]
fn the_catalog_covers_every_fixture_code() {
    let codes: Vec<&str> = vc_lint::catalog().iter().map(|i| i.code).collect();
    // VC004 (`bench-provenance`) is retired; its code stays reserved.
    assert!(!codes.contains(&"VC004"), "a retired code came back");
    for n in (1..=15).filter(|&n| n != 4) {
        let code = format!("VC{n:03}");
        assert!(
            codes.contains(&code.as_str()),
            "missing from catalog: {code}"
        );
    }
}
