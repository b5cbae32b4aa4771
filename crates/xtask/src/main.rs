//! In-repo automation tasks (the `cargo xtask` pattern), dependency-free.
//!
//! `cargo run -p xtask -- lint [--json]` runs the workspace determinism
//! linter. The linter itself lives in `crates/lint` (the `vc-lint`
//! library): a token-level scanner enforcing the repo's architectural
//! invariants under stable rule codes (`VC001`…`VC015`) with
//! `file:line:col` spans and inline suppression pragmas
//! (`// vc-lint: allow(VC00x, reason = "…")`). See DESIGN.md §13 for the
//! rule catalog and the README for the code table. This binary is the
//! thin driver: it locates the workspace root, runs [`vc_lint::run`], and
//! renders either human diagnostics (default) or the machine-readable
//! `vc-lint-report/v1` JSON document (`--json`, printed to stdout with
//! findings still on stderr; CI validates it with `check-json` and
//! uploads it as an artifact).
//!
//! `cargo run -p xtask -- check-json <path>` validates that a file parses
//! as JSON (used by CI on the machine-readable `BENCH_engine.json`
//! baseline, the `vc-trace-report/v1` document, and the
//! `vc-lint-report/v1` lint report; the workspace's vendored no-op serde
//! cannot do this).
//!
//! `cargo run -p xtask -- merge-checkpoints <out> <part>...` splices
//! partial `vc-engine-checkpoint/v4` files written by range-restricted
//! fleet workers (`VC_CHUNKS=lo..hi/total`) into the one complete
//! checkpoint a single unpartitioned run would have written —
//! byte-identical, via [`vc_engine::splice_checkpoints`]. Validation is
//! strict (same sweep identity and chunk count everywhere, pairwise
//! disjoint and complete chunk coverage) and every failure names the
//! offending file. See DESIGN.md §15.
//!
//! `cargo run -p xtask -- merge-checkpoints --partial <out> <part>...` is
//! the recovery-path variant ([`vc_engine::splice_partial`], DESIGN.md
//! §16): gaps are not an error. It writes whatever coverage exists as a
//! resumable merged checkpoint and prints a machine-readable
//! `vc-fleet-missing/v1` JSON document on stdout naming the missing
//! chunks (as a list and as a `VC_CHUNKS`-pasteable spec), so a fleet
//! supervisor — or a human — can launch a recovery worker for exactly the
//! gap. CI validates the document with `check-json`.
//!
//! `cargo run -p xtask -- compare-bench <baseline> <fresh> [--tol-pct N]`
//! diffs a freshly generated `BENCH_engine.json` against the committed
//! baseline: rows are keyed `(case, threads)`; the combinatorial count
//! fields (`n`, `max_volume`, `max_distance`, `runs`, `incomplete`,
//! `total_queries`) and the content-addressed `instance_id` must match
//! **exactly** (any drift is a determinism or semantics regression — or a
//! "same case" silently running a different instance — and fails the
//! command), while the wall-clock
//! throughput fields (`starts_per_sec`, `queries_per_sec`) are advisory —
//! regressions beyond the tolerance (default 25%) are printed but do not
//! fail, since CI machines vary.

use std::path::Path;
use std::process::ExitCode;

use vc_json as json;

/// The workspace root: two levels above this crate's manifest,
/// independent of the invocation directory.
fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/xtask sits two levels below the workspace root")
}

/// Runs the linter and renders the result. With `json`, the
/// `vc-lint-report/v1` document goes to stdout (findings still go to
/// stderr so a redirected stdout stays a clean document).
fn run_lint(json_out: bool) -> ExitCode {
    let report = vc_lint::run(workspace_root());
    for f in &report.findings {
        eprintln!("{f}");
    }
    if json_out {
        print!("{}", report.to_json());
    }
    if report.findings.is_empty() {
        if !json_out {
            println!(
                "xtask lint: clean ({} files scanned, {} finding(s) suppressed)",
                report.files_scanned, report.suppressed
            );
        }
        ExitCode::SUCCESS
    } else {
        eprintln!("xtask lint: {} finding(s)", report.findings.len());
        ExitCode::FAILURE
    }
}

/// The expected schema of both files fed to `compare-bench`.
const BENCH_SCHEMA: &str = "vc-engine-baseline/v1";

/// Row fields that are combinatorial and must match exactly between the
/// committed baseline and a fresh run — any drift means the engine's
/// determinism or a solver's semantics regressed.
const COUNT_FIELDS: &[&str] = &[
    "n",
    "max_volume",
    "max_distance",
    "runs",
    "incomplete",
    "total_queries",
];

/// Row fields that are wall-clock throughput: machine-dependent, checked
/// only advisorily against the tolerance.
const RATE_FIELDS: &[&str] = &["starts_per_sec", "queries_per_sec"];

/// Row fields that are content-addressed identities: exact string
/// equality, and a missing field on either side is a failure — a drifted
/// `instance_id` means a "same case" row silently started measuring a
/// different instance.
const ID_FIELDS: &[&str] = &["instance_id"];

/// The outcome of one baseline comparison: hard failures (exact-field
/// drift, missing rows, schema mismatch) and advisory throughput notes.
#[derive(Debug, Default)]
struct BenchDiff {
    failures: Vec<String>,
    advisories: Vec<String>,
}

/// Diffs two parsed `vc-engine-baseline/v1` documents. Every baseline row
/// must reappear in `fresh` under the same `(case, threads)` key with
/// identical count fields; throughput regressions beyond `tol_pct` percent
/// are recorded as advisories only.
fn compare_bench(baseline: &json::Value, fresh: &json::Value, tol_pct: f64) -> BenchDiff {
    let mut diff = BenchDiff::default();
    for (name, doc) in [("baseline", baseline), ("fresh", fresh)] {
        match doc.get("schema").and_then(json::Value::as_str) {
            Some(BENCH_SCHEMA) => {}
            other => diff.failures.push(format!(
                "{name}: schema is {other:?}, expected {BENCH_SCHEMA:?}"
            )),
        }
    }
    let rows = |doc: &json::Value| -> Vec<json::Value> {
        doc.get("rows")
            .and_then(json::Value::as_arr)
            .map(<[json::Value]>::to_vec)
            .unwrap_or_default()
    };
    let key = |row: &json::Value| -> Option<(String, u64)> {
        let case = row.get("case")?.as_str()?.to_string();
        let threads = row.get("threads")?.as_u64()?;
        Some((case, threads))
    };
    let fresh_rows = rows(fresh);
    for brow in rows(baseline) {
        let Some((case, threads)) = key(&brow) else {
            diff.failures
                .push("baseline: row without case/threads key".to_string());
            continue;
        };
        let label = format!("{case}@{threads}t");
        let Some(frow) = fresh_rows
            .iter()
            .find(|r| key(r).as_ref() == Some(&(case.clone(), threads)))
        else {
            diff.failures
                .push(format!("{label}: row missing from the fresh run"));
            continue;
        };
        for field in COUNT_FIELDS {
            // Exact: a count that is absent or not a plain integer
            // literal on either side fails too.
            let b = brow.get(field).and_then(json::Value::as_u64);
            let f = frow.get(field).and_then(json::Value::as_u64);
            if b.is_none() || f.is_none() || b != f {
                diff.failures.push(format!(
                    "{label}: count field `{field}` drifted: baseline {b:?}, fresh {f:?} \
                     (counts must be plain integers on both sides)"
                ));
            }
        }
        for field in ID_FIELDS {
            let b = brow.get(field).and_then(json::Value::as_str);
            let f = frow.get(field).and_then(json::Value::as_str);
            if b.is_none() || f.is_none() || b != f {
                diff.failures.push(format!(
                    "{label}: identity field `{field}` mismatch: baseline {b:?}, fresh {f:?} \
                     (the case is no longer measuring the same instance)"
                ));
            }
        }
        for field in RATE_FIELDS {
            let (Some(b), Some(f)) = (
                brow.get(field).and_then(json::Value::as_f64),
                frow.get(field).and_then(json::Value::as_f64),
            ) else {
                diff.failures
                    .push(format!("{label}: rate field `{field}` missing"));
                continue;
            };
            if b > 0.0 && f < b * (1.0 - tol_pct / 100.0) {
                let drop = (1.0 - f / b) * 100.0;
                diff.advisories.push(format!(
                    "{label}: `{field}` regressed {drop:.1}% ({b:.1} -> {f:.1}), \
                     beyond the {tol_pct:.0}% tolerance"
                ));
            }
        }
    }
    diff
}

/// Parses `compare-bench` CLI arguments: two paths plus an optional
/// `--tol-pct N`.
fn parse_compare_args(args: &[String]) -> Result<(String, String, f64), String> {
    let mut paths = Vec::new();
    let mut tol_pct = 25.0;
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--tol-pct" {
            let v = args
                .get(i + 1)
                .ok_or_else(|| "--tol-pct needs a value".to_string())?;
            tol_pct = v
                .parse::<f64>()
                .map_err(|_| format!("--tol-pct: not a number: {v}"))?;
            if !(0.0..=100.0).contains(&tol_pct) {
                return Err(format!("--tol-pct must be within 0..=100, got {tol_pct}"));
            }
            i += 2;
        } else {
            paths.push(args[i].clone());
            i += 1;
        }
    }
    match <[String; 2]>::try_from(paths) {
        Ok([baseline, fresh]) => Ok((baseline, fresh, tol_pct)),
        Err(_) => Err("expected exactly two paths: <baseline> <fresh>".to_string()),
    }
}

fn run_compare_bench(args: &[String]) -> ExitCode {
    let (baseline_path, fresh_path, tol_pct) = match parse_compare_args(args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!(
                "usage: cargo run -p xtask -- compare-bench <baseline> <fresh> [--tol-pct N]"
            );
            eprintln!("xtask compare-bench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let load = |path: &str| -> Result<json::Value, String> {
        let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        json::parse(&src).map_err(|e| format!("{path}: {e}"))
    };
    let (baseline, fresh) = match (load(&baseline_path), load(&fresh_path)) {
        (Ok(b), Ok(f)) => (b, f),
        (b, f) => {
            for r in [b, f] {
                if let Err(e) = r {
                    eprintln!("xtask compare-bench: {e}");
                }
            }
            return ExitCode::FAILURE;
        }
    };
    let diff = compare_bench(&baseline, &fresh, tol_pct);
    for a in &diff.advisories {
        println!("xtask compare-bench: advisory: {a}");
    }
    if diff.failures.is_empty() {
        println!(
            "xtask compare-bench: {fresh_path} matches {baseline_path} \
             (count fields exact, {} throughput advisories at {tol_pct:.0}% tolerance)",
            diff.advisories.len()
        );
        ExitCode::SUCCESS
    } else {
        for f in &diff.failures {
            eprintln!("xtask compare-bench: FAIL: {f}");
        }
        eprintln!("xtask compare-bench: {} failure(s)", diff.failures.len());
        ExitCode::FAILURE
    }
}

/// Loads every path as a `vc-engine-checkpoint/v4` file. Errors name the
/// offending file.
fn load_parts(part_paths: &[String]) -> Result<Vec<vc_engine::SweepCheckpoint>, String> {
    let mut parts = Vec::with_capacity(part_paths.len());
    for path in part_paths {
        let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let ckpt =
            vc_engine::SweepCheckpoint::from_json(&src).map_err(|e| format!("{path}: {e}"))?;
        parts.push(ckpt);
    }
    Ok(parts)
}

/// Resolves the part indices in the engine's [`vc_engine::SpliceError`]
/// back to the paths they came from.
fn name_splice_error(e: vc_engine::SpliceError, part_paths: &[String]) -> String {
    let named: Vec<String> = part_paths
        .iter()
        .enumerate()
        .map(|(i, p)| format!("part {i} = {p}"))
        .collect();
    format!("{e} ({})", named.join(", "))
}

/// Loads and splices the parts into one complete checkpoint
/// (gap-refusing `merge-checkpoints` mode).
fn splice_files(part_paths: &[String]) -> Result<vc_engine::SweepCheckpoint, String> {
    let parts = load_parts(part_paths)?;
    vc_engine::splice_checkpoints(&parts).map_err(|e| name_splice_error(e, part_paths))
}

/// Loads and merges the parts into a resumable partial checkpoint plus
/// its missing chunks (`merge-checkpoints --partial` mode).
fn splice_files_partial(
    part_paths: &[String],
) -> Result<(vc_engine::SweepCheckpoint, Vec<usize>), String> {
    let parts = load_parts(part_paths)?;
    vc_engine::splice_partial(&parts).map_err(|e| name_splice_error(e, part_paths))
}

/// The `vc-fleet-missing/v1` document `merge-checkpoints --partial`
/// prints on stdout: the merged file, the coverage, the missing chunks
/// as a JSON list, and — only when chunks are actually missing — the
/// same chunks as a `VC_CHUNKS`-pasteable spec. A complete merge used to
/// emit `"spec": ""`, an empty pasteable spec that the strict chunk
/// parser (rightly) rejects; now the `spec` key is simply absent and
/// `"complete": true` is the signal that nothing remains.
fn missing_doc(out_path: &str, merged: &vc_engine::SweepCheckpoint, missing: &[usize]) -> String {
    let doc = json::obj! {
        "schema": "vc-fleet-missing/v1", "out": out_path, "num_chunks": merged.num_chunks,
        "merged_chunks": merged.completed_chunks(), "complete": missing.is_empty(),
        "missing": json::Json::arr(missing.to_vec()),
    };
    if missing.is_empty() {
        return json::document(&doc);
    }
    // Despaced so the spec parses under the strict `VC_CHUNKS` grammar (no
    // whitespace components).
    let groups = vc_engine::format_chunk_groups(missing).replace(", ", ",");
    json::document(&doc.with("spec", format!("{groups}/{}", merged.num_chunks)))
}

fn run_merge_checkpoints(args: &[String]) -> ExitCode {
    let usage = "usage: cargo run -p xtask -- merge-checkpoints [--partial] <out> <part>...";
    let (partial, args) = match args.split_first() {
        Some((flag, rest)) if flag == "--partial" => (true, rest),
        _ => (false, args),
    };
    let Some((out_path, part_paths)) = args.split_first() else {
        eprintln!("{usage}");
        return ExitCode::FAILURE;
    };
    if part_paths.is_empty() {
        eprintln!("{usage}");
        eprintln!("xtask merge-checkpoints: no partial checkpoints given");
        return ExitCode::FAILURE;
    }
    let (merged, missing) = if partial {
        match splice_files_partial(part_paths) {
            Ok((merged, missing)) => (merged, missing),
            Err(e) => {
                eprintln!("xtask merge-checkpoints: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        match splice_files(part_paths) {
            Ok(merged) => (merged, Vec::new()),
            Err(e) => {
                eprintln!("xtask merge-checkpoints: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    if let Err(e) = vc_engine::write_atomically(Path::new(out_path), merged.to_json()) {
        eprintln!("xtask merge-checkpoints: cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    if partial {
        // Stdout carries only the machine-readable document (CI pipes it
        // into check-json); the human summary goes to stderr.
        print!("{}", missing_doc(out_path, &merged, &missing));
        eprintln!(
            "xtask merge-checkpoints: merged {} part(s) into {out_path}: \
             {}/{} chunk(s) present, {} missing",
            part_paths.len(),
            merged.completed_chunks(),
            merged.num_chunks,
            missing.len(),
        );
    } else {
        println!(
            "xtask merge-checkpoints: spliced {} part(s) covering {} chunk(s) of sweep {} into {out_path}",
            part_paths.len(),
            merged.num_chunks,
            merged.identity.sweep_id,
        );
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => match args.get(1).map(String::as_str) {
            None => run_lint(false),
            Some("--json") => run_lint(true),
            Some(other) => {
                eprintln!("xtask lint: unknown flag {other:?} (supported: --json)");
                ExitCode::FAILURE
            }
        },
        Some("compare-bench") => run_compare_bench(&args[1..]),
        Some("merge-checkpoints") => run_merge_checkpoints(&args[1..]),
        Some("check-json") => match args.get(1) {
            Some(path) => match std::fs::read_to_string(path) {
                Ok(src) => match json::validate(&src) {
                    Ok(()) => {
                        println!("xtask check-json: {path} is well-formed");
                        ExitCode::SUCCESS
                    }
                    Err(e) => {
                        eprintln!("xtask check-json: {path}: {e}");
                        ExitCode::FAILURE
                    }
                },
                Err(e) => {
                    eprintln!("xtask check-json: cannot read {path}: {e}");
                    ExitCode::FAILURE
                }
            },
            None => {
                eprintln!("usage: cargo run -p xtask -- check-json <path>");
                ExitCode::FAILURE
            }
        },
        _ => {
            eprintln!(
                "usage: cargo run -p xtask -- \
                 <lint [--json] | check-json <path> | compare-bench <baseline> <fresh> \
                 [--tol-pct N] | merge-checkpoints [--partial] <out> <part>...>"
            );
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_validator_accepts_well_formed_documents() {
        for src in [
            "{}",
            "[]",
            "null",
            "-12.5e3",
            r#"{"rows": [{"case": "a/b", "n": 3, "rate": 1.5}], "ok": true}"#,
            "  [1, 2, 3]  ",
        ] {
            assert!(json::validate(src).is_ok(), "should accept: {src}");
        }
    }

    #[test]
    fn json_validator_rejects_malformed_documents() {
        for src in [
            "",
            "{",
            "[1, 2,]",
            r#"{"a" 1}"#,
            "tru",
            "1.2.3",
            "{} {}",
            r#""unterminated"#,
        ] {
            assert!(json::validate(src).is_err(), "should reject: {src}");
        }
    }

    #[test]
    fn lint_report_json_is_valid_for_check_json() {
        // The `--json` document must round-trip through the same validator
        // CI runs on it.
        let report = vc_lint::run(workspace_root());
        json::validate(&report.to_json()).expect("lint report must be valid JSON");
    }

    /// A minimal well-formed `vc-engine-baseline/v1` document with one row.
    fn bench_doc(case: &str, threads: u64, total_queries: u64, starts_per_sec: f64) -> json::Value {
        bench_doc_with_id(
            case,
            threads,
            total_queries,
            starts_per_sec,
            "00ab12cd34ef5678",
        )
    }

    /// Like [`bench_doc`] but with an explicit `instance_id` string.
    fn bench_doc_with_id(
        case: &str,
        threads: u64,
        total_queries: u64,
        starts_per_sec: f64,
        instance_id: &str,
    ) -> json::Value {
        let src = format!(
            r#"{{"schema": "vc-engine-baseline/v1", "rows": [
                {{"case": "{case}", "n": 100, "instance_id": "{instance_id}",
                  "threads": {threads},
                  "max_volume": 7, "max_distance": 3, "runs": 100,
                  "incomplete": 0, "total_queries": {total_queries},
                  "starts_per_sec": {starts_per_sec}, "queries_per_sec": 1000.0}}]}}"#
        );
        json::parse(&src).unwrap()
    }

    #[test]
    fn compare_bench_accepts_identical_documents() {
        let doc = bench_doc("case/a", 1, 400, 500.0);
        let diff = compare_bench(&doc, &doc, 25.0);
        assert!(diff.failures.is_empty());
        assert!(diff.advisories.is_empty());
    }

    #[test]
    fn compare_bench_fails_on_count_field_drift() {
        let baseline = bench_doc("case/a", 1, 400, 500.0);
        let fresh = bench_doc("case/a", 1, 401, 500.0);
        let diff = compare_bench(&baseline, &fresh, 25.0);
        assert_eq!(diff.failures.len(), 1);
        assert!(diff.failures[0].contains("total_queries"));
    }

    #[test]
    fn compare_bench_compares_counts_exactly() {
        let with_queries = |total_queries: &str| {
            let src = format!(
                r#"{{"schema": "vc-engine-baseline/v1", "rows": [
                    {{"case": "case/a", "n": 100, "instance_id": "00ab12cd34ef5678",
                      "threads": 1, "max_volume": 7, "max_distance": 3, "runs": 100,
                      "incomplete": 0{total_queries},
                      "starts_per_sec": 500.0, "queries_per_sec": 1000.0}}]}}"#
            );
            json::parse(&src).unwrap()
        };
        // 2^53 and 2^53 + 1 are one f64 but two counts.
        let diff = compare_bench(
            &with_queries(r#", "total_queries": 9007199254740992"#),
            &with_queries(r#", "total_queries": 9007199254740993"#),
            25.0,
        );
        assert_eq!(diff.failures.len(), 1);
        assert!(diff.failures[0].contains("total_queries"));
        // `1e3` is a float literal, not the count 1000.
        let diff = compare_bench(
            &with_queries(r#", "total_queries": 1000"#),
            &with_queries(r#", "total_queries": 1e3"#),
            25.0,
        );
        assert_eq!(diff.failures.len(), 1);
        assert!(diff.failures[0].contains("total_queries"));
        // A count missing from both files is not a match.
        let missing = with_queries("");
        let diff = compare_bench(&missing, &missing, 25.0);
        assert_eq!(diff.failures.len(), 1);
        assert!(diff.failures[0].contains("total_queries"));
    }

    #[test]
    fn compare_bench_fails_on_missing_row_and_schema() {
        let baseline = bench_doc("case/a", 2, 400, 500.0);
        let fresh = bench_doc("case/a", 1, 400, 500.0);
        let diff = compare_bench(&baseline, &fresh, 25.0);
        assert!(diff.failures.iter().any(|f| f.contains("missing")));

        let bad = json::parse(r#"{"schema": "other/v2", "rows": []}"#).unwrap();
        let diff = compare_bench(&bad, &fresh, 25.0);
        assert!(diff.failures.iter().any(|f| f.contains("schema")));
    }

    #[test]
    fn compare_bench_throughput_is_advisory_only() {
        let baseline = bench_doc("case/a", 1, 400, 1000.0);
        // A 50% throughput drop is beyond the 25% tolerance but must not
        // fail the comparison — machines differ; counts do not.
        let fresh = bench_doc("case/a", 1, 400, 500.0);
        let diff = compare_bench(&baseline, &fresh, 25.0);
        assert!(diff.failures.is_empty());
        assert_eq!(diff.advisories.len(), 1);
        assert!(diff.advisories[0].contains("starts_per_sec"));
        // Within tolerance: silent.
        let fresh = bench_doc("case/a", 1, 400, 900.0);
        let diff = compare_bench(&baseline, &fresh, 25.0);
        assert!(diff.advisories.is_empty());
    }

    #[test]
    fn compare_bench_fails_on_instance_id_drift_or_absence() {
        let baseline = bench_doc_with_id("case/a", 1, 400, 500.0, "00ab12cd34ef5678");
        let fresh = bench_doc_with_id("case/a", 1, 400, 500.0, "ffffffff00000000");
        let diff = compare_bench(&baseline, &fresh, 25.0);
        assert_eq!(diff.failures.len(), 1);
        assert!(diff.failures[0].contains("instance_id"));
        assert!(diff.failures[0].contains("same instance"));

        // A row that never recorded its identity is itself a failure: the
        // pin only protects the baseline if it is actually present.
        let src = r#"{"schema": "vc-engine-baseline/v1", "rows": [
            {"case": "case/a", "n": 100, "threads": 1,
             "max_volume": 7, "max_distance": 3, "runs": 100,
             "incomplete": 0, "total_queries": 400,
             "starts_per_sec": 500.0, "queries_per_sec": 1000.0}]}"#;
        let legacy = json::parse(src).unwrap();
        let diff = compare_bench(&legacy, &legacy, 25.0);
        assert_eq!(diff.failures.len(), 1);
        assert!(diff.failures[0].contains("instance_id"));
    }

    #[test]
    fn compare_args_parse_paths_and_tolerance() {
        let args: Vec<String> = ["a.json", "b.json", "--tol-pct", "10"]
            .iter()
            .map(ToString::to_string)
            .collect();
        let (b, f, tol) = parse_compare_args(&args).unwrap();
        assert_eq!((b.as_str(), f.as_str(), tol), ("a.json", "b.json", 10.0));
        assert!(parse_compare_args(&args[..1]).is_err());
        let bad: Vec<String> = ["a", "b", "--tol-pct", "x"]
            .iter()
            .map(ToString::to_string)
            .collect();
        assert!(parse_compare_args(&bad).is_err());
    }

    /// A partial checkpoint of sweep 5 over `num_chunks` chunks, holding
    /// (empty) record lists for exactly the `owned` chunk indices.
    fn partial(num_chunks: usize, owned: &[usize]) -> vc_engine::SweepCheckpoint {
        let identity = vc_engine::SweepIdentity {
            instance_id: vc_engine::InstanceId::from_raw(3),
            sweep_id: vc_engine::SweepId::from_raw(5),
        };
        let mut ckpt = vc_engine::SweepCheckpoint::fresh(identity, num_chunks);
        for &c in owned {
            ckpt.chunks[c] = Some(Vec::new());
        }
        ckpt
    }

    /// Writes each checkpoint to `<target>/<dir>/part<i>.json` and
    /// returns the paths. Each test uses a distinct `dir` so parallel
    /// test threads never share files.
    fn write_parts(dir: &str, parts: &[vc_engine::SweepCheckpoint]) -> Vec<String> {
        let root = workspace_root().join("target").join(dir);
        std::fs::create_dir_all(&root).unwrap();
        parts
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let path = root.join(format!("part{i}.json"));
                std::fs::write(&path, p.to_json()).unwrap();
                path.to_string_lossy().into_owned()
            })
            .collect()
    }

    #[test]
    fn merge_checkpoints_splices_disjoint_files() {
        let paths = write_parts("xtask-merge-ok", &[partial(3, &[0, 2]), partial(3, &[1])]);
        let merged = splice_files(&paths).unwrap();
        assert!(merged.is_complete());
        // Byte-identical to the checkpoint of one unpartitioned run.
        assert_eq!(merged.to_json(), partial(3, &[0, 1, 2]).to_json());
    }

    #[test]
    fn merge_checkpoints_names_the_offending_file() {
        // Overlap: both parts supply chunk 1.
        let paths = write_parts(
            "xtask-merge-overlap",
            &[partial(3, &[0, 1]), partial(3, &[1, 2])],
        );
        let err = splice_files(&paths).unwrap_err();
        assert!(err.contains("not disjoint"), "{err}");
        assert!(err.contains("part1.json"), "{err}");

        // Unreadable path: named directly.
        let missing = vec!["target/xtask-merge-no-such-file.json".to_string()];
        let err = splice_files(&missing).unwrap_err();
        assert!(err.contains("cannot read"), "{err}");
        assert!(err.contains("no-such-file"), "{err}");
    }

    #[test]
    fn merge_checkpoints_rejects_gaps() {
        let paths = write_parts("xtask-merge-gap", &[partial(4, &[0, 3])]);
        let err = splice_files(&paths).unwrap_err();
        assert!(err.contains("reassign"), "{err}");
    }

    #[test]
    fn partial_merge_succeeds_on_gaps_and_reports_them() {
        let paths = write_parts(
            "xtask-merge-partial",
            &[partial(6, &[0, 1]), partial(6, &[4])],
        );
        let (merged, missing) = splice_files_partial(&paths).unwrap();
        assert_eq!(merged.completed_chunks(), 3);
        assert_eq!(missing, vec![2, 3, 5]);
        // The merged file resumes like any checkpoint: no partition stamp.
        assert_eq!(merged.partition, None);

        // Overlaps are still refused, with the file named.
        let paths = write_parts(
            "xtask-merge-partial-overlap",
            &[partial(6, &[0, 1]), partial(6, &[1])],
        );
        let err = splice_files_partial(&paths).unwrap_err();
        assert!(err.contains("not disjoint"), "{err}");
        assert!(err.contains("part1.json"), "{err}");
    }

    #[test]
    fn missing_doc_is_valid_json_with_a_pasteable_spec() {
        let merged = partial(6, &[0, 1, 4]);
        let doc_src = missing_doc("target/out.json", &merged, &[2, 3, 5]);
        assert_eq!(
            doc_src,
            "{\n  \"schema\": \"vc-fleet-missing/v1\",\n  \"out\": \"target/out.json\",\n  \
             \"num_chunks\": 6,\n  \"merged_chunks\": 3,\n  \"complete\": false,\n  \
             \"missing\": [2, 3, 5],\n  \"spec\": \"2..4,5/6\"\n}\n"
        );
        let doc = json::parse(&doc_src).unwrap();
        assert_eq!(
            doc.get("schema").and_then(json::Value::as_str),
            Some("vc-fleet-missing/v1")
        );
        assert_eq!(
            doc.get("complete").and_then(json::Value::as_bool),
            Some(false)
        );
        assert_eq!(
            doc.get("missing")
                .and_then(json::Value::as_arr)
                .map(<[_]>::len),
            Some(3)
        );
        let spec = doc.get("spec").and_then(json::Value::as_str).unwrap();
        assert_eq!(spec, "2..4,5/6");
        // The spec really parses as a chunk-set reassignment under the
        // strict grammar.
        let set = vc_engine::ChunkSet::parse(spec).unwrap();
        assert_eq!(set.chunks().collect::<Vec<_>>(), vec![2, 3, 5]);

        // A complete merge reports completeness and suppresses the spec
        // key entirely — no empty pasteable `VC_CHUNKS` value.
        let doc_src = missing_doc("out.json", &partial(2, &[0, 1]), &[]);
        assert_eq!(
            doc_src,
            "{\n  \"schema\": \"vc-fleet-missing/v1\",\n  \"out\": \"out.json\",\n  \
             \"num_chunks\": 2,\n  \"merged_chunks\": 2,\n  \"complete\": true,\n  \
             \"missing\": []\n}\n"
        );
        let doc = json::parse(&doc_src).unwrap();
        assert_eq!(
            doc.get("complete").and_then(json::Value::as_bool),
            Some(true)
        );
        assert!(doc.get("spec").is_none());
    }

    #[test]
    fn repo_is_clean() {
        // The lint must hold on the repository itself — this is the same
        // check `cargo run -p xtask -- lint` performs in CI.
        let report = vc_lint::run(workspace_root());
        assert!(
            report.findings.is_empty(),
            "lint findings:\n{}",
            report
                .findings
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
