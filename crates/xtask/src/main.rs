//! In-repo automation tasks (the `cargo xtask` pattern), dependency-free.
//!
//! `cargo run -p xtask -- check-json <path>` validates that a file parses
//! as JSON (used by CI on the machine-readable `BENCH_engine.json`
//! baseline and on every report document; the workspace's vendored no-op
//! serde cannot do this).
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
    match vc_engine::ChunkSet::from_chunks(missing, merged.num_chunks) {
        Ok(gap) if !missing.is_empty() => json::document(&doc.with("spec", gap.to_string())),
        _ => json::document(&doc),
    }
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
                 <check-json <path> | compare-bench <baseline> <fresh> [--tol-pct N] \
                 | merge-checkpoints [--partial] <out> <part>...>"
            );
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    /// The workspace root: two levels above this crate's manifest,
    /// independent of the invocation directory.
    fn workspace_root() -> &'static Path {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("crates/xtask sits two levels below the workspace root")
    }

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

    // The determinism rules (DESIGN.md §13). Clippy enforces the token
    // rules through clippy.toml, the crates' `[lints.clippy]` tables and
    // scoped `deny` attributes; `repo_is_clean` pins that configuration
    // and walks the tree for the three rules clippy cannot express.

    /// Crates whose root declares `#![deny(missing_docs)]` (VC002).
    const DOCUMENTED: [&str; 10] = [
        "model", "graph", "audit", "engine", "trace", "faults", "fleet", "ident", "json", "serve",
    ];

    /// Crates whose root denies every panic path (VC001).
    const PANIC_FREE: [&str; 10] = [
        "model",
        "adversary",
        "audit",
        "engine",
        "trace",
        "faults",
        "fleet",
        "ident",
        "json",
        "serve",
    ];

    /// Files whose non-test code denies truncating casts (VC012).
    const CAST_CHECKED: [&str; 5] = [
        "crates/engine/src/lib.rs",
        "crates/trace/src/metrics.rs",
        "crates/trace/src/hist.rs",
        "crates/graph/src/store.rs",
        "crates/json/src/lib.rs",
    ];

    /// Modules that deny hashed collections, tests included (VC005).
    const FLAT_STATE: [&str; 2] = [
        "crates/model/src/oracle.rs",
        "crates/core/src/problems/mod.rs",
    ];

    /// Every `clippy.toml` entry, with the code its reason starts with.
    const DISALLOWED: [(&str, &str); 8] = [
        ("std::time::Instant::now", "VC006"),
        ("std::panic::catch_unwind", "VC007"),
        ("std::env::var", "VC011"),
        ("std::env::var_os", "VC011"),
        ("std::thread::sleep", "VC015"),
        ("std::thread::park_timeout", "VC015"),
        ("std::collections::HashMap", "VC003/VC005/VC009"),
        ("std::collections::HashSet", "VC003/VC005/VC009"),
    ];

    /// Crates whose table sets `disallowed_types = "deny"`: vc-bench,
    /// behind the figures (VC003), and the crates whose output reaches a
    /// merge (VC009). Every other crate's table sets `"allow"`.
    const HASHED_DENIED: [&str; 7] = [
        "bench", "engine", "trace", "ident", "faults", "stats", "serve",
    ];

    /// Struct fields that may be `f64`: wall-clock throughput (VC010).
    const FLOAT_ALLOWED: [&str; 2] = ["starts_per_sec", "queries_per_sec"];

    /// VC008's needles, lowercased with `_` removed: the three splitmix64
    /// constants and the name of an ad-hoc identity helper. They are
    /// assembled at run time, so this file holds none of them.
    fn identity_needles() -> [String; 4] {
        [
            ["0x9e37", "79b97f4a7c15"].concat(),
            ["0xbf58", "476d1ce4e5b9"].concat(),
            ["0x94d0", "49bb133111eb"].concat(),
            ["sweep", "fingerprint"].concat(),
        ]
    }

    /// VC008: the needles in `src` once it is lowercased and its `_`
    /// removed. Comments count.
    fn identity_hits(src: &str) -> Vec<String> {
        let norm = src.to_ascii_lowercase().replace('_', "");
        let needles = identity_needles();
        needles.into_iter().filter(|n| norm.contains(n)).collect()
    }

    /// `src` without its `//` comments.
    fn uncommented(src: &str) -> String {
        let lines: Vec<&str> = src
            .lines()
            .map(|l| l.split("//").next().unwrap_or(""))
            .collect();
        lines.join("\n")
    }

    /// True when `src`, without comments and whitespace, holds `attr`.
    fn declares(src: &str, attr: &str) -> bool {
        let squeeze = |s: &str| s.split_whitespace().collect::<String>();
        squeeze(&uncommented(src)).contains(&squeeze(attr))
    }

    /// The index just past the bracket that closes the one opening
    /// `code`, counting every bracket kind; `->` is an arrow.
    fn close_of(code: &str) -> usize {
        let b = code.as_bytes();
        let mut depth = 0usize;
        for (i, &c) in b.iter().enumerate() {
            match c {
                b'{' | b'(' | b'[' | b'<' => depth += 1,
                b'>' if i > 0 && b[i - 1] == b'-' => {}
                b'}' | b')' | b']' | b'>' => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        return i + 1;
                    }
                }
                _ => {}
            }
        }
        code.len()
    }

    /// VC010: the `f32`/`f64` fields of the structs in `src`, named and
    /// tuple fields alike, outside [`FLOAT_ALLOWED`]. `src` is cut at its
    /// first line that starts with `#[cfg(test)]`, as `scripts/lines.sh`
    /// cuts it.
    fn float_fields(src: &str) -> Vec<String> {
        let non_test: Vec<&str> = src
            .lines()
            .take_while(|l| !l.starts_with("#[cfg(test)]"))
            .collect();
        let code = uncommented(&non_test.join("\n"));
        let is_float = |ty: &str| {
            ty.split(|c: char| !c.is_alphanumeric() && c != '_')
                .any(|w| w == "f32" || w == "f64")
        };
        let mut found = Vec::new();
        let mut rest = code.as_str();
        while let Some(at) = rest.find("struct ") {
            let keyword = rest[..at]
                .chars()
                .next_back()
                .is_none_or(char::is_whitespace);
            rest = &rest[at + "struct ".len()..];
            let Some(open) = rest.find(['{', '(', ';']) else {
                break;
            };
            if !keyword || rest.as_bytes()[open] == b';' {
                continue;
            }
            let end = open + close_of(&rest[open..]);
            let body = &rest[open + 1..end - 1];
            // Split the body at its top-level commas.
            let (mut depth, mut from) = (0usize, 0);
            for (i, c) in body.char_indices().chain([(body.len(), ',')]) {
                match c {
                    '{' | '(' | '[' | '<' => depth += 1,
                    '>' if body[..i].ends_with('-') => {}
                    '}' | ')' | ']' | '>' => depth = depth.saturating_sub(1),
                    ',' if depth == 0 => {
                        let field = &body[from..i];
                        from = i + 1;
                        // A named field's name ends at its first lone `:`.
                        let b = field.as_bytes();
                        let colon = (0..b.len()).find(|&k| {
                            b[k] == b':'
                                && b.get(k + 1) != Some(&b':')
                                && (k == 0 || b[k - 1] != b':')
                        });
                        let (name, ty) = match colon {
                            Some(k) => (field[..k].split_whitespace().last(), &field[k..]),
                            None => (None, field),
                        };
                        let name = name.unwrap_or("");
                        if is_float(ty) && !FLOAT_ALLOWED.contains(&name) {
                            found.push(field.trim().to_string());
                        }
                    }
                    _ => {}
                }
            }
            rest = &rest[end..];
        }
        found
    }

    /// Every `.rs` file under `dir`, recursively.
    fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
        for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
            let path = entry.path();
            if path.is_dir() {
                rust_files(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }

    #[test]
    fn repo_is_clean() {
        // Self-checks: each scanner flags a seeded violation, built at run
        // time, and passes its near miss.
        let gamma = ["0x9E37_79B9", "_7F4A_7C15"].concat();
        assert_eq!(identity_hits(&format!("// {gamma}\n")).len(), 1);
        assert_eq!(
            identity_hits(&["fn Sweep", "Fingerprint() {}"].concat()).len(),
            1
        );
        assert!(identity_hits("const SEED: u64 = 0x9E37_79B9;\n").is_empty());
        let floats = "/// The mean, an f64.\npub struct Stats {\n    pub n: u64,\n    \
                      pub mean: f64,\n    pub starts_per_sec: f64,\n    \
                      pub hist: Vec<(u64, f32)>,\n}\npub struct Tup(u64, f32);\n\
                      pub fn rate(count: f64) -> f64 {\n    count\n}\n\
                      #[cfg(test)]\nstruct T(f64);\n";
        assert_eq!(
            float_fields(floats),
            ["pub mean: f64", "pub hist: Vec<(u64, f32)>", "f32"]
        );
        assert!(declares(
            "#![deny(\n    missing_docs\n)]\n",
            "#![deny(missing_docs)]"
        ));
        assert!(!declares(
            "// #![deny(missing_docs)]\n",
            "#![deny(missing_docs)]"
        ));

        let root = workspace_root();
        let read = |rel: &str| std::fs::read_to_string(root.join(rel)).unwrap_or_default();
        let mut findings = Vec::new();

        // The configuration: every clippy.toml entry, every scoped
        // attribute and every crate's lint table.
        let clippy = read("clippy.toml");
        for (path, code) in DISALLOWED {
            let entry = format!("{{ path = \"{path}\", reason = \"{code}:");
            if !clippy.lines().any(|l| l.trim_start().starts_with(&entry)) {
                findings.push(format!("clippy.toml: no `{entry}…` entry"));
            }
        }
        let deny_panics = "#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, \
                           clippy::unreachable, clippy::todo, clippy::unimplemented)]";
        let roots = |crates: [&str; 10]| crates.map(|c| format!("crates/{c}/src/lib.rs")).to_vec();
        let scoped = [
            (roots(PANIC_FREE), deny_panics),
            (roots(DOCUMENTED), "#![deny(missing_docs)]"),
            (
                CAST_CHECKED.map(String::from).to_vec(),
                "#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]",
            ),
            (
                FLAT_STATE.map(String::from).to_vec(),
                "#![deny(clippy::disallowed_types)]",
            ),
        ];
        for (files, attr) in &scoped {
            for rel in files {
                if !declares(&read(rel), attr) {
                    findings.push(format!("{rel}: must declare `{attr}`"));
                }
            }
        }
        let crates = std::fs::read_dir(root.join("crates")).into_iter().flatten();
        for krate in crates.flatten().map(|e| e.file_name()) {
            let krate = krate.to_string_lossy();
            let rel = format!("crates/{krate}/Cargo.toml");
            let denied = HASHED_DENIED.contains(&&*krate);
            let level = if denied { "deny" } else { "allow" };
            let manifest = read(&rel);
            let table = manifest.split("\n[lints.clippy]\n").nth(1).unwrap_or("");
            let table: Vec<&str> = table.lines().take_while(|l| !l.starts_with('[')).collect();
            for line in [
                "allow_attributes = \"deny\"".to_string(),
                "allow_attributes_without_reason = \"deny\"".to_string(),
                format!("disallowed_types = \"{level}\""),
            ] {
                if !table.contains(&line.as_str()) {
                    findings.push(format!("{rel}: `[lints.clippy]` must set `{line}`"));
                }
            }
        }

        // VC008 over crates/, examples/ and tests/, outside vc-ident; VC010
        // over the non-test structs of engine, trace and serve.
        let mut files = Vec::new();
        for dir in ["crates", "examples", "tests"] {
            rust_files(&root.join(dir), &mut files);
        }
        files.sort();
        let float_dirs = ["crates/engine/src", "crates/trace/src", "crates/serve/src"];
        for path in files {
            let rel = path.strip_prefix(root).unwrap_or(&path);
            let rel = rel.to_string_lossy().replace('\\', "/");
            let src = std::fs::read_to_string(&path).unwrap_or_default();
            if !rel.starts_with("crates/ident/") {
                for hit in identity_hits(&src) {
                    findings.push(format!(
                        "{rel}: `{hit}` outside crates/ident (VC008: fold content \
                         through vc_ident::IdHasher and mix through vc_ident::mix)"
                    ));
                }
            }
            if float_dirs.iter().any(|d| rel.starts_with(d)) {
                for field in float_fields(&src) {
                    findings.push(format!(
                        "{rel}: struct field `{field}` (VC010: merged counts stay \
                         integral; only wall-clock throughput may be f64)"
                    ));
                }
            }
        }
        assert!(findings.is_empty(), "{}", findings.join("\n"));
    }
}
