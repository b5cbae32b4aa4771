//! The benchmark's self-test: its checks catch a corrupted output and a
//! serve-preempt cycle that preempted nothing, and a tiny-size run of every
//! workload emits exactly the metrics listed in `BENCHMARK.json`, with
//! their units, and passes its own checks (every tiny serve-preempt cycle
//! parks and resumes its batch).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Duration;

use vc_json::Value;
use vc_serve::ServeStats;
use vcbench::check::{self, Tally};
use vcbench::serve::{walk_spec, Rig};
use vcbench::span::{Recorder, REQUEST};
use vcbench::{Options, Sizes, Workload};

/// Relative, so the socket path stays short wherever the crate lives.
const WORK_DIR: &str = ".vcbench-selftest";

fn listed(section: &str) -> BTreeMap<String, String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json next to the crate");
    let doc = vc_json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(Value::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Value::as_str).expect("name and unit");
            (field("name").to_string(), field("unit").to_string())
        })
        .collect()
}

fn tiny(workload: Workload, trace: bool) -> Options {
    Options {
        workload,
        seed: 7,
        seconds: Duration::from_millis(300),
        trace,
        sizes: Sizes::TINY,
        work_dir: PathBuf::from(WORK_DIR).join(workload.name()),
    }
}

#[test]
fn a_flipped_byte_in_a_hit_payload_counts_as_a_failure() {
    let dir = PathBuf::from(WORK_DIR).join("flip");
    let rig = Rig::start(&dir, None).expect("service starts");
    let spec = walk_spec(1, "selftest", 63, 0);
    let mut off = Recorder::disabled();
    let (_, captured) = rig.request(&spec, &mut off, 1).expect("miss");
    let (reply, payload) = rig.request(&spec, &mut off, 2).expect("hit");
    rig.stop();

    let mut tally = Tally::default();
    tally.record(check::cached_payload(reply.cache_hit, &payload, &captured));
    assert_eq!((tally.attempted, tally.failed), (1, 0));

    let mut flipped = captured.into_bytes();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x01;
    let flipped = String::from_utf8(flipped).expect("still text");
    tally.record(check::cached_payload(reply.cache_hit, &payload, &flipped));
    assert_eq!((tally.attempted, tally.failed), (2, 1));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_cycle_that_does_not_park_and_resume_counts_as_a_failure() {
    let before = ServeStats::default();
    let mut tally = Tally::default();
    let parked_and_resumed = ServeStats {
        preemptions: 1,
        resumes: 1,
        ..before
    };
    tally.record(check::preempted(&before, &parked_and_resumed));
    assert_eq!((tally.attempted, tally.failed), (1, 0));
    tally.record(check::preempted(&before, &before));
    let parked_only = ServeStats {
        preemptions: 1,
        ..before
    };
    tally.record(check::preempted(&before, &parked_only));
    assert_eq!((tally.attempted, tally.failed), (3, 2));
}

#[test]
fn every_listed_metric_is_emitted_with_its_unit() {
    let end_to_end = listed("end_to_end");
    let per_layer = listed("per_layer");
    for workload in Workload::ALL {
        for (trace, want) in [(false, &end_to_end), (true, &per_layer)] {
            let opts = tiny(workload, trace);
            let outcome = vcbench::run(&opts).expect("tiny run");
            let got: BTreeMap<String, String> = outcome
                .metrics
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect();
            assert_eq!(&got, want, "{} trace={trace}", workload.name());
            assert!(outcome.tally.attempted >= 1);
            assert_eq!(
                outcome.tally.failed,
                0,
                "{} trace={trace}: {:?}",
                workload.name(),
                outcome.tally.first_error
            );
            let line = outcome.json();
            let doc = vc_json::parse(&line).expect("result line is JSON");
            assert_eq!(doc.get("correct").and_then(Value::as_bool), Some(true));
            if trace {
                let reported = outcome
                    .metrics
                    .iter()
                    .find(|m| m.name == "sched.unattributed_ms")
                    .expect("unattributed time reported")
                    .value;
                spans_account_for_every_request(&opts, reported);
            }
        }
        let _ = std::fs::remove_dir_all(Path::new(WORK_DIR).join(workload.name()));
    }
}

/// For each layer-pass request, the layer spans lie inside the request
/// span without overlapping, so the summed layer spans plus the
/// unattributed time equal the request's latency; the reported
/// `sched.unattributed_ms` is the median of that remainder.
fn spans_account_for_every_request(opts: &Options, reported_ms: f64) {
    let path = opts.work_dir.join(format!(
        "spans-{}-seed{}.jsonl",
        opts.workload.name(),
        opts.seed
    ));
    let text = std::fs::read_to_string(&path).expect("spans written");
    let mut by_request: BTreeMap<u64, Vec<(String, u64, u64)>> = BTreeMap::new();
    for line in text.lines() {
        let v = vc_json::parse(line).expect("span line");
        let num = |k| v.get(k).and_then(Value::as_u64).expect("span field");
        let name = v.get("name").and_then(Value::as_str).expect("name");
        by_request.entry(num("request")).or_default().push((
            name.to_string(),
            num("start_ns"),
            num("end_ns"),
        ));
    }
    let mut unattributed_ms = Vec::new();
    for spans in by_request.values() {
        let Some(&(_, start, end)) = spans.iter().find(|s| s.0 == REQUEST) else {
            continue;
        };
        let mut layers: Vec<(u64, u64)> = spans
            .iter()
            .filter(|s| s.0 != REQUEST)
            .map(|s| (s.1, s.2))
            .collect();
        layers.sort_unstable();
        assert!(
            layers.windows(2).all(|w| w[0].1 <= w[1].0),
            "layer spans overlap"
        );
        assert!(layers.iter().all(|&(s, e)| start <= s && e <= end));
        let covered: u64 = layers.iter().map(|(s, e)| e - s).sum();
        unattributed_ms.push((end - start - covered) as f64 / 1e6);
    }
    assert!(
        !unattributed_ms.is_empty(),
        "no layer-pass request was traced"
    );
    let median = vcbench::stats::median(&unattributed_ms);
    assert!(
        (median - reported_ms).abs() < 1e-6,
        "spans give {median} ms unattributed, the run reported {reported_ms} ms"
    );
}
