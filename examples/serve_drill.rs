//! Serve drill: the `vc-serve` content-addressed sweep service end to
//! end, at 1, 2 and 8 worker threads (DESIGN.md §17).
//!
//! ```text
//! cargo run --release --example serve_drill
//! ```
//!
//! Per thread count, against a fresh store:
//!
//! 1. **Hit after miss.** A cold submission executes and stores its
//!    final checkpoint; resubmitting the identical spec is answered
//!    from the store (`cache_hit`) with byte-identical payload and no
//!    second execution.
//! 2. **Duplicate-submission dedup.** Submitting a spec whose sweep is
//!    already in flight returns the *same* job id without scheduling a
//!    second run.
//! 3. **Preemption under load.** An interactive job submitted while a
//!    long batch sweep runs trips the batch job's cancel flag; the
//!    batch job stops between starts and parks, dropping the chunks it
//!    cut short, the interactive job jumps the queue, and the parked
//!    job resumes from its checkpoint and re-runs those chunks whole.
//!    The resumed job's stored result is asserted byte-identical to an
//!    uninterrupted run of the same spec — and identical across all
//!    three thread counts.
//!
//! Each point's `vc-serve-report/v1` document must count one hit, one
//! dedup and two memo hits (the warm hit and the duplicate resolve their
//! identity from the spec memo). A FIFO-eviction drill (entry cap 1), a
//! job-table drill (two bursts of hits past `MAX_FINISHED_JOBS`) and a
//! wire-protocol round trip over the Unix socket run once at the end.
//! The last point's report lands in `target/serve/SERVE_report.json`,
//! read back and checked again, for CI to `check-json` and upload.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use vc_json::Value;
use vc_serve::{
    AlgorithmRef, InstanceRef, JobState, Priority, ServeConfig, ServeDaemon, SweepService,
    SweepSpec, MAX_FINISHED_JOBS, REPORT_SCHEMA,
};

/// Generous bound on every wait: the drill must never hang CI, but no
/// healthy run gets anywhere near it.
const WAIT: Duration = Duration::from_secs(300);

/// Worker-thread counts the byte-identity assertions span.
const THREAD_MATRIX: [usize; 3] = [1, 2, 8];

fn fresh_config(tag: &str, threads: usize) -> ServeConfig {
    let root = PathBuf::from("target/serve").join(tag);
    let _ = std::fs::remove_dir_all(&root);
    ServeConfig {
        threads,
        store_dir: root.join("store"),
        spool_dir: root.join("spool"),
        max_store_entries: None,
    }
}

/// The cold/warm spec: a medium randomized sweep.
fn medium_spec() -> SweepSpec {
    SweepSpec {
        tape_seed: Some(11),
        ..SweepSpec::new(
            InstanceRef::FullBinaryTree { n: 4095, seed: 5 },
            AlgorithmRef::LeafRandomWalk { step_factor: 32 },
        )
    }
}

/// The preemption victim: long enough that the interactive submission
/// always lands while it runs.
fn long_batch_spec() -> SweepSpec {
    SweepSpec {
        tape_seed: Some(7),
        ..SweepSpec::new(
            InstanceRef::FullBinaryTree { n: 65535, seed: 9 },
            AlgorithmRef::LeafRandomWalk { step_factor: 32 },
        )
    }
}

/// A small batch submitted behind the long one. Batches run in admission
/// order, so it stays queued until the long batch is done, and a
/// duplicate submitted right after it always finds it in flight.
fn queued_batch_spec() -> SweepSpec {
    SweepSpec::new(
        InstanceRef::FullBinaryTree { n: 255, seed: 2 },
        AlgorithmRef::LeafDistance,
    )
}

/// The queue jumper.
fn interactive_spec() -> SweepSpec {
    SweepSpec {
        priority: Priority::Interactive,
        ..SweepSpec::new(
            InstanceRef::FullBinaryTree { n: 255, seed: 1 },
            AlgorithmRef::LeafDistance,
        )
    }
}

/// Runs the three drill scenarios at one thread count; returns the
/// (cold payload, preempted-and-resumed payload) byte strings.
fn drill_at(threads: usize) -> (String, String) {
    let tag = format!("t{threads}");
    let config = fresh_config(&tag, threads);
    let service = SweepService::start(&config).expect("service starts");

    // 1. Hit after miss, byte-identical.
    let cold = service.submit(&medium_spec()).expect("cold submit");
    assert!(!cold.cache_hit && !cold.deduped, "{tag}: cold must miss");
    let cold_bytes = service.wait_result(cold.job, WAIT).expect("cold result");
    let warm = service.submit(&medium_spec()).expect("warm submit");
    assert!(warm.cache_hit, "{tag}: resubmission must hit the store");
    assert_ne!(warm.job, cold.job, "{tag}: a hit still gets its own job id");
    let warm_bytes = service.wait_result(warm.job, WAIT).expect("warm result");
    assert_eq!(
        cold_bytes, warm_bytes,
        "{tag}: cache hit must be byte-identical to the cold run"
    );

    // 2 + 3. Dedup and preemption around one long batch sweep. The
    // interactive submission goes out the moment the batch job runs
    // (its small instance folds in microseconds). The duplicate is of a
    // small batch queued behind the victim, not of the victim itself:
    // its instance build and identity fold take about as long as the
    // victim's whole run, so the victim could finish first. A parked
    // job's dedup is pinned by the scheduler's `a_parked_job_still_dedups`.
    let victim = service.submit(&long_batch_spec()).expect("batch submit");
    service
        .wait_job(victim.job, WAIT, |s| s.state == JobState::Running)
        .expect("batch job starts running");
    let urgent = service.submit(&interactive_spec()).expect("urgent submit");
    assert!(!urgent.deduped && !urgent.cache_hit);
    let queued = service.submit(&queued_batch_spec()).expect("queued submit");
    let duplicate = service.submit(&queued_batch_spec()).expect("dup submit");
    assert!(duplicate.deduped, "{tag}: in-flight duplicate must dedup");
    assert_eq!(
        duplicate.job, queued.job,
        "{tag}: duplicate submission must return the same job id"
    );
    service
        .wait_result(urgent.job, WAIT)
        .expect("urgent result");
    service
        .wait_result(queued.job, WAIT)
        .expect("queued result");
    let victim_bytes = service
        .wait_result(victim.job, WAIT)
        .expect("victim result");
    let status = service.status(victim.job).expect("victim status");
    assert!(
        status.preemptions >= 1,
        "{tag}: the batch job must have been preempted at least once"
    );
    // A parked job reaches `Done` only through a resume.
    assert_eq!(
        status.state,
        JobState::Done { cache_hit: false },
        "{tag}: the preempted batch job must finish"
    );

    let stats = service.stats();
    assert_eq!(stats.hits, 1, "{tag}");
    assert_eq!(stats.deduped, 1, "{tag}");
    assert!(stats.preemptions >= 1, "{tag}");
    assert!(stats.resumes >= 1, "{tag}");
    assert_eq!(stats.failed, 0, "{tag}");

    // Reference: the same long sweep, uninterrupted, fresh store.
    let ref_config = fresh_config(&format!("{tag}-ref"), threads);
    let reference = SweepService::start(&ref_config).expect("reference starts");
    let clean = reference.submit(&long_batch_spec()).expect("ref submit");
    let clean_bytes = reference.wait_result(clean.job, WAIT).expect("ref result");
    assert_eq!(
        victim_bytes, clean_bytes,
        "{tag}: preempted+resumed result must be byte-identical to an uninterrupted run"
    );
    reference.shutdown();

    // The report's counters, from the document itself: one warm hit and
    // one in-flight duplicate, each resolved from the spec memo. The last
    // matrix point's report is also written out and read back.
    let report = service.report_json();
    assert_report_counts(&report, &tag);
    if threads == THREAD_MATRIX[THREAD_MATRIX.len() - 1] {
        std::fs::write(REPORT_PATH, format!("{report}\n")).expect("write SERVE_report.json");
        let written = std::fs::read_to_string(REPORT_PATH).expect("read SERVE_report.json");
        assert_report_counts(&written, REPORT_PATH);
    }
    service.shutdown();
    (cold_bytes, victim_bytes)
}

/// Where the last matrix point's `vc-serve-report/v1` document lands.
const REPORT_PATH: &str = "target/serve/SERVE_report.json";

/// Asserts the drill's counts in a `vc-serve-report/v1` document: the
/// warm hit, the in-flight duplicate, and the two memo hits they were.
fn assert_report_counts(report: &str, what: &str) {
    let doc = vc_json::parse(report).expect("report is valid JSON");
    assert_eq!(
        doc.get("schema").and_then(Value::as_str),
        Some(REPORT_SCHEMA)
    );
    for (key, want) in [("hits", 1), ("deduped", 1), ("memo_hits", 2), ("failed", 0)] {
        assert_eq!(
            doc.get(key).and_then(Value::as_u64),
            Some(want),
            "{what}: {key}"
        );
    }
}

fn eviction_drill() {
    let config = ServeConfig {
        max_store_entries: Some(1),
        ..fresh_config("evict", 2)
    };
    let service = SweepService::start(&config).expect("evict service starts");
    let first = SweepSpec::new(
        InstanceRef::FullBinaryTree { n: 511, seed: 2 },
        AlgorithmRef::LeafDistance,
    );
    let second = SweepSpec::new(
        InstanceRef::FullBinaryTree { n: 511, seed: 3 },
        AlgorithmRef::LeafDistance,
    );
    let a = service.submit(&first).expect("submit first");
    let first_bytes = service.wait_result(a.job, WAIT).expect("first result");
    let b = service.submit(&second).expect("submit second");
    service.wait_result(b.job, WAIT).expect("second result");
    let stats = service.stats();
    assert_eq!(stats.evictions, 1, "cap 1 must evict the older entry");
    assert_eq!(stats.store_entries, 1);
    let again = service.submit(&first).expect("resubmit first");
    assert!(
        !again.cache_hit,
        "an evicted result must be recomputed, not served"
    );
    let recomputed = service.wait_result(again.job, WAIT).expect("recomputed");
    assert_eq!(
        recomputed, first_bytes,
        "the recomputed entry must be byte-identical to the first run"
    );
    assert_eq!(
        service.stats().memo_hits,
        1,
        "the resubmission must reuse the memoized identity"
    );
    service.shutdown();
    println!(
        "eviction drill OK: FIFO cap enforced, eviction counted, evicted entry recomputed \
         byte-identical on its memoized identity"
    );
}

/// Two bursts of `MAX_FINISHED_JOBS + 8` hits on one stored spec: after
/// each, the report's `jobs` array holds at most the cap, while
/// `submissions` and `hits` count every request.
fn job_table_drill() {
    let service = SweepService::start(&fresh_config("jobs", 1)).expect("job service starts");
    let spec = queued_batch_spec();
    let cold = service.submit(&spec).expect("cold submit");
    service.wait_result(cold.job, WAIT).expect("cold result");
    let burst = MAX_FINISHED_JOBS as u64 + 8;
    for round in 1..=2 {
        for _ in 0..burst {
            assert!(service.submit(&spec).expect("hit submit").cache_hit);
        }
        let doc = vc_json::parse(&service.report_json()).expect("report is valid JSON");
        let jobs = doc.get("jobs").and_then(Value::as_arr).expect("jobs");
        assert!(
            jobs.len() <= MAX_FINISHED_JOBS,
            "burst {round}: {} job records",
            jobs.len()
        );
        for (key, want) in [("submissions", 1 + round * burst), ("hits", round * burst)] {
            assert_eq!(
                doc.get(key).and_then(Value::as_u64),
                Some(want),
                "burst {round}: {key}"
            );
        }
    }
    service.shutdown();
    println!(
        "job table drill OK: {} hits kept at most {MAX_FINISHED_JOBS} job records",
        2 * burst
    );
}

fn protocol_drill() {
    let config = fresh_config("sock", 2);
    let service = Arc::new(SweepService::start(&config).expect("socket service starts"));
    let socket = PathBuf::from("target/serve/sock/serve.sock");
    let daemon = ServeDaemon::bind(Arc::clone(&service), &socket).expect("daemon binds");

    let line = format!(
        "{{\"op\":\"submit\",\"spec\":{}}}",
        interactive_spec().to_json_line()
    );
    let response = vc_serve::request(&socket, &line).expect("submit over socket");
    let doc = vc_json::parse(&response).expect("submit response parses");
    assert_eq!(doc.get("ok").and_then(Value::as_bool), Some(true));
    let job = doc.get("job").and_then(Value::as_u64).expect("job id");

    service
        .wait_job(job, WAIT, |s| matches!(s.state, JobState::Done { .. }))
        .expect("socket job finishes");
    let response = vc_serve::request(&socket, &format!("{{\"op\":\"poll\",\"job\":{job}}}"))
        .expect("poll over socket");
    let doc = vc_json::parse(&response).expect("poll response parses");
    assert_eq!(doc.get("state").and_then(Value::as_str), Some("done"));

    let response = vc_serve::request(&socket, &format!("{{\"op\":\"result\",\"job\":{job}}}"))
        .expect("result over socket");
    let doc = vc_json::parse(&response).expect("result response parses");
    let payload = doc.get("payload").and_then(Value::as_str).expect("payload");
    let ckpt = vc_engine::SweepCheckpoint::from_json(payload).expect("payload decodes");
    assert!(ckpt.is_complete(), "the payload is a complete checkpoint");

    let response = vc_serve::request(&socket, "{\"op\":\"stats\"}").expect("stats over socket");
    let doc = vc_json::parse(&response).expect("stats response parses");
    assert_eq!(
        doc.get("report")
            .and_then(|r| r.get("schema"))
            .and_then(Value::as_str),
        Some(REPORT_SCHEMA)
    );

    let response = vc_serve::request(&socket, "{\"op\":\"shutdown\"}").expect("shutdown op");
    assert_eq!(response, "{\"ok\":true}");
    daemon.join();
    println!("protocol drill OK: submit/poll/result/stats/shutdown over the socket");
}

fn main() {
    std::fs::create_dir_all("target/serve").expect("target/serve is writable");

    let mut cold_payloads: Vec<String> = Vec::new();
    let mut resumed_payloads: Vec<String> = Vec::new();
    for threads in THREAD_MATRIX {
        let (cold, resumed) = drill_at(threads);
        println!(
            "threads={threads}: hit-after-miss, dedup and preempt+resume byte-identity OK \
             ({} payload bytes)",
            resumed.len()
        );
        cold_payloads.push(cold);
        resumed_payloads.push(resumed);
    }
    assert!(
        cold_payloads.windows(2).all(|w| w[0] == w[1]),
        "cold results must be byte-identical across thread counts"
    );
    assert!(
        resumed_payloads.windows(2).all(|w| w[0] == w[1]),
        "preempted+resumed results must be byte-identical across thread counts"
    );
    println!(
        "thread matrix OK: results byte-identical at {:?} worker threads",
        THREAD_MATRIX
    );

    eviction_drill();
    job_table_drill();
    protocol_drill();
    println!("serve drill OK: report at {REPORT_PATH}");
}
