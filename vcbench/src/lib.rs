//! `vcbench`: the repository's wall-clock benchmark.
//!
//! One process runs one workload (see `README.md` next to this crate):
//!
//! * `engine-det-large` — the parallel engine sweeping the depth-17
//!   complete binary tree with the deterministic leaf-coloring solver;
//! * `serve-miss`, `serve-hit`, `serve-preempt` — the `vc-serve` cache
//!   miss, cache hit and preempt-and-resume paths, driven over the Unix
//!   socket by a client in the same process.
//!
//! An untraced run (`--trace 0`) reports the end-to-end metrics; a traced
//! run (`--trace 1`) repeats the workload with client spans and then drives
//! the same inputs through each layer's public functions one call at a
//! time ([`layers`]), reporting per-layer metrics. Every output is checked
//! ([`check`]); a wrong output counts as a failed operation.

#![forbid(unsafe_code)]

pub mod check;
pub mod engine;
pub mod host;
pub mod layers;
pub mod serve;
pub mod span;
pub mod stats;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Duration;

use vc_ident::IdHasher;
use vc_trace::time::Stopwatch;

use check::Tally;
use span::Recorder;

/// The workloads, by command-line name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `Engine::with_threads(2).run_all` over the depth-17 tree.
    EngineDetLarge,
    /// Closed loop of fresh specs: every request is a cache miss.
    ServeMiss,
    /// Closed loop of resubmitted specs: every request is a cache hit.
    ServeHit,
    /// Closed loop of batches, each preempted by one interactive request.
    ServePreempt,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 4] = [
        Workload::EngineDetLarge,
        Workload::ServeMiss,
        Workload::ServeHit,
        Workload::ServePreempt,
    ];

    /// The command-line name.
    pub fn name(&self) -> &'static str {
        match self {
            Workload::EngineDetLarge => "engine-det-large",
            Workload::ServeMiss => "serve-miss",
            Workload::ServeHit => "serve-hit",
            Workload::ServePreempt => "serve-preempt",
        }
    }

    /// Whether a run holds enough units for `latency_p90_ms` to be a p90.
    /// engine-det-large fits about twenty sweeps in a run, so its p90 would
    /// be the second-slowest sweep; it reports the median sweep there.
    pub fn has_p90(&self) -> bool {
        *self != Workload::EngineDetLarge
    }

    fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes. [`Sizes::FULL`] is the benchmark; [`Sizes::TINY`] keeps
/// every code path but finishes in about a second, for the self-test.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Depth of the complete binary tree of engine-det-large.
    pub det_depth: u32,
    /// Target nodes of a serve-miss / serve-hit instance.
    pub serve_n: usize,
    /// Target nodes of a serve-preempt batch instance.
    pub batch_n: usize,
    /// Target nodes of a serve-preempt interactive instance.
    pub interactive_n: usize,
    /// Distinct specs serve-hit stores in set-up and resubmits.
    pub hit_keys: usize,
    /// Set-ups per run of serve-hit and serve-preempt; `setup_s` is the
    /// median of those free of steal.
    pub setup_reps: usize,
    /// Set-ups per run of engine-det-large and serve-miss, whose set-up is
    /// one instance load or one request (20–60 ms): more of them fit, and
    /// a median of nine still moved with the first, slower ones.
    pub quick_setup_reps: usize,
}

impl Sizes {
    /// The benchmark's sizes.
    pub const FULL: Sizes = Sizes {
        det_depth: 17,
        serve_n: 4095,
        batch_n: 65535,
        interactive_n: 255,
        hit_keys: 32,
        setup_reps: 9,
        quick_setup_reps: 41,
    };

    /// Self-test sizes.
    pub const TINY: Sizes = Sizes {
        det_depth: 7,
        serve_n: 127,
        batch_n: 16383,
        interactive_n: 31,
        hit_keys: 4,
        setup_reps: 2,
        quick_setup_reps: 3,
    };
}

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Options {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: Duration,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// Input sizes.
    pub sizes: Sizes,
    /// Scratch directory for instance files, stores and the socket,
    /// relative to the working directory.
    pub work_dir: PathBuf,
}

/// Usage line for bad command lines.
pub const USAGE: &str =
    "usage: vcbench --workload <engine-det-large|serve-miss|serve-hit|serve-preempt> \
     --seed <n> --seconds <s> --trace <0|1>";

impl Options {
    /// Parses the arguments after the program name.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(value)
                            .ok_or_else(|| format!("unknown workload `{value}`"))?,
                    );
                }
                "--seed" => {
                    seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?);
                }
                "--seconds" => {
                    let s: f64 = value
                        .parse()
                        .map_err(|_| format!("bad seconds `{value}`"))?;
                    if !(s > 0.0 && s <= 3600.0) {
                        return Err(format!("seconds out of range: {value}"));
                    }
                    seconds = Some(Duration::from_secs_f64(s));
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                    });
                }
                _ => return Err(format!("unknown flag `{flag}`")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            sizes: Sizes::FULL,
            work_dir: PathBuf::from(".vcbench"),
        })
    }

    /// A per-process directory under the work dir, emptied first.
    pub fn fresh_dir(&self, tag: &str) -> Result<PathBuf, String> {
        let dir = self.work_dir.join(format!(
            "{}-{}-{tag}",
            self.workload.name(),
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(dir)
    }
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What a run reports.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Operations attempted and failed.
    pub tally: Tally,
    /// Reported metrics: end-to-end ones untraced, per-layer ones traced.
    pub metrics: Vec<Metric>,
    /// Host and sample-count diagnostics, printed but not reported.
    pub notes: Vec<String>,
}

impl Outcome {
    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.tally.failed == 0,
            self.tally.attempted,
            self.tally.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// The human-readable report: every metric with its unit, then the
    /// notes. The result line is printed after it.
    pub fn report(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = writeln!(out, "{:<32} {:>16.4} {}", m.name, m.value, m.unit);
        }
        for n in &self.notes {
            let _ = writeln!(out, "# {n}");
        }
        out
    }
}

/// Derives the `i`-th seed of stream `domain` from the workload seed.
/// Seeds keep 53 bits: the wire protocol's JSON numbers are exact only
/// up to 2^53.
pub fn derive(seed: u64, domain: &str, i: u64) -> u64 {
    let mut h = IdHasher::new(domain);
    h.word(seed);
    h.word(i);
    h.finish() >> 11
}

/// Milliseconds on a stopwatch.
pub fn ms(sw: &Stopwatch) -> f64 {
    sw.elapsed_nanos() as f64 / 1e6
}

/// What a workload's set-up and timed loop produced.
#[derive(Debug, Default)]
pub struct LoopLog {
    /// Each set-up: the instance load (engine), or the service start,
    /// pre-stores and one warm-up unit (serve). Outputs are checked after
    /// the set-up's clock has stopped.
    pub setups: Vec<host::Unit>,
    /// Every timed unit that passed its check: a request, or an engine
    /// sweep.
    pub units: Vec<host::Unit>,
    /// serve-preempt: time from seeing the batch run to sending the
    /// interactive request.
    pub lags_ms: Vec<f64>,
    /// serve-preempt: each batch from the moment it ran until it was done.
    pub batch_ms: Vec<f64>,
    /// Starts one unit executes (engine) or answers (serve).
    pub starts_per_unit: usize,
    /// Service counters after the loop (serve workloads).
    pub stats: Option<vc_serve::ServeStats>,
    /// Batches the service completed (serve-preempt).
    pub batches_total: u64,
    /// Peak resident set once [`RSS_UNITS`] units have run.
    pub peak_rss_mb: Option<f64>,
    /// Workload-specific notes for the report.
    pub notes: Vec<String>,
    /// Wall-clock length of the timed phase.
    pub phase_s: f64,
    /// Hypervisor steal during the timed phase.
    pub steal_frac: f64,
    /// Average busy threads of this process during the timed phase.
    pub busy_threads: f64,
}

/// A unit during which the hypervisor stole more than this share of CPU
/// time measured the neighbours, not the program: it is left out of the
/// latency statistics.
pub const STEAL_MAX: f64 = 0.02;

/// `peak_rss_mb` is read after this many timed units (or at the end of a
/// shorter run), so that it measures a fixed amount of work: the service
/// keeps every finished job's instance, and a faster run would otherwise
/// finish more jobs and report more memory.
pub const RSS_UNITS: usize = 32;

impl LoopLog {
    /// Adds a timed unit that passed its check.
    pub fn push(&mut self, unit: host::Unit) {
        self.units.push(unit);
        if self.units.len() == RSS_UNITS {
            self.peak_rss_mb = Some(host::peak_rss_mb());
        }
    }

    /// Latencies of the timed units, as [`clean_ms`] selects them.
    pub fn latencies(&self) -> Vec<f64> {
        clean_ms(&self.units)
    }

    /// `setup_s`: the median set-up, in seconds, of those [`clean_ms`]
    /// selects.
    pub fn setup_s(&self) -> f64 {
        stats::median(&clean_ms(&self.setups)) / 1e3
    }
}

/// The times of the units without steal, or of every unit when fewer than
/// half of them (or fewer than three) are free of it.
pub fn clean_ms(units: &[host::Unit]) -> Vec<f64> {
    let clean: Vec<f64> = units
        .iter()
        .filter(|u| u.steal <= STEAL_MAX)
        .map(|u| u.ms)
        .collect();
    if clean.len() >= 3 && 2 * clean.len() >= units.len() {
        clean
    } else {
        units.iter().map(|u| u.ms).collect()
    }
}

/// Runs one workload as `opts` asks and returns its outcome.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let mut rec = if opts.trace {
        Recorder::new()
    } else {
        Recorder::disabled()
    };
    let mut tally = Tally::default();
    let (log, inputs) = match opts.workload {
        Workload::EngineDetLarge => engine::run(opts, &mut tally, &mut rec)?,
        Workload::ServeMiss => serve::run_miss(opts, &mut tally, &mut rec)?,
        Workload::ServeHit => serve::run_hit(opts, &mut tally, &mut rec)?,
        Workload::ServePreempt => serve::run_preempt(opts, &mut tally, &mut rec)?,
    };
    let latencies = log.latencies();
    let mut notes = log.notes.clone();
    notes.extend([
        format!(
            "workload {} seed {} trace {}",
            opts.workload.name(),
            opts.seed,
            opts.trace
        ),
        format!(
            "host.cores {} host.steal_frac {:.4} busy_threads {:.2} phase_s {:.3}",
            host::cores(),
            log.steal_frac,
            log.busy_threads,
            log.phase_s
        ),
        format!(
            "units {} of which {} without steal used (p90 has {} samples beyond it); setups_ms {:?}",
            log.units.len(),
            latencies.len(),
            stats::beyond(&latencies, 0.9),
            log.setups.iter().map(|u| u.ms.round()).collect::<Vec<_>>()
        ),
    ]);
    let metrics = if opts.trace {
        let metrics = layers::per_layer(opts, &inputs, &log, &mut tally, &mut rec)?;
        let path = opts.work_dir.join(format!(
            "spans-{}-seed{}.jsonl",
            opts.workload.name(),
            opts.seed
        ));
        rec.write(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        notes.push(format!(
            "{} spans written to {}",
            rec.spans().len(),
            path.display()
        ));
        metrics
    } else {
        end_to_end(opts.workload, &log)
    };
    Ok(Outcome {
        tally,
        metrics,
        notes,
    })
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(workload: Workload, log: &LoopLog) -> Vec<Metric> {
    let latencies = log.latencies();
    let p50 = stats::median(&latencies);
    let p90 = if workload.has_p90() {
        stats::quantile(&latencies, 0.9)
    } else {
        p50
    };
    // serve-preempt's rate counts a batch's starts against the median
    // preempted batch; the others count the starts of one unit against
    // the median unit.
    let rate_unit_ms = if log.batch_ms.is_empty() {
        p50
    } else {
        stats::median(&log.batch_ms)
    };
    let starts_per_s = if rate_unit_ms > 0.0 {
        log.starts_per_unit as f64 / (rate_unit_ms / 1e3)
    } else {
        0.0
    };
    vec![
        Metric {
            name: "setup_s",
            value: log.setup_s(),
            unit: "s",
        },
        Metric {
            name: "latency_p50_ms",
            value: p50,
            unit: "ms",
        },
        Metric {
            name: "latency_p90_ms",
            value: p90,
            unit: "ms",
        },
        Metric {
            name: "starts_per_s",
            value: starts_per_s,
            unit: "1/s",
        },
        Metric {
            name: "peak_rss_mb",
            value: log.peak_rss_mb.unwrap_or_else(host::peak_rss_mb),
            unit: "MB",
        },
    ]
}

/// Removes a scratch directory, ignoring a missing one.
pub fn remove_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}
