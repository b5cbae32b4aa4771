//! The three `vc-serve` workloads. The service runs in this process with
//! a one-worker pool; the client drives it over the Unix socket, learns
//! completion through [`SweepService::wait_job`] (a condvar, so a waiting
//! client takes no core) and fetches every result over the socket.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use vc_engine::Engine;
use vc_json::Value;
use vc_serve::{
    request, AlgorithmRef, InstanceRef, JobState, Priority, ServeConfig, ServeDaemon, ServeStats,
    SweepService, SweepSpec,
};

use crate::check::{self, Tally};
use crate::host::{PhaseMeter, Unit, UnitClock};
use crate::layers::{LayerInputs, Recipe};
use crate::span::Recorder;
use crate::{derive, LoopLog, Options};

/// Pool workers: one, so the client side has the host's second core.
pub const THREADS: usize = 1;

/// Result-store entry cap of serve-miss and serve-hit. serve-miss keeps
/// FIFO eviction running with it; serve-hit's 32 entries fit under it.
pub const MAX_STORE_ENTRIES: usize = 64;

/// How long any one job may take before it counts as failed.
pub const JOB_BOUND: Duration = Duration::from_secs(60);

/// Random-walk step factor of the serve-miss, serve-hit and batch specs.
const STEP_FACTOR: u32 = 32;

/// Layer-pass requests the traced run makes per serve workload.
const LAYER_SPECS: u64 = 16;

/// A fresh random-walk spec: the `i`-th of stream `domain`.
pub fn walk_spec(seed: u64, domain: &str, n: usize, i: u64) -> SweepSpec {
    SweepSpec {
        tape_seed: Some(derive(seed, &format!("{domain}/tape"), i)),
        ..SweepSpec::new(
            InstanceRef::FullBinaryTree {
                n,
                seed: derive(seed, &format!("{domain}/instance"), i),
            },
            AlgorithmRef::LeafRandomWalk {
                step_factor: STEP_FACTOR,
            },
        )
    }
}

/// The `i`-th serve-preempt interactive spec.
fn interactive_spec(seed: u64, n: usize, i: u64) -> SweepSpec {
    SweepSpec {
        priority: Priority::Interactive,
        ..SweepSpec::new(
            InstanceRef::FullBinaryTree {
                n,
                seed: derive(seed, "serve-preempt/interactive", i),
            },
            AlgorithmRef::LeafDistance,
        )
    }
}

/// A submit reply.
#[derive(Clone, Debug)]
pub struct Reply {
    /// Job id to wait on.
    pub job: u64,
    /// The sweep id the spec resolved to, in hex.
    pub sweep_id: String,
    /// Whether the store answered without execution.
    pub cache_hit: bool,
}

/// A service with its socket daemon, in a scratch directory.
pub struct Rig {
    service: Arc<SweepService>,
    daemon: Option<ServeDaemon>,
    socket: PathBuf,
    dir: PathBuf,
}

impl Rig {
    /// Starts a one-worker service on `dir` and binds its socket.
    pub fn start(dir: &Path, max_store_entries: Option<usize>) -> Result<Self, String> {
        crate::remove_dir(dir);
        let service = SweepService::start(&ServeConfig {
            threads: THREADS,
            store_dir: dir.join("store"),
            spool_dir: dir.join("spool"),
            max_store_entries,
        })
        .map_err(|e| format!("service start: {e}"))?;
        let service = Arc::new(service);
        let socket = dir.join("serve.sock");
        let daemon = ServeDaemon::bind(Arc::clone(&service), &socket)
            .map_err(|e| format!("bind {}: {e}", socket.display()))?;
        Ok(Self {
            service,
            daemon: Some(daemon),
            socket,
            dir: dir.to_path_buf(),
        })
    }

    /// The in-process service (for `wait_job`, stats and checks).
    pub fn service(&self) -> &SweepService {
        &self.service
    }

    fn call(&self, line: &str) -> Result<String, String> {
        request(&self.socket, line).map_err(|e| format!("socket: {e}"))
    }

    /// Submits `spec` over the socket.
    pub fn submit(&self, spec: &SweepSpec) -> Result<Reply, String> {
        let response = self.call(&format!(
            "{{\"op\":\"submit\",\"spec\":{}}}",
            spec.to_json_line()
        ))?;
        let doc = ok_doc(&response)?;
        Ok(Reply {
            job: doc
                .get("job")
                .and_then(Value::as_u64)
                .ok_or("submit reply without job")?,
            sweep_id: doc
                .get("sweep_id")
                .and_then(Value::as_str)
                .ok_or("submit reply without sweep_id")?
                .to_string(),
            cache_hit: doc
                .get("cache_hit")
                .and_then(Value::as_bool)
                .ok_or("submit reply without cache_hit")?,
        })
    }

    /// Blocks until `job` has finished.
    pub fn wait_done(&self, job: u64) -> Result<(), String> {
        let status = self
            .service
            .wait_job(job, JOB_BOUND, |s| {
                matches!(s.state, JobState::Done { .. } | JobState::Failed)
            })
            .map_err(|e| format!("job {job}: {e}"))?;
        match status.state {
            JobState::Failed => Err(format!(
                "job {job} failed: {}",
                status.error.unwrap_or_default()
            )),
            _ => Ok(()),
        }
    }

    /// One closed-loop request: submit, wait for completion, fetch the
    /// result over the socket and parse it. Returns the reply and payload.
    /// Records client spans when `rec` is enabled.
    pub fn request(
        &self,
        spec: &SweepSpec,
        rec: &mut Recorder,
        id: u64,
    ) -> Result<(Reply, String), String> {
        let t0 = rec.now();
        let reply = rec.span("client.submit", id, || self.submit(spec))?;
        if rec.enabled() {
            let start = rec.now();
            self.service
                .wait_job(reply.job, JOB_BOUND, |s| s.state != JobState::Queued)
                .map_err(|e| format!("job {}: {e}", reply.job))?;
            rec.close("sched.queue_wait", id, start);
        }
        rec.span("sched.run", id, || self.wait_done(reply.job))?;
        let response = rec.span("client.fetch", id, || {
            self.call(&format!("{{\"op\":\"result\",\"job\":{}}}", reply.job))
        })?;
        let payload = rec.span("client.parse", id, || payload_of(&response))?;
        rec.close("serve.request", id, t0);
        Ok((reply, payload))
    }

    /// Stops the daemon and the service and removes the directory.
    pub fn stop(mut self) {
        let _ = self.call("{\"op\":\"shutdown\"}");
        if let Some(daemon) = self.daemon.take() {
            daemon.join();
        }
        if let Ok(service) = Arc::try_unwrap(self.service) {
            service.shutdown();
        }
        crate::remove_dir(&self.dir);
    }
}

fn ok_doc(response: &str) -> Result<Value, String> {
    let doc = vc_json::parse(response).map_err(|e| format!("reply: {e}"))?;
    if doc.get("ok").and_then(Value::as_bool) != Some(true) {
        return Err(format!("service refused: {response}"));
    }
    Ok(doc)
}

/// Parses a `result` reply and takes its payload out without copying it.
pub fn payload_of(response: &str) -> Result<String, String> {
    let Value::Obj(fields) = ok_doc(response)? else {
        return Err("result reply is not an object".to_string());
    };
    fields
        .into_iter()
        .find_map(|(k, v)| match v {
            Value::Str(s) if k == "payload" => Some(s),
            _ => None,
        })
        .ok_or_else(|| "result reply without payload".to_string())
}

/// `reps` set-ups: each starts a rig and runs `prepare` (pre-stores and
/// one warm-up unit), timed as a whole; `check` then checks what
/// `prepare` produced, after the set-up's clock has stopped. Every rig but
/// the last is stopped. Returns the last rig and what its `prepare`
/// produced.
fn set_up<T>(
    reps: usize,
    dir: &Path,
    cap: Option<usize>,
    log: &mut LoopLog,
    tally: &mut Tally,
    mut prepare: impl FnMut(&Rig) -> Result<T, String>,
    mut check: impl FnMut(&Rig, &T, &mut Tally),
) -> Result<(Rig, T), String> {
    let mut last = None;
    for _ in 0..reps {
        if let Some((rig, _)) = last.take() {
            Rig::stop(rig);
        }
        let clock = UnitClock::start();
        let rig = Rig::start(dir, cap)?;
        let prepared = prepare(&rig)?;
        log.setups.push(clock.lap());
        check(&rig, &prepared, tally);
        last = Some((rig, prepared));
    }
    last.ok_or_else(|| "no set-up ran".to_string())
}

/// Sends request `i` as soon as request `i - 1` has completed (closed
/// loop) until the timed phase is over. Each output is checked after its
/// unit's clock has stopped; a unit whose check fails is not timed.
fn closed_loop(
    opts: &Options,
    log: &mut LoopLog,
    tally: &mut Tally,
    mut request: impl FnMut(u64) -> Result<(Reply, String), String>,
    check: impl Fn(u64, &Reply, &str) -> Result<(), String>,
) {
    let meter = PhaseMeter::start();
    let mut i = 0;
    while meter.clock().elapsed() < opts.seconds || i == 0 {
        i += 1;
        let clock = UnitClock::start();
        let outcome = request(i);
        let unit = clock.lap();
        let checked = outcome.and_then(|(reply, payload)| check(i, &reply, &payload));
        if checked.is_ok() {
            log.push(unit);
        }
        tally.record(checked);
    }
    meter.finish(log);
}

/// serve-miss: every request submits a fresh spec.
pub fn run_miss(
    opts: &Options,
    tally: &mut Tally,
    rec: &mut Recorder,
) -> Result<(LoopLog, LayerInputs), String> {
    let n = opts.sizes.serve_n;
    let spec = |i: u64| walk_spec(opts.seed, "serve-miss", n, i);
    let dir = opts.fresh_dir("serve")?;
    let mut log = LoopLog::default();
    let mut next = 0u64;
    let (rig, _) = set_up(
        opts.sizes.quick_setup_reps,
        &dir,
        Some(MAX_STORE_ENTRIES),
        &mut log,
        tally,
        |rig| {
            next += 1;
            Ok(rig.request(&spec(next), &mut Recorder::disabled(), 0))
        },
        |_, warm, tally| {
            tally.record(
                warm.clone()
                    .and_then(|(r, p)| check::complete_checkpoint(&p, &r.sweep_id)),
            );
        },
    )?;
    closed_loop(
        opts,
        &mut log,
        tally,
        |i| rig.request(&spec(next + i), rec, i),
        |_, reply, payload| check::complete_checkpoint(payload, &reply.sweep_id),
    );
    log.stats = Some(rig.service().stats());
    log.starts_per_unit = n;
    rig.stop();
    crate::remove_dir(&dir);
    let sweeps = (0..LAYER_SPECS)
        .map(|i| layer_sweep(&spec(u64::MAX - i)))
        .collect();
    Ok((log, LayerInputs::serve(sweeps)))
}

/// serve-hit: set-up stores `hit_keys` specs; the loop resubmits seeded
/// uniform draws from them.
pub fn run_hit(
    opts: &Options,
    tally: &mut Tally,
    rec: &mut Recorder,
) -> Result<(LoopLog, LayerInputs), String> {
    let n = opts.sizes.serve_n;
    let keys = opts.sizes.hit_keys as u64;
    let spec = |k: u64| walk_spec(opts.seed, "serve-hit", n, k);
    let draw = |i: u64| derive(opts.seed, "serve-hit/draw", i) % keys;
    let dir = opts.fresh_dir("serve")?;
    let mut log = LoopLog::default();
    let (rig, (stored, _)) = set_up(
        opts.sizes.setup_reps,
        &dir,
        Some(MAX_STORE_ENTRIES),
        &mut log,
        tally,
        |rig| {
            let stored = (0..keys)
                .map(|k| rig.request(&spec(k), &mut Recorder::disabled(), 0))
                .collect::<Result<Vec<_>, _>>()?;
            let warm = rig.request(&spec(draw(0)), &mut Recorder::disabled(), 0);
            Ok((stored, warm))
        },
        |_, (stored, warm), tally| {
            for (reply, payload) in stored {
                tally.record(check::complete_checkpoint(payload, &reply.sweep_id));
            }
            let captured = &stored[draw(0) as usize].1;
            tally.record(
                warm.clone()
                    .and_then(|(r, p)| check::cached_payload(r.cache_hit, &p, captured)),
            );
        },
    )?;
    let captured: Vec<String> = stored.into_iter().map(|(_, payload)| payload).collect();
    closed_loop(
        opts,
        &mut log,
        tally,
        |i| rig.request(&spec(draw(i)), rec, i),
        |i, reply, payload| {
            check::cached_payload(reply.cache_hit, payload, &captured[draw(i) as usize])
        },
    );
    log.stats = Some(rig.service().stats());
    log.starts_per_unit = n;
    rig.stop();
    crate::remove_dir(&dir);
    let sweeps = (0..keys.min(LAYER_SPECS))
        .map(|k| layer_sweep(&spec(k)))
        .collect();
    Ok((log, LayerInputs::serve(sweeps)))
}

/// The checkpoint an uninterrupted run of `spec` writes. Runs between
/// timed units, with both cores.
fn uninterrupted(spec: &SweepSpec, path: &Path) -> Result<String, String> {
    let _ = std::fs::remove_file(path);
    spec.algorithm
        .run_checkpointed(
            &Engine::with_threads(2),
            &spec.instance.build(),
            &spec.run_config(),
            path,
        )
        .map_err(|e| format!("reference run: {e}"))?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reference read: {e}"));
    let _ = std::fs::remove_file(path);
    text
}

/// One preemption cycle, as the client saw it.
struct Cycle {
    /// The interactive request, timed from the moment the batch was seen
    /// running.
    unit: Unit,
    /// How long after that moment the interactive request was sent.
    lag_ms: f64,
    /// The batch from the moment it was seen running until it was done.
    batch_ms: f64,
    batch_job: u64,
    urgent: (Reply, String),
    /// Service counters before the batch was submitted and after it was
    /// done.
    stats: (ServeStats, ServeStats),
}

/// Submits `batch`, waits until it runs and then sends the interactive
/// request `urgent`, which preempts it. Returns when both are done.
fn preempt_cycle(
    rig: &Rig,
    batch: &SweepSpec,
    urgent: &SweepSpec,
    rec: &mut Recorder,
    id: u64,
) -> Result<Cycle, String> {
    let before = rig.service().stats();
    let submitted = rig.submit(batch)?;
    rig.service()
        .wait_job(submitted.job, JOB_BOUND, |s| s.state != JobState::Queued)
        .map_err(|e| format!("batch {}: {e}", submitted.job))?;
    let clock = UnitClock::start();
    let lag_ms = clock.ms();
    let urgent = rig.request(urgent, rec, id)?;
    let unit = clock.lap();
    rig.wait_done(submitted.job)?;
    Ok(Cycle {
        unit,
        lag_ms,
        batch_ms: clock.lap().ms,
        batch_job: submitted.job,
        urgent,
        stats: (before, rig.service().stats()),
    })
}

/// serve-preempt: a closed loop of preemption cycles. Each cycle submits
/// a fresh batch and, the moment it is seen running, an interactive
/// request that parks it; the batch then resumes from its checkpoint and
/// finishes. Arriving at that fixed point makes every cycle alike: the
/// interactive request waits out the batch's non-preemptible start (the
/// sweep identity fold) and its park, and the batch pays one resume.
pub fn run_preempt(
    opts: &Options,
    tally: &mut Tally,
    rec: &mut Recorder,
) -> Result<(LoopLog, LayerInputs), String> {
    let sizes = opts.sizes;
    let batch = |i: u64| walk_spec(opts.seed, "serve-preempt/batch", sizes.batch_n, i);
    let interactive = |i: u64| interactive_spec(opts.seed, sizes.interactive_n, i);
    let dir = opts.fresh_dir("serve")?;
    let rig_dir = dir.join("rig");
    let reference = dir.join("reference.ckpt.json");
    let check_batch = |rig: &Rig, job: u64, spec: &SweepSpec| -> Result<(), String> {
        let served = rig
            .service()
            .result(job)
            .map_err(|e| format!("batch {job} result: {e}"))?;
        check::same_bytes(&served, &uninterrupted(spec, &reference)?)
    };
    let mut log = LoopLog::default();
    let mut next = 0u64;
    // The warm-up unit is one uninterrupted batch. No store cap: the
    // batch results are loaded back for their checks.
    let (rig, _) = set_up(
        opts.sizes.setup_reps,
        &rig_dir,
        None,
        &mut log,
        tally,
        |rig| {
            next += 1;
            let spec = batch(next);
            let submitted = rig.submit(&spec)?;
            rig.wait_done(submitted.job)?;
            Ok((submitted.job, spec))
        },
        |rig, (job, spec), tally| tally.record(check_batch(rig, *job, spec)),
    )?;

    let meter = PhaseMeter::start();
    let mut i = 0;
    while meter.clock().elapsed() < opts.seconds || i == 0 {
        i += 1;
        let spec = batch(next + i);
        match preempt_cycle(&rig, &spec, &interactive(next + i), rec, i) {
            Ok(cycle) => {
                let (reply, payload) = &cycle.urgent;
                let (before, after) = &cycle.stats;
                let checked = check::preempted(before, after)
                    .and_then(|()| check::complete_checkpoint(payload, &reply.sweep_id))
                    .and_then(|()| check_batch(&rig, cycle.batch_job, &spec));
                if checked.is_ok() {
                    log.push(cycle.unit);
                    log.lags_ms.push(cycle.lag_ms);
                    log.batch_ms.push(cycle.batch_ms);
                }
                tally.record(checked);
            }
            Err(e) => tally.record(Err(e)),
        }
    }
    meter.finish(&mut log);
    let stats = rig.service().stats();
    log.stats = Some(stats);
    // The set-up's warm-up batch ran on this service too.
    log.batches_total = i + 1;
    log.starts_per_unit = sizes.batch_n;
    log.notes.push(format!(
        "{} preemptions in {} batches",
        stats.preemptions, log.batches_total
    ));
    rig.stop();
    crate::remove_dir(&dir);
    let sweeps = (1..=3).map(|i| layer_sweep(&batch(u64::MAX - i))).collect();
    Ok((log, LayerInputs::serve(sweeps)))
}

fn layer_sweep(spec: &SweepSpec) -> (Recipe, AlgorithmRef, vc_model::run::RunConfig) {
    (
        Recipe::Serve(spec.instance),
        spec.algorithm,
        spec.run_config(),
    )
}
