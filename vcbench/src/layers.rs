//! The traced run's layer pass.
//!
//! After the workload's own loop has run with client spans, the same
//! generated inputs are driven through each layer's public functions one
//! call at a time, in the order the service performs them:
//!
//! * a **miss request** — `graph.build` (`InstanceRef::build`),
//!   `ident.identity` (`AlgorithmRef::identity`), `checkpoint.run`
//!   (`AlgorithmRef::run_checkpointed`), `checkpoint.read` (the spool
//!   file), `store.write` (`ResultStore::store`), `store.read`
//!   (`ResultStore::load`), `framing.escape` (`vc_json::escape` into the
//!   reply line) and `framing.parse` (the client's `vc_json::parse`);
//! * a **hit request** — `graph.build`, `ident.identity`, `store.read`,
//!   `framing.escape`, `framing.parse`;
//! * **probes** outside any request — `graph.load`, checkpoint
//!   `decode`/`encode`, a park-and-resume of the sweep, a serial model
//!   pass and 2- and 1-thread engine sweeps.
//!
//! Each request has a root span; its self time is the time no layer span
//! accounts for (`sched.unattributed_ms`).

use std::path::Path;

use vc_core::problems::leaf_coloring::{DistanceSolver, RwToLeaf};
use vc_engine::{Engine, EngineReport, SweepCheckpoint};
use vc_graph::{store as instance_store, Instance};
use vc_model::run::{run_from_with, QueryAlgorithm, RunConfig};
use vc_model::ExecScratch;
use vc_serve::{AlgorithmRef, InstanceRef, ResultStore};
use vc_trace::time::Stopwatch;
use vc_trace::SweepMetrics;

use crate::check::{self, Tally};
use crate::span::{Recorder, REQUEST};
use crate::{host, ms, stats, LoopLog, Metric, Options};

/// How a layer-pass sweep gets its instance.
#[derive(Clone, Copy, Debug)]
pub enum Recipe {
    /// A serve spec's generator reference.
    Serve(InstanceRef),
    /// The complete binary tree of the given depth (engine-det-large).
    CompleteTree(u32),
}

impl Recipe {
    /// Builds the instance.
    pub fn build(&self) -> Instance {
        match self {
            Recipe::Serve(r) => r.build(),
            Recipe::CompleteTree(depth) => crate::engine::instance(*depth),
        }
    }
}

/// The inputs a workload hands to the layer pass.
#[derive(Clone, Debug)]
pub struct LayerInputs {
    /// The sweeps to drive, in the workload's order.
    pub sweeps: Vec<(Recipe, AlgorithmRef, RunConfig)>,
    /// Engine workers the workload uses.
    pub threads: usize,
    /// Exact query count of the first sweep, when it is pinned.
    pub expected_queries: Option<u128>,
}

impl LayerInputs {
    /// Inputs of a serve workload (one-worker pool, no pinned counts).
    pub fn serve(sweeps: Vec<(Recipe, AlgorithmRef, RunConfig)>) -> Self {
        Self {
            sweeps,
            threads: crate::serve::THREADS,
            expected_queries: None,
        }
    }
}

/// Layer-pass sweeps always run, whatever the time.
const MIN_SWEEPS: usize = 3;

/// Engine probe: 2- and 1-thread sweep pairs, at least this many.
const MIN_PAIRS: usize = 3;
/// ... and at most this many.
const MAX_PAIRS: usize = 25;

/// Measurements that are not spans.
#[derive(Default)]
struct Probe {
    checkpoint_bytes: Vec<f64>,
    response_bytes: Vec<f64>,
    resume_overhead_ms: Vec<f64>,
    ns_per_query: f64,
    queries: u128,
    sweep_2t_ms: Vec<f64>,
    sweep_1t_ms: Vec<f64>,
    busy_sum_ms: Vec<f64>,
    busy_max_ms: Vec<f64>,
    idle_frac: Vec<f64>,
}

/// Runs the layer pass and returns every per-layer metric.
pub fn per_layer(
    opts: &Options,
    inputs: &LayerInputs,
    log: &LoopLog,
    tally: &mut Tally,
    rec: &mut Recorder,
) -> Result<Vec<Metric>, String> {
    let dir = opts.fresh_dir("layers")?;
    let mut store = ResultStore::open(&dir.join("store"), None).map_err(|e| e.to_string())?;
    let engine = Engine::with_threads(inputs.threads);
    let mut probe = Probe::default();
    // Request ids above the loop's, so the two never mix.
    let mut id = 1u64 << 32;
    let sw = Stopwatch::start();
    for (i, &(recipe, algo, config)) in inputs.sweeps.iter().enumerate() {
        if i >= MIN_SWEEPS && sw.elapsed() >= opts.seconds / 2 {
            break;
        }
        id += 3;
        let ctx = Ctx {
            recipe,
            algo,
            config,
            engine: &engine,
            dir: &dir,
        };
        let (payload, run_ms) = ctx.miss(rec, id, &mut store, &mut probe, tally)?;
        ctx.hit(rec, id + 1, &store, &payload, tally)?;
        ctx.probes(rec, id + 2, &payload, run_ms, &mut probe, tally)?;
        if i == 0 {
            model_probe(&ctx, inputs.expected_queries, &mut probe, tally);
            engine_probe(&ctx, &mut probe, tally);
        }
    }
    crate::remove_dir(&dir);
    Ok(metrics(log, rec, &probe))
}

struct Ctx<'a> {
    recipe: Recipe,
    algo: AlgorithmRef,
    config: RunConfig,
    engine: &'a Engine,
    dir: &'a Path,
}

impl Ctx<'_> {
    fn starts(&self, inst: &Instance) -> Result<Vec<usize>, String> {
        self.config
            .starts
            .starts(inst.n())
            .map_err(|e| e.to_string())
    }

    /// The miss path. Returns the stored payload and the
    /// `checkpoint.run` time.
    fn miss(
        &self,
        rec: &mut Recorder,
        id: u64,
        store: &mut ResultStore,
        probe: &mut Probe,
        tally: &mut Tally,
    ) -> Result<(String, f64), String> {
        let spool = self.dir.join("spool.ckpt.json");
        let t0 = rec.now();
        let inst = rec.span("graph.build", id, || self.recipe.build());
        let starts = self.starts(&inst)?;
        let identity = rec.span("ident.identity", id, || {
            self.algo.identity(&inst, &self.config, &starts)
        });
        let run_start = rec.now();
        let report = self
            .algo
            .run_checkpointed(self.engine, &inst, &self.config, &spool)
            .map_err(|e| e.to_string())?;
        rec.close("checkpoint.run", id, run_start);
        let run_ms = (rec.now() - run_start) as f64 / 1e6;
        let payload = rec
            .span("checkpoint.read", id, || std::fs::read_to_string(&spool))
            .map_err(|e| e.to_string())?;
        rec.span("store.write", id, || store.store(&identity, &payload))
            .map_err(|e| e.to_string())?;
        let _ = std::fs::remove_file(&spool);
        let loaded = rec
            .span("store.read", id, || store.load(identity.sweep_id))
            .map_err(|e| e.to_string())?;
        let response = rec.span("framing.escape", id, || escape_reply(&loaded));
        let parsed = rec.span("framing.parse", id, || crate::serve::payload_of(&response))?;
        rec.close(REQUEST, id, t0);
        probe.response_bytes.push(response.len() as f64);
        tally.record(if report.is_complete() {
            check::same_bytes(&parsed, &payload)
        } else {
            Err("layer-pass sweep did not complete".to_string())
        });
        Ok((payload, run_ms))
    }

    /// The hit path for the entry [`Ctx::miss`] stored.
    fn hit(
        &self,
        rec: &mut Recorder,
        id: u64,
        store: &ResultStore,
        payload: &str,
        tally: &mut Tally,
    ) -> Result<(), String> {
        let t0 = rec.now();
        let inst = rec.span("graph.build", id, || self.recipe.build());
        let starts = self.starts(&inst)?;
        let identity = rec.span("ident.identity", id, || {
            self.algo.identity(&inst, &self.config, &starts)
        });
        let loaded = rec
            .span("store.read", id, || store.load(identity.sweep_id))
            .map_err(|e| e.to_string())?;
        let response = rec.span("framing.escape", id, || escape_reply(&loaded));
        let parsed = rec.span("framing.parse", id, || crate::serve::payload_of(&response))?;
        rec.close(REQUEST, id, t0);
        tally.record(check::same_bytes(&parsed, payload));
        Ok(())
    }

    /// Instance load, checkpoint codec and park-and-resume probes.
    fn probes(
        &self,
        rec: &mut Recorder,
        id: u64,
        payload: &str,
        run_ms: f64,
        probe: &mut Probe,
        tally: &mut Tally,
    ) -> Result<(), String> {
        let inst_path = self.dir.join("instance.vcinst");
        instance_store::save_instance(&self.recipe.build(), &inst_path)
            .map_err(|e| e.to_string())?;
        rec.span("graph.load", id, || {
            instance_store::load_instance(&inst_path)
        })
        .map_err(|e| e.to_string())?;

        let ckpt = rec.span("checkpoint.decode", id, || {
            SweepCheckpoint::from_json(payload)
        })?;
        let encoded = rec.span("checkpoint.encode", id, || ckpt.to_json());
        tally.record(check::same_bytes(&encoded, payload));
        probe.checkpoint_bytes.push(payload.len() as f64);

        // Park at half the chunks, then resume: the checkpoint-level cost
        // of one preemption, against the uninterrupted `checkpoint.run`.
        let inst = self.recipe.build();
        let path = self.dir.join("parked.ckpt.json");
        let _ = std::fs::remove_file(&path);
        let parked = self.engine.clone().with_chunk_quota(ckpt.num_chunks / 2);
        let start = rec.now();
        self.algo
            .run_checkpointed(&parked, &inst, &self.config, &path)
            .map_err(|e| e.to_string())?;
        rec.close("checkpoint.park", id, start);
        let resume = rec.now();
        self.algo
            .run_checkpointed(self.engine, &inst, &self.config, &path)
            .map_err(|e| e.to_string())?;
        rec.close("checkpoint.resume", id, resume);
        probe
            .resume_overhead_ms
            .push((rec.now() - start) as f64 / 1e6 - run_ms);
        let resumed = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
        let _ = std::fs::remove_file(&path);
        tally.record(check::same_bytes(&resumed, payload));
        Ok(())
    }
}

/// The `result` reply line the daemon writes.
fn escape_reply(payload: &str) -> String {
    format!(
        "{{\"ok\":true,\"payload\":\"{}\"}}",
        vc_json::escape(payload)
    )
}

/// Serial model pass: `run_from_with` over every start with one scratch.
fn model_probe(ctx: &Ctx, expected: Option<u128>, probe: &mut Probe, tally: &mut Tally) {
    fn pass<A: QueryAlgorithm>(inst: &Instance, algo: &A, config: &RunConfig) -> (u64, u128) {
        let starts = config.starts.starts(inst.n()).unwrap_or_default();
        let mut scratch = ExecScratch::new();
        let mut queries = 0u128;
        let sw = Stopwatch::start();
        for &root in &starts {
            let (out, rec) = run_from_with(inst, algo, root, config, &mut scratch);
            std::hint::black_box(out);
            queries += u128::from(rec.queries);
        }
        (sw.elapsed_nanos(), queries)
    }
    let inst = ctx.recipe.build();
    let (nanos, queries) = match ctx.algo {
        AlgorithmRef::LeafDistance => pass(&inst, &DistanceSolver, &ctx.config),
        AlgorithmRef::LeafRandomWalk { step_factor } => {
            pass(&inst, &RwToLeaf { step_factor }, &ctx.config)
        }
    };
    probe.queries = queries;
    probe.ns_per_query = if queries > 0 {
        nanos as f64 / queries as f64
    } else {
        0.0
    };
    if let Some(expected) = expected {
        tally.record(if queries == expected {
            Ok(())
        } else {
            Err(format!(
                "model pass made {queries} queries, expected {expected}"
            ))
        });
    }
}

/// One `run_all_traced::<SweepMetrics>` sweep of `algo`: whether it was
/// degraded, its metrics and its wall time in milliseconds.
fn traced_sweep(
    inst: &Instance,
    algo: AlgorithmRef,
    config: &RunConfig,
    threads: usize,
) -> Result<(bool, SweepMetrics, f64), String> {
    fn sweep<A>(
        inst: &Instance,
        algo: &A,
        config: &RunConfig,
        threads: usize,
    ) -> Result<(bool, SweepMetrics, f64), String>
    where
        A: QueryAlgorithm + Sync,
        A::Output: Send,
    {
        let sw = Stopwatch::start();
        let (report, metrics): (EngineReport<A::Output>, SweepMetrics) =
            Engine::with_threads(threads)
                .run_all_traced(inst, algo, config)
                .map_err(|e| e.to_string())?;
        Ok((report.degraded, metrics, ms(&sw)))
    }
    match algo {
        AlgorithmRef::LeafDistance => sweep(inst, &DistanceSolver, config, threads),
        AlgorithmRef::LeafRandomWalk { step_factor } => {
            sweep(inst, &RwToLeaf { step_factor }, config, threads)
        }
    }
}

/// 2- and 1-thread traced sweeps of the same instance, alternating.
fn engine_probe(ctx: &Ctx, probe: &mut Probe, tally: &mut Tally) {
    let inst = ctx.recipe.build();
    let sw = Stopwatch::start();
    let mut pairs = 0;
    while pairs < MIN_PAIRS || (pairs < MAX_PAIRS && sw.elapsed().as_secs_f64() < 1.0) {
        pairs += 1;
        for threads in [2, 1] {
            let (degraded, metrics, wall_ms) =
                match traced_sweep(&inst, ctx.algo, &ctx.config, threads) {
                    Ok(run) => run,
                    Err(e) => {
                        tally.record(Err(e));
                        continue;
                    }
                };
            tally.record(if degraded {
                Err("engine probe sweep degraded".to_string())
            } else {
                Ok(())
            });
            if threads == 1 {
                probe.sweep_1t_ms.push(wall_ms);
                continue;
            }
            let busy_ms = metrics.sched.chunk_nanos_total as f64 / 1e6;
            probe.sweep_2t_ms.push(wall_ms);
            probe.busy_sum_ms.push(busy_ms);
            probe
                .busy_max_ms
                .push(metrics.sched.chunk_nanos_max as f64 / 1e6);
            probe.idle_frac.push(1.0 - busy_ms / (2.0 * wall_ms));
        }
    }
}

/// Cost of recording one span, in milliseconds.
fn span_cost_ms() -> f64 {
    const N: u32 = 10_000;
    let mut scratch = Recorder::new();
    let sw = Stopwatch::start();
    for i in 0..N {
        scratch.span("probe", u64::from(i), || ());
    }
    ms(&sw) / f64::from(N)
}

fn metrics(log: &LoopLog, rec: &Recorder, probe: &Probe) -> Vec<Metric> {
    let self_ms = rec.self_times();
    let span = |name: &str| self_ms.get(name).map_or(0.0, |v| stats::median(v));
    let requests: Vec<f64> = rec
        .spans()
        .iter()
        .filter(|s| s.name == REQUEST)
        .map(|s| s.ms())
        .collect();
    let request_ids: std::collections::BTreeSet<u64> = rec
        .spans()
        .iter()
        .filter(|s| s.name == REQUEST)
        .map(|s| s.request)
        .collect();
    let spans_per_request = rec
        .spans()
        .iter()
        .filter(|s| request_ids.contains(&s.request))
        .count() as f64
        / requests.len().max(1) as f64;
    let stats = log.stats.unwrap_or_default();
    let per_batch = |count: u64| {
        if log.batches_total == 0 {
            0.0
        } else {
            count as f64 / log.batches_total as f64
        }
    };
    let sweep_2t = stats::median(&probe.sweep_2t_ms);
    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m("graph.load_ms", span("graph.load"), "ms"),
        m("graph.build_ms", span("graph.build"), "ms"),
        m("ident.identity_ms", span("ident.identity"), "ms"),
        m("model.ns_per_query", probe.ns_per_query, "ns"),
        m("model.queries", probe.queries as f64, "count"),
        m("engine.sweep_ms", sweep_2t, "ms"),
        m(
            "engine.chunk_busy_ms_sum",
            stats::median(&probe.busy_sum_ms),
            "ms",
        ),
        m(
            "engine.chunk_busy_ms_max",
            stats::median(&probe.busy_max_ms),
            "ms",
        ),
        m("engine.idle_frac", stats::median(&probe.idle_frac), "ratio"),
        m(
            "engine.speedup_2t",
            if sweep_2t > 0.0 {
                stats::median(&probe.sweep_1t_ms) / sweep_2t
            } else {
                0.0
            },
            "x",
        ),
        m("checkpoint.run_ms", span("checkpoint.run"), "ms"),
        m("checkpoint.encode_ms", span("checkpoint.encode"), "ms"),
        m("checkpoint.decode_ms", span("checkpoint.decode"), "ms"),
        m(
            "checkpoint.bytes",
            stats::median(&probe.checkpoint_bytes),
            "B",
        ),
        m("store.write_ms", span("store.write"), "ms"),
        m("store.read_ms", span("store.read"), "ms"),
        m("store.evictions", stats.evictions as f64, "count"),
        m("framing.escape_ms", span("framing.escape"), "ms"),
        m("framing.parse_ms", span("framing.parse"), "ms"),
        m(
            "framing.response_bytes",
            stats::median(&probe.response_bytes),
            "B",
        ),
        m("sched.queue_wait_ms", span("sched.queue_wait"), "ms"),
        m(
            "sched.preemptions_per_batch",
            per_batch(stats.preemptions),
            "count",
        ),
        m("sched.resumes_per_batch", per_batch(stats.resumes), "count"),
        m(
            "sched.resume_overhead_ms",
            stats::median(&probe.resume_overhead_ms),
            "ms",
        ),
        m(
            "sched.interactive_p90_ms",
            if log.lags_ms.is_empty() {
                0.0
            } else {
                stats::quantile(&log.latencies(), 0.9)
            },
            "ms",
        ),
        m("sched.unattributed_ms", span(REQUEST), "ms"),
        m(
            "loadgen.lag_p90_ms",
            stats::quantile(&log.lags_ms, 0.9),
            "ms",
        ),
        m("host.steal_frac", log.steal_frac, "ratio"),
        m("host.cores", host::cores() as f64, "count"),
        m("host.busy_threads", log.busy_threads, "threads"),
        m(
            "trace.overhead_frac",
            if requests.is_empty() {
                0.0
            } else {
                span_cost_ms() * spans_per_request / stats::median(&requests)
            },
            "ratio",
        ),
    ]
}
