//! engine-det-large: `Engine::with_threads(2).run_all` of the
//! leaf-coloring `DistanceSolver` over the depth-17 complete binary tree,
//! every node a start. The `BENCH_engine.json` `det-large` row.
//!
//! The workload ignores the seed, so its counts are checked exactly
//! against the committed row. The harness thread blocks while the two
//! engine workers run, so at most two threads are busy.

use vc_core::problems::leaf_coloring::DistanceSolver;
use vc_engine::Engine;
use vc_graph::{gen, store, Color, Instance};
use vc_model::run::RunConfig;
use vc_serve::AlgorithmRef;

use crate::check::{self, SweepCounts, Tally, DET_LARGE};
use crate::host::{PhaseMeter, UnitClock};
use crate::layers::{LayerInputs, Recipe};
use crate::span::Recorder;
use crate::{LoopLog, Options};

/// Engine workers: the host has two cores and the harness thread blocks.
pub const THREADS: usize = 2;

/// The det-large run configuration.
fn config() -> RunConfig {
    RunConfig {
        exact_distance: false,
        ..RunConfig::default()
    }
}

/// The workload's instance.
pub fn instance(depth: u32) -> Instance {
    gen::complete_binary_tree(depth, Color::R, Color::B)
}

/// Runs set-up and the timed loop.
pub fn run(
    opts: &Options,
    tally: &mut Tally,
    rec: &mut Recorder,
) -> Result<(LoopLog, LayerInputs), String> {
    let depth = opts.sizes.det_depth;
    let dir = opts.fresh_dir("engine")?;
    let path = dir.join("det-large.vcinst");
    let config = config();
    // Input generation, before any set-up: the tree file the set-up loads.
    let expected = {
        let inst = instance(depth);
        store::save_instance(&inst, &path).map_err(|e| e.to_string())?;
        if depth == crate::Sizes::FULL.det_depth {
            DET_LARGE
        } else {
            let serial = Engine::with_threads(1)
                .run_all(&inst, &DistanceSolver, &config)
                .map_err(|e| e.to_string())?;
            SweepCounts::of(&serial)
        }
    };
    let engine = Engine::with_threads(THREADS);
    let mut log = LoopLog {
        starts_per_unit: expected.runs,
        ..LoopLog::default()
    };

    // Each set-up loads the instance; the warm-up sweep runs once, after
    // them and outside their clocks: at ~1.2 s a sweep would drown the
    // load's ~50 ms, and it varies with the host far more than the load.
    let mut inst = None;
    for _ in 0..opts.sizes.quick_setup_reps {
        // The previous set-up's instance goes first, as a fresh process's would.
        drop(inst.take());
        let clock = UnitClock::start();
        let loaded = store::load_instance(&path).map_err(|e| e.to_string())?;
        log.setups.push(clock.lap());
        inst = Some(loaded);
    }
    let inst = inst.ok_or("no set-up ran")?;
    let warm = engine.run_all(&inst, &DistanceSolver, &config);
    tally.record(
        warm.map_err(|e| e.to_string())
            .and_then(|r| check::sweep_counts(&r, &expected)),
    );

    let meter = PhaseMeter::start();
    let mut sweep = 0u64;
    while meter.clock().elapsed() < opts.seconds || sweep == 0 {
        sweep += 1;
        let start = rec.now();
        let clock = UnitClock::start();
        let report = engine.run_all(&inst, &DistanceSolver, &config);
        let unit = clock.lap();
        rec.close("engine.sweep", sweep, start);
        let checked = report
            .map_err(|e| e.to_string())
            .and_then(|r| check::sweep_counts(&r, &expected));
        if checked.is_ok() {
            log.push(unit);
        }
        tally.record(checked);
    }
    meter.finish(&mut log);
    crate::remove_dir(&dir);
    Ok((
        log,
        LayerInputs {
            sweeps: vec![(
                Recipe::CompleteTree(depth),
                AlgorithmRef::LeafDistance,
                config,
            )],
            threads: THREADS,
            expected_queries: Some(expected.total_queries),
        },
    ))
}
