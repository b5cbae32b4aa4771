//! Output checks. Each check returns why an output is wrong; [`Tally`]
//! counts a wrong output as a failed operation. Checks run between timed
//! units or after the timed phase, never inside a timed interval.

use vc_engine::{EngineReport, SweepCheckpoint};
use vc_serve::ServeStats;

/// Operations attempted and failed in one run.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// Operations attempted (warm-ups included).
    pub attempted: u64,
    /// Operations whose output failed its check, or that errored.
    pub failed: u64,
    /// The first failure, for the log.
    pub first_error: Option<String>,
}

impl Tally {
    /// Counts one operation with its check outcome.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            if self.first_error.is_none() {
                eprintln!("vcbench: check failed: {e}");
                self.first_error = Some(e);
            }
        }
    }
}

/// The counts a det-large sweep must reproduce.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SweepCounts {
    /// Executions.
    pub runs: usize,
    /// Queries over all executions.
    pub total_queries: u128,
    /// Largest volume of one execution.
    pub max_volume: usize,
    /// Executions that hit a budget.
    pub incomplete: usize,
}

/// The committed `leaf-coloring/det-large` row of `BENCH_engine.json`.
pub const DET_LARGE: SweepCounts = SweepCounts {
    runs: 262_143,
    total_queries: 12_582_918,
    max_volume: 262_143,
    incomplete: 0,
};

impl SweepCounts {
    /// The counts of an engine report.
    pub fn of<O>(report: &EngineReport<O>) -> Self {
        Self {
            runs: report.summary.runs,
            total_queries: report.total_queries,
            max_volume: report.summary.max_volume,
            incomplete: report.summary.incomplete,
        }
    }
}

/// engine-det-large: the sweep's counts equal the expected row.
pub fn sweep_counts<O>(report: &EngineReport<O>, expected: &SweepCounts) -> Result<(), String> {
    let got = SweepCounts::of(report);
    if report.degraded || got != *expected {
        return Err(format!(
            "det-large sweep counts {got:?} (degraded: {}), expected {expected:?}",
            report.degraded
        ));
    }
    Ok(())
}

/// serve-miss: the payload decodes as a complete
/// `vc-engine-checkpoint/v2` of the sweep the submit reply named.
pub fn complete_checkpoint(payload: &str, sweep_id: &str) -> Result<(), String> {
    let ckpt = SweepCheckpoint::from_json(payload).map_err(|e| format!("payload: {e}"))?;
    if !ckpt.is_complete() {
        return Err(format!(
            "payload holds {} of {} chunks",
            ckpt.completed_chunks(),
            ckpt.num_chunks
        ));
    }
    let id = ckpt.identity.sweep_id.to_string();
    if id != sweep_id {
        return Err(format!(
            "payload is sweep {id}, submit reply named {sweep_id}"
        ));
    }
    Ok(())
}

/// serve-hit: the reply was a cache hit and the payload is byte-identical
/// to the one captured when the entry was stored.
pub fn cached_payload(cache_hit: bool, payload: &str, captured: &str) -> Result<(), String> {
    if !cache_hit {
        return Err("resubmitted spec was not a cache hit".to_string());
    }
    same_bytes(payload, captured)
}

/// serve-preempt: a batch payload is byte-identical to an uninterrupted
/// run of the same spec.
pub fn same_bytes(payload: &str, reference: &str) -> Result<(), String> {
    if payload.as_bytes() == reference.as_bytes() {
        return Ok(());
    }
    let at = payload
        .bytes()
        .zip(reference.bytes())
        .position(|(a, b)| a != b)
        .unwrap_or(payload.len().min(reference.len()));
    Err(format!(
        "payload differs from the reference at byte {at} ({} vs {} bytes)",
        payload.len(),
        reference.len()
    ))
}

/// serve-preempt: the cycle parked its batch and resumed it, going by the
/// service's counters before and after the cycle. A cycle without both
/// measured another path than the one serve-preempt exists for.
pub fn preempted(before: &ServeStats, after: &ServeStats) -> Result<(), String> {
    let parks = after.preemptions.saturating_sub(before.preemptions);
    let resumes = after.resumes.saturating_sub(before.resumes);
    if parks == 0 || resumes == 0 {
        return Err(format!(
            "cycle did not park and resume its batch ({parks} preemptions, {resumes} resumes)"
        ));
    }
    Ok(())
}
