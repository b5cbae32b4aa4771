//! [`FleetReport`]: the loud, machine-readable ledger of a supervised
//! fleet run.
//!
//! The chaos drill's acceptance bar is that the report *accounts for
//! every injected death and reassignment*: each launch, suspicion,
//! failed exit, reassignment and abandonment a [`Supervisor`] run
//! performs lands in exactly one counter here. The JSON form
//! (`vc-fleet-report/v1`) is written by the `vc-json` writer and
//! validated in CI with its parser.
//!
//! [`Supervisor`]: crate::Supervisor

use vc_json::{obj, Json};

/// Schema identifier written into every serialized fleet report.
pub const FLEET_REPORT_SCHEMA: &str = "vc-fleet-report/v1";

/// Per-worker-slot accounting. Recovery launches are attributed to the
/// slot whose death they repair, so one slot can accumulate several
/// launches.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WorkerReport {
    /// Launches started on this slot (1 for an untroubled worker).
    pub launches: u32,
    /// Launches on this slot killed by the liveness deadline.
    pub suspected: u32,
    /// Launches on this slot that exited without completing their claim
    /// (crashes and clean-but-incomplete exits alike).
    pub failed: u32,
    /// Chunks this slot's launches contributed to the final merge.
    pub completed_chunks: usize,
}

/// The full ledger of one supervised fleet run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FleetReport {
    /// Total chunks in the sweep's plan.
    pub num_chunks: usize,
    /// Total launches across all slots (initial workers + recoveries).
    pub launches: u32,
    /// Workers declared dead by the liveness deadline (sum of the
    /// per-slot `suspected` counters).
    pub suspected: u32,
    /// Chunk reassignment events: one per chunk per recovery launch
    /// asked to run it.
    pub reassigned: u32,
    /// Chunks that exhausted their launch cap and were abandoned,
    /// ascending. Non-empty exactly when [`FleetReport::degraded`].
    pub abandoned_chunks: Vec<usize>,
    /// Per-chunk launch counts: how many launches were asked to run
    /// each chunk (1 everywhere for an untroubled fleet).
    pub chunk_attempts: Vec<u32>,
    /// Per-slot accounting, indexed by worker slot.
    pub workers: Vec<WorkerReport>,
    /// Whether the merged checkpoint is incomplete (chunks abandoned).
    pub degraded: bool,
}

impl FleetReport {
    /// Total worker deaths the supervisor handled: deadline suspicions
    /// plus incomplete exits.
    pub fn deaths(&self) -> u32 {
        self.workers.iter().map(|w| w.suspected + w.failed).sum()
    }

    /// Serializes the report as a `vc-fleet-report/v1` JSON document —
    /// a pure function of the report state.
    pub fn to_json(&self) -> String {
        vc_json::document(&obj! {
            "schema": FLEET_REPORT_SCHEMA, "num_chunks": self.num_chunks,
            "launches": self.launches, "suspected": self.suspected,
            "reassigned": self.reassigned, "deaths": self.deaths(), "degraded": self.degraded,
            "abandoned_chunks": Json::arr(self.abandoned_chunks.clone()),
            "chunk_attempts": Json::arr(self.chunk_attempts.clone()),
            "workers": Json::arr(self.workers.iter().enumerate().map(|(w, r)| obj! {
                "worker": w, "launches": r.launches, "suspected": r.suspected,
                "failed": r.failed, "completed_chunks": r.completed_chunks,
            })),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FleetReport {
        FleetReport {
            num_chunks: 6,
            launches: 5,
            suspected: 1,
            reassigned: 3,
            abandoned_chunks: vec![4],
            chunk_attempts: vec![1, 1, 2, 2, 3, 1],
            workers: vec![
                WorkerReport {
                    launches: 1,
                    suspected: 0,
                    failed: 0,
                    completed_chunks: 2,
                },
                WorkerReport {
                    launches: 2,
                    suspected: 1,
                    failed: 1,
                    completed_chunks: 3,
                },
            ],
            degraded: true,
        }
    }

    #[test]
    fn deaths_sum_suspicions_and_failed_exits() {
        assert_eq!(sample().deaths(), 2);
        assert_eq!(FleetReport::default().deaths(), 0);
    }

    #[test]
    fn report_json_is_parseable_and_faithful() {
        let report = sample();
        let head = "{\n  \"schema\": \"vc-fleet-report/v1\",\n  \"num_chunks\": 6,\n  \
                    \"launches\": 5,\n  \"suspected\": 1,\n  \"reassigned\": 3,\n  \
                    \"deaths\": 2,\n  ";
        let tail = "\"chunk_attempts\": [1, 1, 2, 2, 3, 1],\n  \"workers\": [\n    \
                    {\"worker\": 0, \"launches\": 1, \"suspected\": 0, \"failed\": 0, \
                    \"completed_chunks\": 2},\n    {\"worker\": 1, \"launches\": 2, \
                    \"suspected\": 1, \"failed\": 1, \"completed_chunks\": 3}\n  ]\n}\n";
        let whole = FleetReport {
            abandoned_chunks: Vec::new(),
            degraded: false,
            ..sample()
        };
        for (r, middle) in [
            (
                &report,
                "\"degraded\": true,\n  \"abandoned_chunks\": [4],\n  ",
            ),
            (
                &whole,
                "\"degraded\": false,\n  \"abandoned_chunks\": [],\n  ",
            ),
        ] {
            assert_eq!(r.to_json(), format!("{head}{middle}{tail}"));
        }
        let doc = vc_json::parse(&report.to_json()).unwrap();
        assert_eq!(
            doc.get("schema").and_then(vc_json::Value::as_str),
            Some(FLEET_REPORT_SCHEMA)
        );
        assert_eq!(
            doc.get("launches").and_then(vc_json::Value::as_u64),
            Some(5)
        );
        assert_eq!(doc.get("deaths").and_then(vc_json::Value::as_u64), Some(2));
        assert_eq!(
            doc.get("abandoned_chunks")
                .and_then(vc_json::Value::as_arr)
                .map(<[_]>::len),
            Some(1)
        );
        assert_eq!(
            doc.get("chunk_attempts")
                .and_then(vc_json::Value::as_arr)
                .map(<[_]>::len),
            Some(6)
        );
        let workers = doc.get("workers").and_then(vc_json::Value::as_arr).unwrap();
        assert_eq!(workers.len(), 2);
        assert_eq!(
            workers[1].get("suspected").and_then(vc_json::Value::as_u64),
            Some(1)
        );
    }
}
