//! `vc-serve`: a content-addressed sweep service.
//!
//! The bench and audit pipelines resubmit the same sweeps constantly —
//! every CI run, every parameter-sweep retry, every fleet splice check
//! re-executes work whose result is a pure function of the sweep's
//! content identity. This crate turns that identity into a service
//! boundary:
//!
//! * **Memoization** — every submission resolves to a
//!   [`vc_engine::SweepId`] via [`vc_engine::sweep_identity`], once per
//!   spec and process: an in-memory FIFO memo of the last 1,024 specs
//!   (priority cleared) answers a repeat with no instance build and no
//!   fold. Specs whose instance cannot be built are refused first
//!   ([`InstanceRef::check`]). Finished
//!   results live in a content-addressed on-disk store
//!   ([`store::ResultStore`]) keyed by that id: an entry is the sweep's
//!   sealed `vc-engine-checkpoint/v4` file, renamed in from the spool and
//!   served as it is. Loads are identity-checked in the same discipline
//!   as the `vc-instance/v1` graph store: the filename id must equal the
//!   header's, and the seal must match every byte before it.
//! * **One shared pool** — cache-miss jobs run on a single
//!   [`vc_engine::Engine`] worker pool behind a deterministic
//!   FIFO-with-priority queue ([`SweepService`]), instead of one engine
//!   per caller.
//! * **Checkpoint preemption** — a long batch sweep yields between its
//!   starts when an interactive job arrives: the service trips the run's
//!   [`vc_engine::CancelFlag`], the engine drops the chunks it cut short
//!   and writes the partial checkpoint exactly as a crashed run would,
//!   and the job is parked and later resumed from that checkpoint. The
//!   engine's existing kill-and-resume invariant makes the final
//!   checkpoint byte-identical to an uninterrupted run at any thread
//!   count.
//!
//! A dependency-free line-delimited JSON protocol over a local Unix
//! socket ([`server`]) exposes submit / poll / result / stats /
//! shutdown, and [`SweepService::report_json`] emits a
//! `vc-serve-report/v1` stats document (hits, misses, evictions,
//! preemptions, queue depths, and the job table: every live job and the
//! last [`MAX_FINISHED_JOBS`] finished ones, past which a job id is
//! unknown). That report is the service's only record of its scheduling:
//! hits, admissions, preemptions and resumes are counted in
//! [`ServeStats`] and kept per job in [`JobStatus`].

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod scheduler;
pub mod server;
pub mod spec;
pub mod store;

pub use scheduler::{
    JobState, JobStatus, ServeConfig, ServeError, ServeStats, Submission, SweepService,
    MAX_FINISHED_JOBS, REPORT_SCHEMA,
};
pub use server::{request, ServeDaemon};
pub use spec::{AlgorithmRef, InstanceRef, Priority, SpecError, SweepSpec, MAX_NODES};
pub use store::{ResultStore, StoreError};
