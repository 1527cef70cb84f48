#![warn(missing_docs)]
//! # eco-batch — manifest-driven batch orchestration with a cross-job memo cache
//!
//! Runs many ECO jobs from a declarative manifest (a TOML or JSON list of
//! `{faulty, golden, weights, targets, budget}` entries) over one global
//! scoped-thread worker pool that steals work at *job* granularity: a
//! worker that finishes one instance immediately pulls the next, whatever
//! job it belongs to, so a long job never serializes the batch behind it.
//!
//! At the core sits the shared [`eco_core::MemoCache`]: a sharded,
//! lock-striped concurrent map keyed by dual 128-bit structural
//! fingerprints that memoizes complete verified results, so structurally
//! identical instances across jobs are solved once. Cached results are
//! always re-verified with a fresh SAT miter before being reported, and
//! cache hits never change results — only wall time (see the
//! `eco_core::memo` module docs for the determinism argument).
//!
//! The run-wide governor budget ([`BatchOptions::budget`]) is apportioned
//! across jobs with [`eco_core::Budget::child`]: every job shares the
//! deadline while conflict allowances are divided, so a starved batch
//! degrades to per-job `Complete | Partial` records instead of dying.
//!
//! Results stream as JSONL — one line per completed job, emitted in
//! deterministic `(pass, job)` order regardless of `--jobs` — via
//! [`report`].
//!
//! With [`BatchOptions::journal`] set, the run is crash-safe: it opens
//! an [`eco_core::StateDir`] (durable memo store plus `batch.wal`),
//! journals each job before it runs and its JSONL record after, keyed by
//! [`job_fingerprint`], and [`BatchOptions::resume`] replays the done
//! records of a killed run verbatim. Persistence failures are counted in
//! [`BatchOutcome::persist_errors`], never fatal.
//!
//! # Examples
//!
//! ```
//! use eco_batch::{run_batch, BatchJob, BatchOptions, JobStatus};
//! use eco_core::EcoInstance;
//! use eco_netlist::{parse_verilog, WeightTable};
//!
//! let faulty = parse_verilog(
//!     "module f (a, b, c, t, y); input a, b, c, t; output y;
//!      xor g1 (y, t, c); endmodule",
//! )?;
//! let golden = parse_verilog(
//!     "module g (a, b, c, y); input a, b, c; output y;
//!      wire w; and g1 (w, a, b); xor g2 (y, w, c); endmodule",
//! )?;
//! let inst = EcoInstance::from_netlists(
//!     "demo", &faulty, &golden, vec!["t".into()], &WeightTable::new(1),
//! )?;
//! // Two structurally identical jobs on one worker: the second hits the
//! // memo cache. (Concurrent workers could both miss, since the cache
//! // stores results only once a job has computed them.)
//! let jobs = vec![
//!     BatchJob::from_instance("one", inst.clone()),
//!     BatchJob::from_instance("two", inst),
//! ];
//! let opts = BatchOptions {
//!     jobs: 1,
//!     ..Default::default()
//! };
//! let outcome = run_batch(&jobs, &opts);
//! assert!(outcome
//!     .records
//!     .iter()
//!     .all(|r| r.status == JobStatus::Complete));
//! assert!(outcome.memo.hits > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod json;
mod manifest;
pub mod report;
mod runner;

pub use crate::manifest::{job_spec_from_json, JobSpec, Manifest, ManifestError};
pub use crate::report::{exit_code, record_from_json, record_json, records_jsonl, stats_json};
pub use crate::runner::{
    execute_job, job_budget, job_fingerprint, load_job_instance, load_jobs, panic_record,
    run_batch, BatchJob, BatchOptions, BatchOutcome, JobRecord, JobStatus,
};
