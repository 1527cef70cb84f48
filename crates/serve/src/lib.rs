#![warn(missing_docs)]
//! # eco-serve — the persistent ECO daemon with an always-warm memo cache
//!
//! A long-lived service wrapping the `eco-batch` execution core: jobs
//! arrive as line-delimited JSON over a unix socket (or stdin for tests
//! and pipelines), run on a bounded worker pool, and share one
//! process-lifetime [`eco_core::MemoCache`] — so the cache that a batch
//! run throws away at exit stays warm here across requests, connections,
//! and clients. A structurally repeated instance is answered from memo
//! in microseconds instead of a full engine run (cached patches are
//! still SAT re-verified; see `eco_core::memo` for the determinism
//! argument).
//!
//! The moving parts:
//!
//! * [`proto`] — the JSONL wire protocol (`run` / `ping` / `stats` /
//!   `shutdown`) with typed refusals (`busy`, `draining`,
//!   `bad-request`).
//! * [`server`] — admission control over a bounded queue that sheds
//!   overflow with `busy`, per-request [`eco_core::Budget`]
//!   apportionment, per-connection response sequencing (responses in
//!   request order ⇒ byte-identical streams for any worker count),
//!   graceful drain, and crash safety: with
//!   [`ServeOptions::state_dir`] the daemon opens an
//!   [`eco_core::StateDir`] (durable memo store plus `requests.wal`,
//!   keyed by [`request_fingerprint`]) and
//!   [`Server::resume_from_journal`] replays a crashed daemon's journal.
//! * [`client`] — the synchronous replay client with round-trip latency
//!   percentiles.
//! * [`signal`] — SIGTERM/SIGINT → drain flag (the workspace's only
//!   `unsafe`, a single libc `signal()` call).
//!
//! # Examples
//!
//! Serving an in-memory stream (the stdio transport drives stdin/stdout
//! the same way):
//!
//! ```
//! use eco_serve::{ServeOptions, Server};
//! use std::io::Cursor;
//!
//! let server = Server::new(ServeOptions::default());
//! let input = "{\"op\": \"ping\", \"id\": 1}\n{\"op\": \"shutdown\", \"id\": 2}\n";
//! let summary = server.serve_reader(Cursor::new(input), Box::new(Vec::new()));
//! assert_eq!(summary.served, 0); // inline ops don't touch the job pool
//! assert!(server.is_draining()); // shutdown latched the drain
//! ```

pub mod client;
pub mod proto;
mod queue;
pub mod server;
#[cfg(unix)]
pub mod signal;

pub use client::{
    percentile_us, retry_backoff, run_client, send_period, timing_json, ClientOptions,
    ClientSummary,
};
pub use server::{
    request_fingerprint, resume_report_json, summary_json, ResumeReport, ServeOptions,
    ServeSummary, Server,
};
