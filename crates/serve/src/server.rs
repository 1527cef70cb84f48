//! The daemon core: admission control, the worker pool, response
//! sequencing, and graceful drain.
//!
//! A [`Server`] owns one process-lifetime [`MemoCache`] shared by every
//! request it ever serves — the "always-warm" property: a structurally
//! identical job arriving minutes later hits the cache that the first
//! occurrence filled, across connections and across clients.
//!
//! # Architecture
//!
//! ```text
//!  conn readers ──try_push──▶ BoundedQueue ──pop──▶ worker pool
//!   (1/conn)        │ Full → "busy"                  (N threads)
//!                   │ Closed → "draining"              │ execute_job
//!                   ▼                                  ▼
//!            refusal via ConnOut  ◀──seq-ordered── run response
//! ```
//!
//! * **Admission control** — run requests go through a
//!   [`BoundedQueue`]: beyond capacity the push comes straight back and
//!   the client gets a typed `busy` refusal instead of unbounded queue
//!   growth; after drain starts the queue is closed and refusals say
//!   `draining`.
//! * **Determinism** — each connection's responses pass through a
//!   sequencer ([`ConnOut`]) that writes them in *request* order no
//!   matter which worker finishes first, and run responses carry only
//!   scheduling-independent record fields, so a replayed request stream
//!   produces byte-identical response bytes for any worker count.
//! * **Graceful drain** — a `shutdown` request (or SIGTERM via the
//!   caller's flag, or stdin EOF in stdio mode) latches the draining
//!   flag: the accept loop stops taking connections, the queue closes
//!   (new pushes refused, admitted jobs still pop), workers finish
//!   in-flight work, and the scope join guarantees every admitted job's
//!   response was written before the daemon exits.
//! * **Panic containment** — a panicking job becomes one `error`-status
//!   run response; the worker thread survives. Combined with the
//!   poison-recovering locks of the queue, the sequencer and
//!   `eco_core::memo`, no single poisoned request can abort the daemon.

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use eco_aig::FpHasher;
use eco_batch::{execute_job, job_budget, load_job_instance, panic_record, JobRecord, JobSpec};
use eco_core::{
    faultpoint, render_counters, resolve_workers, Budget, BudgetOptions, EcoOptions, Journal,
    JsonObj, MemoCache, MemoStats, StateDir, QUARANTINE_AFTER, REQUESTS_WAL,
};

use crate::proto::{self, Request};
use crate::queue::{lock_recovering, BoundedQueue, PushError};
use eco_batch::json;

/// How often blocked unix-socket reads and the accept loop re-check the
/// draining flag.
const READ_POLL: Duration = Duration::from_millis(100);
const ACCEPT_POLL: Duration = Duration::from_millis(25);

/// Knobs for a daemon instance.
#[derive(Clone, Debug, Default)]
pub struct ServeOptions {
    /// Worker threads popping the admission queue; `0` = one per core.
    pub workers: usize,
    /// Admission-queue capacity; pushes beyond it are shed with `busy`
    /// (`0` = the default of 64).
    pub queue_capacity: usize,
    /// Per-request governor budget. The clock starts when the job is
    /// dequeued, and a request's own `budget` field tightens the
    /// conflict allowance via [`Budget::child`]. Leave unlimited for the
    /// memo cache to be consulted (governed runs bypass it).
    pub request_budget: BudgetOptions,
    /// Durable state directory (memo snapshot + journal, request WAL).
    /// `None` = in-memory only, the pre-durability behavior.
    pub state_dir: Option<PathBuf>,
}

/// What a serve run did, for the operator's exit summary.
#[derive(Clone, Debug)]
pub struct ServeSummary {
    /// Run jobs executed to a response (including error records).
    pub served: u64,
    /// Run requests shed with a `busy` refusal.
    pub busy: u64,
    /// Run requests refused because the daemon was draining.
    pub refused_draining: u64,
    /// Lines answered with `bad-request`.
    pub bad_requests: u64,
    /// Final shared-cache counters.
    pub memo: MemoStats,
    /// Worker threads used.
    pub workers: usize,
    /// Worker threads restarted by the supervisor after an escaped
    /// panic.
    pub worker_restarts: u64,
    /// Memo entries loaded from the durable store at startup (warm
    /// restart).
    pub memo_loaded: u64,
    /// Journal/store records appended this run.
    pub journal_appended: u64,
    /// Persistence failures: state that failed to open, records a load
    /// skipped, appends and checkpoints that failed (durability
    /// degraded; serving continued).
    pub persist_errors: u64,
    /// Wall-clock time the serve loop ran.
    pub wall: Duration,
}

impl ServeSummary {
    /// Every service counter as `(key, value)`, in output order: the
    /// exit summary and the live `stats` response both render this list.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("served", self.served),
            ("busy", self.busy),
            ("refused_draining", self.refused_draining),
            ("bad_requests", self.bad_requests),
            ("workers", self.workers as u64),
            ("worker_restarts", self.worker_restarts),
            ("memo_loaded", self.memo_loaded),
            ("journal_appended", self.journal_appended),
            ("persist_errors", self.persist_errors),
        ]
    }
}

/// Renders a [`ServeSummary`] as one JSON object (the daemon's exit
/// report on stderr under `--stats`).
pub fn summary_json(s: &ServeSummary) -> String {
    JsonObj::new()
        .counters(&s.counters())
        .raw("wall_s", &format!("{:.6}", s.wall.as_secs_f64()))
        .raw("memo", &render_counters(&s.memo.fields(), true))
        .build()
}

/// What a `--resume` replay recovered (see
/// [`Server::resume_from_journal`]).
#[derive(Clone, Debug, Default)]
pub struct ResumeReport {
    /// Completed responses replayed verbatim from the journal.
    pub replayed: u64,
    /// Unfinished admitted jobs re-executed to a fresh response.
    pub recomputed: u64,
    /// Jobs refused with `quarantined` after too many failed attempts.
    pub quarantined: u64,
    /// Admitted lines that no longer parse as run requests (skipped).
    pub skipped: u64,
    /// Intact journal records read.
    pub journal_records: u64,
    /// Torn/corrupt frames and undecodable payloads discarded.
    pub journal_skipped: u64,
    /// Wall-clock time of the replay.
    pub wall: Duration,
}

/// Renders a [`ResumeReport`] as one JSON object (the daemon's resume
/// line on stderr).
pub fn resume_report_json(r: &ResumeReport) -> String {
    JsonObj::new()
        .u64("replayed", r.replayed)
        .u64("recomputed", r.recomputed)
        .u64("quarantined", r.quarantined)
        .u64("skipped", r.skipped)
        .u64("journal_records", r.journal_records)
        .u64("journal_skipped", r.journal_skipped)
        .raw("wall_s", &format!("{:.6}", r.wall.as_secs_f64()))
        .build()
}

/// Fingerprint of one request line (trimmed): the `requests.wal` key.
/// The line includes the client-chosen `id`, so two submissions of the
/// same job under different ids are distinct journal entries — each
/// client gets its answer.
pub fn request_fingerprint(line: &str) -> u128 {
    let mut h = FpHasher::new();
    h.word(0x5e59_4a1d); // domain tag: serve request-journal fingerprints
    h.str(line.trim());
    h.finish().0
}

/// Per-connection response sequencer. Workers finish in any order, but
/// responses are written strictly in request (sequence) order: an
/// out-of-order response parks in `pending` until its predecessors
/// flush. This is what makes a serve session's response bytes identical
/// for any worker count.
pub(crate) struct ConnOut {
    inner: Mutex<SeqState>,
}

struct SeqState {
    next: u64,
    pending: BTreeMap<u64, String>,
    sink: Box<dyn Write + Send>,
}

impl ConnOut {
    fn new(sink: Box<dyn Write + Send>) -> Self {
        ConnOut {
            inner: Mutex::new(SeqState {
                next: 0,
                pending: BTreeMap::new(),
                sink,
            }),
        }
    }

    /// Queues response line `seq` and flushes every contiguous response
    /// from `next` upward. Write errors are ignored (the client is
    /// gone); sequencing state still advances so the session drains.
    fn send(&self, seq: u64, line: String) {
        let mut guard = lock_recovering(&self.inner);
        let state = &mut *guard;
        state.pending.insert(seq, line);
        while let Some(line) = state.pending.remove(&state.next) {
            state.next += 1;
            let _ = writeln!(state.sink, "{line}");
        }
        let _ = state.sink.flush();
    }
}

/// A run request admitted to the worker queue.
struct QueuedJob {
    conn: Arc<ConnOut>,
    seq: u64,
    id: json::Value,
    spec: JobSpec,
    /// Journal key, when a request journal is attached.
    fp: Option<u128>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum LineOutcome {
    Continue,
    Shutdown,
}

/// The daemon: one shared memo cache, one draining flag, and the
/// counters behind `stats` responses. Serve loops ([`Server::serve_unix`],
/// [`Server::serve_reader`]) borrow it; the cache outlives them all, so
/// a second serve loop on the same `Server` starts warm.
pub struct Server {
    opts: ServeOptions,
    workers: usize,
    cache: Arc<MemoCache>,
    state: Option<StateDir>,
    draining: AtomicBool,
    served: AtomicU64,
    busy: AtomicU64,
    refused_draining: AtomicU64,
    bad_requests: AtomicU64,
    worker_restarts: AtomicU64,
}

impl Server {
    /// A daemon with a process-lifetime memo cache. With
    /// [`ServeOptions::state_dir`] set, the cache is pre-warmed from the
    /// durable memo store and every insertion is journaled; a part of
    /// the state directory that fails to open degrades to in-memory
    /// serving (counted in `persist_errors`, the error kept in
    /// [`Server::state_error`]) — availability over durability.
    pub fn new(opts: ServeOptions) -> Self {
        let workers = resolve_workers(opts.workers);
        let cache = Arc::new(MemoCache::new());
        let state = opts
            .state_dir
            .as_deref()
            .map(|dir| StateDir::open(dir, REQUESTS_WAL, &cache));
        Server {
            opts,
            workers,
            cache,
            state,
            draining: AtomicBool::new(false),
            served: AtomicU64::new(0),
            busy: AtomicU64::new(0),
            refused_draining: AtomicU64::new(0),
            bad_requests: AtomicU64::new(0),
            worker_restarts: AtomicU64::new(0),
        }
    }

    /// Why the durable state failed to open, if it did (the daemon is
    /// serving without it).
    pub fn state_error(&self) -> Option<&str> {
        self.state.as_ref().and_then(StateDir::open_error)
    }

    /// The request journal, when a state directory opened one.
    fn journal(&self) -> Option<&Journal> {
        self.state.as_ref().and_then(StateDir::journal)
    }

    fn queue_capacity(&self) -> usize {
        if self.opts.queue_capacity != 0 {
            self.opts.queue_capacity
        } else {
            64
        }
    }

    /// `true` once drain has begun (no new run requests are admitted).
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Relaxed)
    }

    /// Latches the draining flag: in-flight and already-admitted jobs
    /// finish, new run requests are refused with `draining`.
    pub fn request_drain(&self) {
        self.draining.store(true, Ordering::Relaxed);
    }

    /// Current counters: the exit summary, and (with a zero `wall`) what
    /// a `stats` response reports.
    fn summary(&self, wall: Duration) -> ServeSummary {
        let state = self.state.as_ref();
        ServeSummary {
            served: self.served.load(Ordering::Relaxed),
            busy: self.busy.load(Ordering::Relaxed),
            refused_draining: self.refused_draining.load(Ordering::Relaxed),
            bad_requests: self.bad_requests.load(Ordering::Relaxed),
            memo: self.cache.stats(),
            workers: self.workers,
            worker_restarts: self.worker_restarts.load(Ordering::Relaxed),
            memo_loaded: state.map_or(0, StateDir::memo_loaded),
            journal_appended: state.map_or(0, StateDir::appended),
            persist_errors: state.map_or(0, StateDir::persist_errors),
            wall,
        }
    }

    /// Handles one request line: inline ops (`ping`, `stats`,
    /// `shutdown`, refusals) respond immediately through the sequencer;
    /// `run` is pushed to the admission queue for a worker.
    fn handle_line(
        &self,
        line: &str,
        seq: u64,
        conn: &Arc<ConnOut>,
        queue: &BoundedQueue<QueuedJob>,
    ) -> LineOutcome {
        match proto::parse_request(line) {
            Err(msg) => {
                self.bad_requests.fetch_add(1, Ordering::Relaxed);
                conn.send(seq, proto::refusal(&json::Value::Null, "bad-request", &msg));
                LineOutcome::Continue
            }
            Ok(Request::Ping { id }) => {
                conn.send(seq, proto::ping_response(&id));
                LineOutcome::Continue
            }
            Ok(Request::Stats { id }) => {
                let summary = self.summary(Duration::ZERO);
                conn.send(seq, proto::stats_response(&id, &summary, queue.len()));
                LineOutcome::Continue
            }
            Ok(Request::Shutdown { id }) => {
                self.request_drain();
                // The ack is sequenced behind every earlier response of
                // this connection: when the client reads it, all of its
                // admitted work is done.
                conn.send(seq, proto::shutdown_response(&id));
                LineOutcome::Shutdown
            }
            Ok(Request::Run { id, spec }) => {
                if self.is_draining() {
                    self.refused_draining.fetch_add(1, Ordering::Relaxed);
                    conn.send(
                        seq,
                        proto::refusal(&id, "draining", "daemon is draining; no new work"),
                    );
                    return LineOutcome::Continue;
                }
                // Chaos site `queue.admit`: an injected shed takes the
                // same typed-busy path an overloaded queue would.
                if faultpoint::should_fail("queue.admit") {
                    self.busy.fetch_add(1, Ordering::Relaxed);
                    conn.send(
                        seq,
                        proto::refusal(&id, "busy", "chaos: injected admission shed"),
                    );
                    return LineOutcome::Continue;
                }
                // Write-ahead: the admit record lands before the job can
                // run, so a crash never loses an admitted request.
                let fp = self.journal().map(|journal| {
                    let fp = request_fingerprint(line);
                    journal.admit(fp, line);
                    fp
                });
                let job = QueuedJob {
                    conn: Arc::clone(conn),
                    seq,
                    id,
                    spec,
                    fp,
                };
                match queue.try_push(job) {
                    Ok(()) => {}
                    Err((job, PushError::Full)) => {
                        self.busy.fetch_add(1, Ordering::Relaxed);
                        self.journal_refused(job.fp);
                        let detail =
                            format!("admission queue full ({} jobs)", self.queue_capacity());
                        job.conn
                            .send(job.seq, proto::refusal(&job.id, "busy", &detail));
                    }
                    Err((job, PushError::Closed)) => {
                        self.refused_draining.fetch_add(1, Ordering::Relaxed);
                        self.journal_refused(job.fp);
                        job.conn.send(
                            job.seq,
                            proto::refusal(&job.id, "draining", "daemon is draining; no new work"),
                        );
                    }
                }
                LineOutcome::Continue
            }
        }
    }

    /// Appends a refused record for an admitted-then-shed request, so a
    /// resume does not re-execute work whose client got a typed refusal.
    fn journal_refused(&self, fp: Option<u128>) {
        if let (Some(journal), Some(fp)) = (self.journal(), fp) {
            journal.refused(fp);
        }
    }

    /// Executes one job spec to a record — the shared core of the worker
    /// loop and the resume replay. The job gets a fresh per-request
    /// [`Budget`] (clock starts now) tightened by the request's own
    /// allowance via [`Budget::child`] — the batch runner's
    /// apportioning, at request granularity. A panicking job becomes one
    /// `error` record.
    fn run_spec(&self, spec: &JobSpec) -> JobRecord {
        let budget = job_budget(
            &Budget::new(&self.opts.request_budget),
            self.opts.request_budget.cluster_conflicts,
            spec.budget,
        );
        catch_unwind(AssertUnwindSafe(|| {
            #[cfg(test)]
            test_panic_injection(spec);
            let source = load_job_instance(spec);
            execute_job(
                &spec.name,
                &source,
                &EcoOptions::default(),
                &budget,
                &self.cache,
            )
        }))
        .unwrap_or_else(|_| panic_record(&spec.name))
    }

    /// One worker: pop admitted jobs until the queue closes and drains.
    /// The response line is journaled *before* it is written to the
    /// client, so every response a client ever saw survives a crash.
    fn worker_loop(&self, queue: &BoundedQueue<QueuedJob>) {
        while let Some(job) = queue.pop() {
            // The job's chaos consults draw from the scope of its position
            // in its stream, not from its file paths, so a rerun of a
            // stream over fresh copies of its files draws alike.
            let response = faultpoint::scoped(u128::from(job.seq), || {
                // Chaos site `worker.stall`: a bounded sleep that reorders
                // worker scheduling without changing any response bytes.
                faultpoint::stall("worker.stall", Duration::from_millis(5));
                let record = self.run_spec(&job.spec);
                let response = proto::run_response(&job.id, &record);
                if let (Some(journal), Some(fp)) = (self.journal(), job.fp) {
                    journal.done(fp, &response);
                }
                response
            });
            self.served.fetch_add(1, Ordering::Relaxed);
            job.conn.send(job.seq, response);
        }
    }

    /// Runs [`Server::worker_loop`] under a supervisor: a panic that
    /// escapes the per-job containment (nothing known does, but chaos
    /// and future bugs exist) restarts the loop after a bounded
    /// exponential backoff instead of silently shrinking the pool. The
    /// restart cap keeps a deterministic crash from spinning forever;
    /// the scope join still guarantees the queue drains, because the
    /// remaining workers keep popping.
    fn supervised_worker(&self, queue: &BoundedQueue<QueuedJob>) {
        const MAX_RESTARTS: u32 = 8;
        let mut restarts: u32 = 0;
        loop {
            if catch_unwind(AssertUnwindSafe(|| self.worker_loop(queue))).is_ok() {
                return; // queue closed and drained
            }
            self.worker_restarts.fetch_add(1, Ordering::Relaxed);
            restarts += 1;
            if restarts > MAX_RESTARTS {
                return;
            }
            // 10ms, 20ms, 40ms, ... capped at 500ms.
            let backoff = (10u64 << (restarts - 1).min(6)).min(500);
            std::thread::sleep(Duration::from_millis(backoff));
        }
    }

    /// Durability checkpoint after a drained serve loop: compact the
    /// memo store (snapshot + truncated journal) and truncate the
    /// request WAL — once the worker scope has joined, every admitted
    /// job's response has been journaled and written. Failures are
    /// counted, never fatal.
    fn checkpoint(&self) {
        if let Some(state) = &self.state {
            state.snapshot(&self.cache);
            if let Some(journal) = state.journal() {
                journal.reset();
            }
        }
    }

    /// Replays the request journal after a crash, writing recovered
    /// response lines to `out`: responses journaled before the crash
    /// are replayed verbatim; admitted-but-unanswered jobs are
    /// re-executed in admit order. Each re-execution is journaled as an
    /// attempt first, so a job that keeps killing the daemon is refused
    /// with a typed `quarantined` error after [`QUARANTINE_AFTER`]
    /// attempts instead of recrashing forever. The union of pre-crash client-visible responses and
    /// `out` is byte-identical to an uninterrupted run (the engine is
    /// deterministic and cached patches are SAT re-verified).
    pub fn resume_from_journal(&self, out: &mut dyn Write) -> io::Result<ResumeReport> {
        let t0 = Instant::now();
        let mut report = ResumeReport::default();
        let Some(state) = &self.state else {
            return Ok(report);
        };
        // Skipped frames and payloads also count as persistence errors.
        let state = state.load_journal()?;
        report.journal_records = state.log.records;
        report.journal_skipped = state.skipped();
        for (position, (fp, line)) in state.admits.iter().enumerate() {
            if state.refused.contains(fp) {
                continue; // the client already got a typed refusal
            }
            if let Some(response) = state.done.get(fp) {
                writeln!(out, "{response}")?;
                report.replayed += 1;
                continue;
            }
            let (id, spec) = match proto::parse_request(line) {
                Ok(Request::Run { id, spec }) => (id, spec),
                _ => {
                    report.skipped += 1;
                    continue;
                }
            };
            let attempts = state.attempts.get(fp).copied().unwrap_or(0);
            if attempts >= QUARANTINE_AFTER {
                let refusal = proto::refusal(
                    &id,
                    "quarantined",
                    &format!("job failed {attempts} resume attempts; quarantined"),
                );
                // Journaled as this request's final answer: a later
                // resume replays the refusal instead of retrying.
                if let Some(journal) = self.journal() {
                    journal.done(*fp, &refusal);
                }
                writeln!(out, "{refusal}")?;
                report.quarantined += 1;
                continue;
            }
            // Chaos consults draw from the scope of the job's position,
            // with the admit order as the stream.
            let response = faultpoint::scoped(position as u128, || {
                if let Some(journal) = self.journal() {
                    journal.attempt(*fp);
                }
                let record = self.run_spec(&spec);
                let response = proto::run_response(&id, &record);
                if let Some(journal) = self.journal() {
                    journal.done(*fp, &response);
                }
                response
            });
            self.served.fetch_add(1, Ordering::Relaxed);
            writeln!(out, "{response}")?;
            report.recomputed += 1;
        }
        out.flush()?;
        report.wall = t0.elapsed();
        Ok(report)
    }

    /// Serves one request stream from any buffered reader, writing
    /// sequenced responses to `sink` — the stdio transport and the test
    /// harness. Lines are read as on the socket transport: a line that is
    /// not UTF-8 gets a `bad-request` answer and the stream goes on. EOF
    /// ends the stream (a `shutdown` request additionally latches the
    /// daemon-wide drain flag); either way the call returns only after
    /// every admitted job's response was written. The memo cache belongs
    /// to the `Server`, so a later stream on the same daemon starts warm.
    pub fn serve_reader<R: BufRead>(&self, input: R, sink: Box<dyn Write + Send>) -> ServeSummary {
        let t0 = Instant::now();
        let queue = BoundedQueue::new(self.queue_capacity());
        let conn = Arc::new(ConnOut::new(sink));
        std::thread::scope(|s| {
            for _ in 0..self.workers {
                s.spawn(|| self.supervised_worker(&queue));
            }
            self.read_requests(input, &conn, &queue);
            queue.close();
        });
        self.checkpoint();
        self.summary(t0.elapsed())
    }

    /// Serves stdin → stdout (the `--stdio` transport: same protocol,
    /// no socket — handy for tests and one-shot pipelines).
    pub fn serve_stdio(&self) -> ServeSummary {
        self.serve_reader(io::stdin().lock(), Box::new(io::stdout()))
    }

    /// Binds `path` and serves connections until drain is requested —
    /// by a `shutdown` request on any connection or by the caller's
    /// `shutdown` flag (the CLI wires SIGTERM/SIGINT to it). Any stale
    /// socket file at `path` is replaced; the file is removed on exit.
    pub fn serve_unix(&self, path: &Path, shutdown: &AtomicBool) -> io::Result<ServeSummary> {
        let _ = std::fs::remove_file(path);
        let listener = UnixListener::bind(path)?;
        listener.set_nonblocking(true)?;
        let t0 = Instant::now();
        let queue = BoundedQueue::new(self.queue_capacity());
        std::thread::scope(|s| {
            for _ in 0..self.workers {
                s.spawn(|| self.supervised_worker(&queue));
            }
            loop {
                if shutdown.load(Ordering::Relaxed) {
                    self.request_drain();
                }
                if self.is_draining() {
                    break;
                }
                match listener.accept() {
                    Ok((stream, _)) => {
                        let queue = &queue;
                        s.spawn(move || self.handle_unix_conn(stream, queue));
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(ACCEPT_POLL);
                    }
                    // Transient accept errors (e.g. a connection reset
                    // before accept): keep serving.
                    Err(_) => std::thread::sleep(ACCEPT_POLL),
                }
            }
            // Drain the accept backlog once: a connection established
            // before the drain latched still gets typed `draining`
            // refusals instead of a connection reset when the listener
            // drops.
            while let Ok((stream, _)) = listener.accept() {
                let queue = &queue;
                s.spawn(move || self.handle_unix_conn(stream, queue));
            }
            // Close admission; workers drain what was admitted, reader
            // threads notice the flag within READ_POLL and exit. The
            // scope join is the drain barrier.
            queue.close();
        });
        let _ = std::fs::remove_file(path);
        self.checkpoint();
        Ok(self.summary(t0.elapsed()))
    }

    /// One connection's reader: short read timeouts so drain is noticed
    /// even on an idle connection; responses go through the write half.
    fn handle_unix_conn(&self, stream: UnixStream, queue: &BoundedQueue<QueuedJob>) {
        let Ok(writer) = stream.try_clone() else {
            return;
        };
        let _ = stream.set_read_timeout(Some(READ_POLL));
        let conn = Arc::new(ConnOut::new(Box::new(writer)));
        self.read_requests(BufReader::new(stream), &conn, queue);
    }

    /// Reads request lines until EOF, a `shutdown` request, a read error,
    /// or — on a read timeout — a latched drain: the one reader of both
    /// transports. Lines are bytes up to `\n`, decoded lossily, so a line
    /// that is not UTF-8 gets a `bad-request` answer and the stream goes
    /// on; blank lines are skipped without using up a sequence number.
    fn read_requests<R: BufRead>(
        &self,
        mut reader: R,
        conn: &Arc<ConnOut>,
        queue: &BoundedQueue<QueuedJob>,
    ) {
        let mut seq = 0u64;
        let mut buf: Vec<u8> = Vec::new();
        loop {
            match reader.read_until(b'\n', &mut buf) {
                Ok(0) => break, // EOF
                Ok(_) => {
                    if buf.last() != Some(&b'\n') {
                        // Unterminated data: EOF follows on the next read.
                        continue;
                    }
                    if self.process_line_bytes(&mut buf, &mut seq, conn, queue)
                        == LineOutcome::Shutdown
                    {
                        return;
                    }
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    // `read_until` keeps partial bytes in `buf` across
                    // timeouts, so slow writers are reassembled intact.
                    if self.is_draining() {
                        return;
                    }
                }
                Err(_) => break,
            }
        }
        // A final line without a trailing newline still gets an answer.
        if !buf.is_empty() {
            self.process_line_bytes(&mut buf, &mut seq, conn, queue);
        }
    }

    /// Decodes and handles one buffered line, consuming the buffer.
    /// Blank lines are skipped without using up a sequence number.
    fn process_line_bytes(
        &self,
        buf: &mut Vec<u8>,
        seq: &mut u64,
        conn: &Arc<ConnOut>,
        queue: &BoundedQueue<QueuedJob>,
    ) -> LineOutcome {
        let text = String::from_utf8_lossy(buf).into_owned();
        buf.clear();
        let line = text.trim();
        if line.is_empty() {
            return LineOutcome::Continue;
        }
        let outcome = self.handle_line(line, *seq, conn, queue);
        *seq += 1;
        outcome
    }
}

/// Unit tests can't make the hardened load/engine path panic from the
/// outside (that's the point of this PR), so containment is exercised
/// by a magic job name that detonates inside the worker's
/// `catch_unwind`.
#[cfg(test)]
fn test_panic_injection(spec: &JobSpec) {
    if spec.name == "panic-inject" {
        panic!("injected panic for containment tests");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    /// A `Write` sink tests can read back after the server is done.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl SharedBuf {
        fn take(&self) -> String {
            String::from_utf8(lock_recovering(&self.0).clone()).unwrap()
        }
    }

    impl Write for SharedBuf {
        fn write(&mut self, data: &[u8]) -> io::Result<usize> {
            lock_recovering(&self.0).extend_from_slice(data);
            Ok(data.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn serve(opts: ServeOptions, input: &str) -> (String, ServeSummary) {
        let server = Server::new(opts);
        let sink = SharedBuf::default();
        let summary = server.serve_reader(Cursor::new(input.to_string()), Box::new(sink.clone()));
        (sink.take(), summary)
    }

    fn opts(workers: usize) -> ServeOptions {
        ServeOptions {
            workers,
            ..ServeOptions::default()
        }
    }

    /// Writes the doc example's patchable pair to a temp dir and returns
    /// `(dir, run-request line)` for job `name`.
    fn case_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("eco_serve_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("f.v"),
            "module f (a, b, t_0, y); input a, b, t_0; output y;\n\
             xor g1 (y, t_0, b); endmodule\n",
        )
        .unwrap();
        std::fs::write(
            dir.join("g.v"),
            "module g (a, b, y); input a, b; output y; wire w;\n\
             and g1 (w, a, b); xor g2 (y, w, b); endmodule\n",
        )
        .unwrap();
        dir
    }

    fn run_line(dir: &Path, id: &str, name: &str) -> String {
        format!(
            r#"{{"op": "run", "id": "{id}", "job": {{"name": "{name}", "faulty": "{f}", "golden": "{g}"}}}}"#,
            f = dir.join("f.v").display(),
            g = dir.join("g.v").display(),
        )
    }

    #[test]
    fn inline_ops_respond_in_order() {
        let input = "{\"op\": \"ping\", \"id\": 1}\n\
                     not json\n\
                     {\"op\": \"ping\", \"id\": 2}\n";
        let (out, summary) = serve(opts(2), input);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "{\"id\": 1, \"ok\": true, \"op\": \"ping\"}");
        assert!(lines[1].contains("\"error\": \"bad-request\""));
        assert_eq!(lines[2], "{\"id\": 2, \"ok\": true, \"op\": \"ping\"}");
        assert_eq!(summary.bad_requests, 1);
        assert_eq!(summary.served, 0);
    }

    /// Both transports read requests the same way: a line that is not
    /// UTF-8 gets a `bad-request` answer and the stream goes on.
    #[test]
    fn non_utf8_line_is_a_bad_request_on_both_transports() {
        let input: &[u8] = b"{\"op\": \"ping\", \"id\": 1}\n\xff\xfe\n\
                             {\"op\": \"ping\", \"id\": 2}\n{\"op\": \"ping\", \"id\": 3}\n";
        let server = Server::new(opts(1));
        let sink = SharedBuf::default();
        let summary = server.serve_reader(input, Box::new(sink.clone()));
        let stdio = sink.take();
        let lines: Vec<&str> = stdio.lines().collect();
        assert_eq!(lines.len(), 4, "{stdio}");
        for (line, id) in [(lines[0], 1), (lines[2], 2), (lines[3], 3)] {
            assert_eq!(
                line,
                format!("{{\"id\": {id}, \"ok\": true, \"op\": \"ping\"}}")
            );
        }
        assert!(lines[1].contains("\"error\": \"bad-request\""), "{stdio}");
        assert_eq!(summary.bad_requests, 1);

        let dir = case_dir("utf8");
        let sock = dir.join("eco.sock");
        let server = Arc::new(Server::new(opts(1)));
        let handle = {
            let (server, sock) = (Arc::clone(&server), sock.clone());
            std::thread::spawn(move || server.serve_unix(&sock, &AtomicBool::new(false)).unwrap())
        };
        let mut stream = loop {
            match UnixStream::connect(&sock) {
                Ok(s) => break s,
                Err(_) => std::thread::sleep(Duration::from_millis(10)),
            }
        };
        stream.write_all(input).unwrap();
        stream
            .write_all(b"{\"op\": \"shutdown\", \"id\": \"bye\"}\n")
            .unwrap();
        let socket: Vec<String> = BufReader::new(stream)
            .lines()
            .take(5)
            .map(Result::unwrap)
            .collect();
        assert_eq!(socket[..4], lines, "{socket:?}");
        assert!(socket[4].contains("\"op\": \"shutdown\""), "{socket:?}");
        assert_eq!(handle.join().unwrap().bad_requests, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_op_reports_every_summary_counter() {
        let input = "not json\n\
                     {\"op\": \"stats\", \"id\": \"s\"}\n\
                     {\"op\": \"shutdown\", \"id\": \"bye\"}\n";
        let (out, summary) = serve(opts(1), input);
        let stats = out.lines().nth(1).expect("stats response");
        assert!(stats.contains("\"op\": \"stats\""), "{stats}");
        assert!(stats.contains("\"bad_requests\": 1,"), "{stats}");
        for (key, _) in summary.counters() {
            assert!(stats.contains(&format!("\"{key}\": ")), "no {key}: {stats}");
        }
        assert!(
            stats.contains("\"queued\": 0, \"memo\": {\"hits\": 0"),
            "{stats}"
        );
    }

    #[test]
    fn run_responses_are_byte_identical_across_worker_counts() {
        let dir = case_dir("det");
        let mut input = String::new();
        for i in 0..6 {
            input.push_str(&run_line(&dir, &format!("r{i}"), &format!("job{i}")));
            input.push('\n');
        }
        // A missing-file job mid-stream must yield a deterministic error
        // record, not disturb its neighbors.
        input.push_str(
            r#"{"op": "run", "id": "gone", "job": {"name": "gone", "faulty": "/nonexistent/f.v", "golden": "/nonexistent/g.v"}}"#,
        );
        input.push('\n');
        let (out1, s1) = serve(opts(1), &input);
        let (out4, s4) = serve(opts(4), &input);
        assert_eq!(out1, out4, "responses must not depend on worker count");
        assert_eq!(s1.served, 7);
        assert_eq!(s4.served, 7);
        assert!(out1.contains("\"id\": \"r0\", \"ok\": true, \"op\": \"run\""));
        assert!(out1.contains("\"status\": \"complete\""));
        assert!(out1
            .lines()
            .nth(6)
            .unwrap()
            .contains("\"status\": \"error\""));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn memo_cache_stays_warm_across_requests_and_serve_loops() {
        let dir = case_dir("warm");
        let server = Server::new(opts(1));
        // Two structurally identical instances: the second hits the
        // cache the first filled.
        let mut input = String::new();
        input.push_str(&run_line(&dir, "a", "one"));
        input.push('\n');
        input.push_str(&run_line(&dir, "b", "two"));
        input.push('\n');
        let sink = SharedBuf::default();
        let summary = server.serve_reader(Cursor::new(input), Box::new(sink.clone()));
        assert!(summary.memo.hits > 0, "second identical job must hit");
        // The cache belongs to the Server, not the serve loop: a later
        // stream on the same daemon sees the warm counters.
        let sink2 = SharedBuf::default();
        server.serve_reader(
            Cursor::new("{\"op\": \"stats\", \"id\": \"s\"}\n".to_string()),
            Box::new(sink2.clone()),
        );
        let stats_line = sink2.take();
        assert!(stats_line.contains("\"op\": \"stats\""), "{stats_line}");
        assert!(
            !stats_line.contains("\"hits\": 0,"),
            "stats echoes warm hits: {stats_line}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shutdown_ack_is_sequenced_after_all_admitted_work() {
        let dir = case_dir("drain");
        let mut input = String::new();
        for i in 0..3 {
            input.push_str(&run_line(&dir, &format!("r{i}"), &format!("job{i}")));
            input.push('\n');
        }
        input.push_str("{\"op\": \"shutdown\", \"id\": \"bye\"}\n");
        // Lines after shutdown are never read (the session ended).
        input.push_str("{\"op\": \"ping\", \"id\": \"late\"}\n");
        let (out, summary) = serve(opts(2), &input);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4, "3 runs + ack, nothing after: {out}");
        assert!(lines[3].contains("\"op\": \"shutdown\""));
        assert!(lines[3].contains("\"draining\": true"));
        assert_eq!(summary.served, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn draining_server_refuses_new_runs_with_typed_error() {
        let dir = case_dir("refuse");
        let server = Server::new(opts(2));
        server.request_drain();
        let sink = SharedBuf::default();
        let input = format!("{}\n", run_line(&dir, "x", "late"));
        let summary = server.serve_reader(Cursor::new(input), Box::new(sink.clone()));
        let out = sink.take();
        assert!(out.contains("\"error\": \"draining\""), "{out}");
        assert_eq!(summary.refused_draining, 1);
        assert_eq!(summary.served, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn full_queue_sheds_load_with_busy_and_sequences_the_refusal() {
        // Drive handle_line directly against an unserviced queue so the
        // overflow is deterministic: request 0 is admitted, request 1
        // overflows capacity 1 and is refused.
        let server = Server::new(ServeOptions {
            workers: 1,
            queue_capacity: 1,
            ..ServeOptions::default()
        });
        let queue: BoundedQueue<QueuedJob> = BoundedQueue::new(1);
        let sink = SharedBuf::default();
        let conn = Arc::new(ConnOut::new(Box::new(sink.clone())));
        let line =
            r#"{"op": "run", "id": 1, "job": {"name": "j", "faulty": "f.v", "golden": "g.v"}}"#;
        assert_eq!(
            server.handle_line(line, 0, &conn, &queue),
            LineOutcome::Continue
        );
        assert_eq!(
            server.handle_line(line, 1, &conn, &queue),
            LineOutcome::Continue
        );
        assert_eq!(server.busy.load(Ordering::Relaxed), 1);
        assert_eq!(queue.len(), 1, "first job stays admitted");
        // The refusal is *decided* immediately but *written* in request
        // order: it parks behind request 0 until a worker answers it.
        assert!(sink.take().is_empty(), "refusal held until seq 0 flushes");
        queue.close();
        std::thread::scope(|s| {
            s.spawn(|| server.worker_loop(&queue));
        });
        let out = sink.take();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2, "{out}");
        // f.v doesn't exist, so request 0 is a deterministic error
        // record — and its flush releases the parked busy refusal.
        assert!(lines[0].contains("\"status\": \"error\""), "{out}");
        assert!(lines[1].contains("\"error\": \"busy\""), "{out}");
    }

    /// The serve-session half of the panic regression: a job that
    /// panics inside a worker becomes one `error` response while the
    /// session keeps serving — the worker thread, its queue, and the
    /// response sequencer all survive.
    #[test]
    fn panicking_job_yields_error_response_and_session_continues() {
        let dir = case_dir("panic");
        for workers in [1, 4] {
            let mut input = String::new();
            input.push_str(&run_line(&dir, "ok1", "first"));
            input.push('\n');
            input.push_str(
                r#"{"op": "run", "id": "boom", "job": {"name": "panic-inject", "faulty": "f.v", "golden": "g.v"}}"#,
            );
            input.push('\n');
            input.push_str(&run_line(&dir, "ok2", "second"));
            input.push('\n');
            let (out, summary) = serve(opts(workers), &input);
            let lines: Vec<&str> = out.lines().collect();
            assert_eq!(lines.len(), 3, "workers={workers}: {out}");
            assert!(lines[0].contains("\"status\": \"complete\""), "{out}");
            assert!(
                lines[1].contains("\"status\": \"error\"")
                    && lines[1].contains("job worker panicked"),
                "{out}"
            );
            assert!(lines[2].contains("\"status\": \"complete\""), "{out}");
            assert_eq!(summary.served, 3, "panicked job still counts as served");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A panic while holding the sequencer lock must not abort the
    /// connection: later sends recover the state and flush in order.
    #[test]
    fn poisoned_sequencer_recovers_and_still_flushes_in_order() {
        let sink = SharedBuf::default();
        let conn = Arc::new(ConnOut::new(Box::new(sink.clone())));
        let poisoner = Arc::clone(&conn);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.inner.lock().unwrap();
            panic!("die holding the sequencer lock");
        })
        .join();
        assert!(conn.inner.lock().is_err(), "lock must actually be poisoned");
        conn.send(1, "second".into());
        conn.send(0, "first".into());
        assert_eq!(sink.take(), "first\nsecond\n");
    }

    /// The crash-recovery core property, without a real SIGKILL (the
    /// chaos campaign covers that): a journal holding one answered and
    /// one unanswered admit resumes to exactly the missing responses,
    /// and the union is byte-identical to an uninterrupted run.
    #[test]
    fn resume_replays_done_and_recomputes_unfinished_byte_identically() {
        let dir = case_dir("resume");
        let state_dir = dir.join("state");
        let line0 = run_line(&dir, "r0", "job0");
        let line1 = run_line(&dir, "r1", "job1");
        // Uninterrupted in-memory reference run.
        let (reference, _) = serve(opts(1), &format!("{line0}\n{line1}\n"));
        let reference: Vec<&str> = reference.lines().collect();
        assert_eq!(reference.len(), 2);
        // Forge the crash: job0 was admitted and answered (its response
        // journaled before the client saw it), job1 was admitted and
        // then the daemon died — no checkpoint ever ran.
        {
            let journal = REQUESTS_WAL.open(&state_dir).unwrap();
            let fp0 = request_fingerprint(&line0);
            journal.admit(fp0, &line0);
            journal.done(fp0, reference[0]);
            journal.admit(request_fingerprint(&line1), &line1);
        }
        let server = Server::new(ServeOptions {
            workers: 1,
            state_dir: Some(state_dir.clone()),
            ..ServeOptions::default()
        });
        let mut out = Vec::new();
        let report = server.resume_from_journal(&mut out).unwrap();
        assert_eq!(report.replayed, 1);
        assert_eq!(report.recomputed, 1);
        assert_eq!(report.quarantined, 0);
        let recovered = String::from_utf8(out).unwrap();
        let recovered: Vec<&str> = recovered.lines().collect();
        assert_eq!(
            recovered, reference,
            "replayed + recomputed responses must equal the fault-free run"
        );
        // A second resume replays both verbatim (the recomputation was
        // journaled as done) and recomputes nothing.
        let server2 = Server::new(ServeOptions {
            workers: 1,
            state_dir: Some(state_dir),
            ..ServeOptions::default()
        });
        let mut out2 = Vec::new();
        let report2 = server2.resume_from_journal(&mut out2).unwrap();
        assert_eq!(report2.replayed, 2);
        assert_eq!(report2.recomputed, 0);
        assert_eq!(String::from_utf8(out2).unwrap().lines().count(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A job that keeps killing the daemon is quarantined with a typed
    /// refusal after the attempt budget, instead of recrashing forever.
    #[test]
    fn resume_quarantines_repeat_offenders() {
        let dir = case_dir("quarantine");
        let state_dir = dir.join("state");
        let killer = r#"{"op": "run", "id": "k", "job": {"name": "killer", "faulty": "f.v", "golden": "g.v"}}"#;
        let fp = request_fingerprint(killer);
        {
            let journal = REQUESTS_WAL.open(&state_dir).unwrap();
            journal.admit(fp, killer);
            for _ in 0..3 {
                journal.attempt(fp); // three resumes died mid-attempt
            }
        }
        let server = Server::new(ServeOptions {
            workers: 1,
            state_dir: Some(state_dir),
            ..ServeOptions::default()
        });
        let mut out = Vec::new();
        let report = server.resume_from_journal(&mut out).unwrap();
        assert_eq!(report.quarantined, 1);
        assert_eq!(report.recomputed, 0);
        let line = String::from_utf8(out).unwrap();
        assert!(line.contains("\"error\": \"quarantined\""), "{line}");
        assert!(line.contains("\"id\": \"k\""), "{line}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Attempts journaled after a torn `requests.wal` tail still count:
    /// each open cuts the tear off first, so the attempt records land
    /// where the resume reads, and quarantine triggers.
    #[test]
    fn attempts_after_a_torn_tail_still_quarantine() {
        let dir = case_dir("torn_quarantine");
        let state_dir = dir.join("state");
        let killer = r#"{"op": "run", "id": "k", "job": {"name": "killer", "faulty": "f.v", "golden": "g.v"}}"#;
        let fp = request_fingerprint(killer);
        REQUESTS_WAL.open(&state_dir).unwrap().admit(fp, killer);
        // A kill mid-append: half a frame header after the admit.
        let mut wal = std::fs::OpenOptions::new()
            .append(true)
            .open(state_dir.join(REQUESTS_WAL.name))
            .unwrap();
        wal.write_all(&[0x7f; 5]).unwrap();
        drop(wal);
        for _ in 0..QUARANTINE_AFTER {
            // Each resume that died mid-attempt opened the journal anew.
            REQUESTS_WAL.open(&state_dir).unwrap().attempt(fp);
        }
        let server = Server::new(ServeOptions {
            workers: 1,
            state_dir: Some(state_dir),
            ..ServeOptions::default()
        });
        let mut out = Vec::new();
        let report = server.resume_from_journal(&mut out).unwrap();
        assert_eq!((report.quarantined, report.recomputed), (1, 0));
        assert_eq!(report.journal_records, 1 + u64::from(QUARANTINE_AFTER));
        let line = String::from_utf8(out).unwrap();
        assert!(line.contains("\"error\": \"quarantined\""), "{line}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Warm restart: a drained serve loop checkpoints the memo store,
    /// and a fresh daemon on the same state directory loads it — the
    /// repeated job is a cache hit with byte-identical responses.
    #[test]
    fn memo_store_survives_restart_and_stays_byte_identical() {
        let dir = case_dir("durable");
        let state_dir = dir.join("state");
        let input = format!("{}\n", run_line(&dir, "a", "one"));
        let serve_with_state = || {
            let server = Server::new(ServeOptions {
                workers: 1,
                state_dir: Some(state_dir.clone()),
                ..ServeOptions::default()
            });
            assert!(server.state_error().is_none(), "{:?}", server.state_error());
            let sink = SharedBuf::default();
            let summary = server.serve_reader(Cursor::new(input.clone()), Box::new(sink.clone()));
            (sink.take(), summary)
        };
        let (out1, s1) = serve_with_state();
        assert_eq!(s1.memo_loaded, 0, "first run starts cold");
        assert!(s1.journal_appended > 0, "memo entries + requests journaled");
        assert_eq!(s1.persist_errors, 0);
        let (out2, s2) = serve_with_state();
        assert!(s2.memo_loaded > 0, "restart loads the snapshot");
        assert!(
            s2.memo.hits > 0,
            "restarted daemon answers the repeat from the loaded store"
        );
        assert_eq!(out1, out2, "durability must not change response bytes");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A torn `memo.wal` tail is a persistence error the daemon reports,
    /// live and at exit, the way eco-batch counts it — and the entries
    /// before the tear still load.
    #[test]
    fn torn_memo_store_counts_as_a_persist_error() {
        let dir = case_dir("torn_memo");
        let state_dir = dir.join("state");
        let input = format!("{}\n", run_line(&dir, "a", "one"));
        let serve_with_state = |input: &str| {
            let server = Server::new(ServeOptions {
                workers: 1,
                state_dir: Some(state_dir.clone()),
                ..ServeOptions::default()
            });
            let sink = SharedBuf::default();
            let summary =
                server.serve_reader(Cursor::new(input.to_string()), Box::new(sink.clone()));
            (sink.take(), summary)
        };
        // A run that dies before its checkpoint: the entry sits in
        // memo.wal with a torn frame after it.
        let (_, clean) = serve_with_state(&input);
        assert_eq!(clean.persist_errors, 0);
        let snap = std::fs::read(state_dir.join("memo.snap")).unwrap();
        std::fs::write(state_dir.join("memo.wal"), &snap).unwrap();
        std::fs::remove_file(state_dir.join("memo.snap")).unwrap();
        let mut wal = std::fs::OpenOptions::new()
            .append(true)
            .open(state_dir.join("memo.wal"))
            .unwrap();
        wal.write_all(&[0x7f; 9]).unwrap();
        drop(wal);

        let (out, summary) = serve_with_state("{\"op\": \"stats\", \"id\": \"s\"}\n");
        assert!(out.contains("\"persist_errors\": 1,"), "{out}");
        assert!(out.contains("\"memo_loaded\": 1,"), "{out}");
        assert_eq!((summary.persist_errors, summary.memo_loaded), (1, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprints_distinguish_ids_and_trim_whitespace() {
        let a = request_fingerprint("{\"op\": \"run\", \"id\": 1}");
        let b = request_fingerprint("{\"op\": \"run\", \"id\": 2}");
        assert_ne!(
            a, b,
            "the id is part of the key: every client gets an answer"
        );
        assert_eq!(a, request_fingerprint("  {\"op\": \"run\", \"id\": 1}\n"));
        assert_eq!(
            a, 0x18b5_d1ac_7c52_d5ec_296f_a277_cb45_3040,
            "the resume key of journals older binaries wrote"
        );
    }

    #[test]
    fn unix_socket_round_trip_with_drain() {
        let dir = case_dir("unix");
        let sock = dir.join("eco.sock");
        let server = Arc::new(Server::new(opts(2)));
        let shutdown = Arc::new(AtomicBool::new(false));
        let handle = {
            let server = Arc::clone(&server);
            let sock = sock.clone();
            let shutdown = Arc::clone(&shutdown);
            std::thread::spawn(move || server.serve_unix(&sock, &shutdown).unwrap())
        };
        // Wait for the socket to appear.
        let mut stream = loop {
            match UnixStream::connect(&sock) {
                Ok(s) => break s,
                Err(_) => std::thread::sleep(Duration::from_millis(10)),
            }
        };
        let mut req = run_line(&dir, "u1", "unixjob");
        req.push('\n');
        req.push_str("{\"op\": \"shutdown\", \"id\": \"bye\"}\n");
        stream.write_all(req.as_bytes()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"id\": \"u1\""), "{line}");
        assert!(line.contains("\"status\": \"complete\""), "{line}");
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"op\": \"shutdown\""), "{line}");
        let summary = handle.join().unwrap();
        assert_eq!(summary.served, 1);
        assert!(!sock.exists(), "socket file removed on exit");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
