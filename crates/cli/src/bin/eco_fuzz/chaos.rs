//! The chaos campaign: deterministic fault injection with a differential
//! oracle.
//!
//! * **Sweep** — each seed is one in-process run with the
//!   [`eco_core::faultpoint`] registry armed at the rate the seed picks
//!   from [`RATES`]. Even seeds run a batch, then an armed `resume`
//!   replay of its own journal (exercising `memo.load` and the WAL round
//!   trip under fire); odd seeds run a serve pass. Every response must be
//!   byte-identical to a fault-free reference or a *typed degradation* (a
//!   contained-panic `error` record, a `busy` admission shed). Anything
//!   else is a wrong answer and fails the case.
//! * **Kill drill** — once, after the sweep: a real `eco-serve --stdio`
//!   daemon is SIGKILLed partway through a 12-job stream, restarted with
//!   `--resume`, and the union of pre-kill responses and
//!   `recovered.jsonl` must equal the fault-free response set. A final
//!   warm replay over the recovered state must be byte-identical to the
//!   cold reference and must hit the reloaded memo (warm-restart hit
//!   rate > 0).
//!
//! Fixtures and fault-free references are built once. Everything the
//! campaign writes lives in a temporary directory it removes when
//! dropped.

use std::collections::HashSet;
use std::io::{BufRead, BufReader, Cursor, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use eco_batch::{records_jsonl, run_batch, BatchJob, BatchOptions};
use eco_core::{faultpoint, ChaosSpec, MemoCache, MemoStore, REQUESTS_WAL};
use eco_serve::{ServeOptions, Server};
use eco_workgen::campaign::{Campaign, Failure, Outcome};
use eco_workgen::{contest_suite, request_stream, write_unit, SuiteUnit};

/// Injection rates a seed picks from: rare faults, heavy faults, and the
/// rate-1.0 wall where every consult fires.
const RATES: [f64; 4] = [0.05, 0.25, 0.6, 1.0];

/// Responses read from the doomed daemon before SIGKILL.
const PRE_KILL_READS: usize = 3;

/// How long, and how often, the kill drill polls the doomed daemon's
/// journal for every request's admit record before the kill.
const ADMIT_WAIT: Duration = Duration::from_secs(30);
const ADMIT_POLL: Duration = Duration::from_millis(5);

/// Suite prefix sizes: small fixtures for the tight sweep loop, the
/// 12-job stream for the kill drill (matching the serve benchmark).
const SWEEP_UNITS: usize = 3;
const KILL_UNITS: usize = 12;

/// The campaign, with its fixtures, references and counters.
pub struct ChaosCampaign {
    scratch: TempDir,
    /// The first [`KILL_UNITS`] suite units.
    suite: Vec<SuiteUnit>,
    jobs: Vec<BatchJob>,
    batch_reference: String,
    requests: String,
    serve_reference: String,
    counters: Counters,
    _quiet: QuietPanics,
}

#[derive(Default)]
struct Counters {
    consults: u64,
    injected: u64,
    typed_degradations: u64,
    replayed: u64,
    recomputed: u64,
    store_loaded: u64,
    store_skipped: u64,
    recovery_wall_ns: u64,
    warm_hits: u64,
    warm_served: u64,
}

impl ChaosCampaign {
    /// Builds the sweep fixtures and their fault-free references.
    pub fn new() -> Result<ChaosCampaign, String> {
        // Injected `solver.panic` faults are contained by the runners; the
        // default hook would still spray hundreds of backtraces to stderr.
        let quiet = QuietPanics::install();
        let scratch = TempDir::new()?;
        let mut suite = contest_suite();
        suite.truncate(KILL_UNITS);

        // Batch fixtures: the first few suite units as in-memory jobs.
        let jobs: Vec<BatchJob> = suite[..SWEEP_UNITS]
            .iter()
            .map(|u| {
                u.instance()
                    .map(|i| BatchJob::from_instance(&u.spec.name, i))
                    .map_err(|e| format!("suite unit {}: {e}", u.spec.name))
            })
            .collect::<Result<_, _>>()?;
        let batch_reference = records_jsonl(&run_batch(&jobs, &batch_opts(None, false)).records);

        // Serve fixtures: the same units on disk, one request stream with
        // absolute paths.
        let requests = write_requests(&scratch.0.join("sweep_cases"), &suite[..SWEEP_UNITS])?;
        let serve_reference = serve_once(&requests, None);
        Ok(ChaosCampaign {
            scratch,
            suite,
            jobs,
            batch_reference,
            requests,
            serve_reference,
            counters: Counters::default(),
            _quiet: quiet,
        })
    }
}

impl Campaign for ChaosCampaign {
    type Case = ChaosSpec;

    fn case(&mut self, seed: u64) -> Option<ChaosSpec> {
        Some(ChaosSpec {
            seed,
            rate: RATES[(seed % RATES.len() as u64) as usize],
        })
    }

    fn check(&mut self, spec: &ChaosSpec) -> Outcome {
        let dir = self.scratch.0.join(format!("sweep_{}", spec.seed));
        let result = if spec.seed.is_multiple_of(2) {
            self.batch_leg(*spec, &dir)
        } else {
            self.serve_leg(*spec, &dir)
        };
        // Never leave the process-global registry armed, least of all on
        // the failure path.
        faultpoint::disarm();
        let _ = std::fs::remove_dir_all(&dir);
        match result {
            Ok(0) => Outcome::Pass,
            Ok(degraded) => {
                self.counters.typed_degradations += degraded;
                Outcome::Degraded
            }
            Err(failure) => Outcome::Fail(failure),
        }
    }

    fn finish(&mut self) -> Result<(), Failure> {
        self.kill_drill().map_err(|detail| Failure {
            at: "kill drill".into(),
            detail,
        })
    }

    fn counters(&self) -> Vec<(&'static str, u64)> {
        let c = &self.counters;
        vec![
            ("consults", c.consults),
            ("injected", c.injected),
            ("typed_degradations", c.typed_degradations),
            ("replayed", c.replayed),
            ("recomputed", c.recomputed),
            ("store_loaded", c.store_loaded),
            ("store_skipped", c.store_skipped),
            ("recovery_wall_ns", c.recovery_wall_ns),
            ("warm_hits", c.warm_hits),
            ("warm_served", c.warm_served),
        ]
    }
}

// ---------------------------------------------------------------------
// Sweep legs
// ---------------------------------------------------------------------

fn batch_opts(journal: Option<PathBuf>, resume: bool) -> BatchOptions {
    BatchOptions {
        jobs: 2,
        journal,
        resume,
        ..Default::default()
    }
}

impl ChaosCampaign {
    /// One armed batch run journaling into `dir`, then an armed `--resume`
    /// replay of that journal; both reports go through the oracle.
    /// Returns the typed-degradation count.
    fn batch_leg(&mut self, spec: ChaosSpec, dir: &Path) -> Result<u64, Failure> {
        faultpoint::arm(spec);
        let chaotic = run_batch(&self.jobs, &batch_opts(Some(dir.to_path_buf()), false));
        self.count(faultpoint::disarm());

        // Re-arm with the same spec (fresh per-site counters, deterministic
        // schedule) for the resume leg: replay hits `memo.load` and the WAL
        // decode path under fire.
        faultpoint::arm(spec);
        let resumed = run_batch(&self.jobs, &batch_opts(Some(dir.to_path_buf()), true));
        self.count(faultpoint::disarm());

        let reference = &self.batch_reference;
        let chaotic = check_lines(&records_jsonl(&chaotic.records), reference, "chaotic batch")?;
        let resumed = check_lines(&records_jsonl(&resumed.records), reference, "resumed batch")?;
        Ok(chaotic + resumed)
    }

    /// One armed serve pass with durable state under `state_dir`.
    fn serve_leg(&mut self, spec: ChaosSpec, state_dir: &Path) -> Result<u64, Failure> {
        faultpoint::arm(spec);
        let lines = serve_once(&self.requests, Some(state_dir.to_path_buf()));
        self.count(faultpoint::disarm());
        check_lines(&lines, &self.serve_reference, "chaotic serve")
    }

    fn count(&mut self, stats: faultpoint::FaultStats) {
        self.counters.consults += stats.consults;
        self.counters.injected += stats.injected;
    }
}

/// The differential oracle: line `i` must equal the reference line `i`
/// exactly, or be a typed degradation (contained panic, `busy` shed).
/// Returns the degradation count; anything else is a wrong answer.
fn check_lines(got: &str, want: &str, what: &str) -> Result<u64, Failure> {
    let wrong = |detail: String| Failure {
        at: what.to_string(),
        detail,
    };
    let got: Vec<&str> = got.lines().collect();
    let want: Vec<&str> = want.lines().collect();
    if got.len() != want.len() {
        return Err(wrong(format!(
            "{} responses, expected {} (a request went unanswered)",
            got.len(),
            want.len()
        )));
    }
    let mut degraded = 0;
    for (g, w) in got.iter().zip(&want) {
        if g == w {
            continue;
        }
        let contained_panic = g.contains("\"status\": \"error\"") && g.contains("panic");
        let busy_shed = g.contains("\"ok\": false") && g.contains("\"error\": \"busy\"");
        if contained_panic || busy_shed {
            degraded += 1;
            continue;
        }
        return Err(wrong(format!(
            "wrong answer under chaos\n     got: {g}\nexpected: {w}"
        )));
    }
    Ok(degraded)
}

/// Writes `units` under `dir` and returns their request stream, with
/// absolute paths.
fn write_requests(dir: &Path, units: &[SuiteUnit]) -> Result<String, String> {
    let io = |e: std::io::Error| format!("{}: {e}", dir.display());
    std::fs::create_dir_all(dir).map_err(io)?;
    let abs = dir.canonicalize().map_err(io)?;
    let entries = units
        .iter()
        .map(|u| write_unit(dir, u))
        .collect::<std::io::Result<Vec<_>>>()
        .map_err(io)?;
    Ok(request_stream(&abs, &entries))
}

/// Serves one request stream in-process and returns the response lines.
fn serve_once(requests: &str, state_dir: Option<PathBuf>) -> String {
    let server = Server::new(ServeOptions {
        workers: 2,
        state_dir,
        ..Default::default()
    });
    let sink = SharedBuf::default();
    server.serve_reader(Cursor::new(requests.to_string()), Box::new(sink.clone()));
    sink.take()
}

/// Replaces the panic hook with a no-op and restores the previous hook
/// on drop.
type PanicHook = Box<dyn Fn(&std::panic::PanicHookInfo<'_>) + Sync + Send>;

struct QuietPanics(Option<PanicHook>);

impl QuietPanics {
    fn install() -> Self {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        QuietPanics(Some(prev))
    }
}

impl Drop for QuietPanics {
    fn drop(&mut self) {
        if let Some(hook) = self.0.take() {
            std::panic::set_hook(hook);
        }
    }
}

/// A directory under the system temp dir, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new() -> Result<TempDir, String> {
        let path = std::env::temp_dir().join(format!("eco-fuzz-chaos-{}", std::process::id()));
        // A leftover of an earlier process with the same pid would feed
        // its journal to the kill drill.
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(TempDir(path))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A `Write` sink the campaign can read back after `serve_reader`
/// consumes the box.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn take(&self) -> String {
        // A poisoned lock only means a writer panicked mid-append; the
        // bytes are still the best available evidence.
        let buf = self.0.lock().unwrap_or_else(|e| e.into_inner());
        String::from_utf8_lossy(&buf).into_owned()
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Kill drill against the real daemon
// ---------------------------------------------------------------------

impl ChaosCampaign {
    fn kill_drill(&mut self) -> Result<(), String> {
        let bin = serve_binary()?;
        let requests = write_requests(&self.scratch.0.join("kill_cases"), &self.suite)?;
        let state = self.scratch.0.join("kill_state");
        let state_arg = state.display().to_string();

        // Fault-free reference: the full stream through a clean daemon.
        let (reference, _) = run_daemon(&bin, &["--stdio", "--jobs", "2"], &requests)?;
        if reference.len() != KILL_UNITS {
            return Err(format!(
                "reference daemon answered {} of {KILL_UNITS} requests",
                reference.len()
            ));
        }

        // Doomed daemon: feed all requests, read a few responses, SIGKILL.
        let mut child = Command::new(&bin)
            .args(["--stdio", "--jobs", "2", "--journal", &state_arg])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("{}: {e}", bin.display()))?;
        // Both pipes were requested two lines up; take() can only yield Some.
        let mut stdin = child.stdin.take().expect("stdin is piped");
        stdin
            .write_all(requests.as_bytes())
            .and_then(|_| stdin.flush())
            .map_err(|e| format!("writing doomed daemon stdin: {e}"))?;
        // Keep stdin open: EOF would start a graceful drain and the daemon
        // would answer everything before we get to kill it.
        let mut reader = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut pre_kill = Vec::new();
        for _ in 0..PRE_KILL_READS {
            let mut line = String::new();
            reader
                .read_line(&mut line)
                .map_err(|e| format!("reading doomed daemon: {e}"))?;
            if line.is_empty() {
                return Err("doomed daemon closed stdout before the kill point".into());
            }
            pre_kill.push(line.trim_end().to_string());
        }
        // Kill only once every request is admitted: an admitted request
        // survives the crash in `requests.wal`, one still unread in the
        // pipe does not, and the oracle below needs all of them.
        let admit_deadline = Instant::now() + ADMIT_WAIT;
        loop {
            let admitted = REQUESTS_WAL.load(&state).map_or(0, |j| j.admits.len());
            if admitted >= KILL_UNITS {
                break;
            }
            if Instant::now() >= admit_deadline {
                let _ = child.kill().and_then(|_| child.wait());
                return Err(format!(
                    "daemon admitted {admitted} of {KILL_UNITS} before the kill point"
                ));
            }
            std::thread::sleep(ADMIT_POLL);
        }
        child
            .kill()
            .and_then(|_| child.wait().map(|_| ()))
            .map_err(|e| format!("killing daemon: {e}"))?;
        drop(stdin);

        // Inspect the torn store before recovery runs: these are the
        // "entries recovered/skipped" counters. Opening the store cuts a
        // torn `memo.wal` tail, and the load counts what the cut dropped.
        let store = MemoStore::open(&state).map_err(|e| format!("{}: {e}", state.display()))?;
        let store_stats = store.load_into(&MemoCache::new());
        drop(store);

        // Recovery: `--resume` replays the journal into recovered.jsonl,
        // then the empty stdin drains the daemon to a clean exit.
        let t0 = Instant::now();
        let output = Command::new(&bin)
            .args(["--journal", &state_arg, "--resume", "--stdio", "--stats"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .output()
            .map_err(|e| format!("{}: {e}", bin.display()))?;
        let recovery_wall_ns = t0.elapsed().as_nanos() as u64;
        let resume_stderr = String::from_utf8_lossy(&output.stderr).into_owned();
        if !output.status.success() {
            return Err(format!(
                "resume daemon crashed ({}): {resume_stderr}",
                output.status
            ));
        }
        let replayed = stderr_u64(&resume_stderr, "replayed")
            .ok_or("resume daemon printed no resume report")?;
        let recomputed = stderr_u64(&resume_stderr, "recomputed").unwrap_or(0);
        let recovered_path = state.join("recovered.jsonl");
        let recovered_text = std::fs::read_to_string(&recovered_path)
            .map_err(|e| format!("{}: {e}", recovered_path.display()))?;

        // The crash-recovery oracle: pre-kill ∪ recovered == reference.
        let want: HashSet<&str> = reference.iter().map(String::as_str).collect();
        let mut have: HashSet<&str> = pre_kill.iter().map(String::as_str).collect();
        have.extend(recovered_text.lines());
        if let Some(extra) = have.difference(&want).next() {
            return Err(format!("recovered response not in fault-free run: {extra}"));
        }
        if let Some(missing) = want.difference(&have).next() {
            return Err(format!("response lost across the crash: {missing}"));
        }

        // Warm replay over the recovered state: byte-identical to the cold
        // reference, and it must actually hit the reloaded memo.
        let (warm, warm_stderr) = run_daemon(
            &bin,
            &["--stdio", "--jobs", "2", "--journal", &state_arg, "--stats"],
            &requests,
        )?;
        if warm != reference {
            return Err("warm replay diverged from the fault-free reference".into());
        }
        let warm_loaded =
            stderr_u64(&warm_stderr, "memo_loaded").ok_or("warm daemon printed no summary")?;
        let warm_served = stderr_u64(&warm_stderr, "served").unwrap_or(0);
        let warm_hits = stderr_u64(&warm_stderr, "hits").unwrap_or(0);
        if warm_loaded == 0 || warm_hits == 0 {
            return Err(format!(
                "warm restart missed the durable memo (loaded {warm_loaded}, hits {warm_hits})"
            ));
        }

        let c = &mut self.counters;
        c.replayed = replayed;
        c.recomputed = recomputed;
        c.store_loaded = store_stats.loaded;
        c.store_skipped = store_stats.skipped;
        c.recovery_wall_ns = recovery_wall_ns;
        c.warm_hits = warm_hits;
        c.warm_served = warm_served;
        Ok(())
    }
}

/// The `eco-serve` binary next to the running `eco-fuzz`.
fn serve_binary() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = exe.parent().ok_or("current_exe has no parent directory")?;
    let bin = dir.join("eco-serve");
    if !bin.exists() {
        return Err(format!(
            "{} not found (build the workspace first; the drill drives the real daemon)",
            bin.display()
        ));
    }
    Ok(bin)
}

/// Feeds `input` to a daemon, closes stdin (graceful drain), and
/// returns (stdout lines, stderr text). A non-zero exit is a crash.
fn run_daemon(bin: &Path, args: &[&str], input: &str) -> Result<(Vec<String>, String), String> {
    let mut child = Command::new(bin)
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("{}: {e}", bin.display()))?;
    {
        // Scoped so stdin drops (EOF) before we wait for the drain.
        let mut stdin = child.stdin.take().expect("stdin is piped");
        stdin
            .write_all(input.as_bytes())
            .map_err(|e| format!("writing daemon stdin: {e}"))?;
    }
    let output = child
        .wait_with_output()
        .map_err(|e| format!("waiting for daemon: {e}"))?;
    let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
    if !output.status.success() {
        return Err(format!("daemon crashed ({}): {stderr}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    Ok((stdout.lines().map(String::from).collect(), stderr))
}

/// Extracts the first `"key": <int>` occurrence from daemon stderr.
/// (The report/summary lines carry a float `wall_s`, so a full
/// integer-only JSON parse would reject them; a keyed scan is enough
/// for the counters the drill reads.)
fn stderr_u64(stderr: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\": ");
    for line in stderr.lines() {
        if let Some(pos) = line.find(&needle) {
            let digits: &str = &line[pos + needle.len()..];
            let end = digits
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(digits.len());
            if end > 0 {
                return digits[..end].parse().ok();
            }
        }
    }
    None
}
