//! The batch runner: a global scoped-thread worker pool over jobs.
//!
//! Work stealing happens at *job* granularity: every worker thread pulls
//! the next unclaimed job index from one shared atomic counter, so a
//! worker that finishes early immediately picks up work from the rest of
//! the batch instead of idling behind a long job (the engine's
//! claim-counter pool, [`eco_core::run_indexed`], lifted one level up).
//! Each job runs its engine single-threaded (`jobs = 1`) —
//! the pool is already saturated at job granularity, and nesting
//! per-cluster pools under it would oversubscribe the machine.
//!
//! All jobs share one [`MemoCache`], so a complete verified result
//! computed for one job is reused by every structurally identical
//! instance later in the batch — including later `repeat` passes, which
//! model warm-cache runs.
//!
//! The run-wide budget is apportioned: each job's [`Budget::child`]
//! shares the batch deadline while the conflict allowance is divided
//! evenly across jobs (a per-job manifest `budget` tightens it further).
//! A starved batch therefore degrades job by job to `Partial` records
//! instead of failing wholesale. Note that a job running under any
//! limit bypasses the memo cache (truncated results are not reusable
//! pure functions; see `eco_core::memo`).

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use eco_aig::FpHasher;
use eco_core::{
    faultpoint, resolve_workers, run_indexed, Budget, BudgetOptions, EcoEngine, EcoError,
    EcoInstance, EcoOptions, EcoOutcome, MemoCache, MemoStats, StateDir, BATCH_WAL,
};
use eco_netlist::{elaborate, parse_blif, parse_verilog, parse_weights, WeightTable};

use crate::manifest::{JobSpec, Manifest};
use crate::report::{record_from_json, record_json};

/// Knobs for a batch run.
#[derive(Clone, Debug, Default)]
pub struct BatchOptions {
    /// Worker threads stealing jobs; `0` = one per available core.
    pub jobs: usize,
    /// Passes over the job list sharing one memo cache (`0` acts as 1).
    /// Pass 0 is the cold run; later passes model warm-cache runs.
    pub repeat: usize,
    /// Run-wide governor budget, apportioned across jobs.
    pub budget: BudgetOptions,
    /// State directory for crash safety: a write-ahead job journal
    /// (`batch.wal`) plus the durable memo store (`memo.snap` /
    /// `memo.wal`). `None` (the default) runs fully in memory.
    pub journal: Option<PathBuf>,
    /// Replay `journal` before running: completed jobs (matched by
    /// content fingerprint) are emitted verbatim from the journal, only
    /// unfinished ones execute. Requires `journal`.
    pub resume: bool,
}

/// How a job ended, in order of increasing exit-code severity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobStatus {
    /// Every cluster patched and the result freshly verified.
    Complete,
    /// The governor degraded the job to completed clusters only.
    Partial,
    /// Proven impossible to rectify over the given candidates.
    Unrectifiable,
    /// Load, parse, or engine error (including a panicking worker).
    Error,
}

impl JobStatus {
    /// Lowercase tag used in JSONL records.
    pub fn tag(self) -> &'static str {
        match self {
            JobStatus::Complete => "complete",
            JobStatus::Partial => "partial",
            JobStatus::Unrectifiable => "unrectifiable",
            JobStatus::Error => "error",
        }
    }

    /// Inverse of [`JobStatus::tag`] (journal replay).
    pub fn from_tag(tag: &str) -> Option<JobStatus> {
        match tag {
            "complete" => Some(JobStatus::Complete),
            "partial" => Some(JobStatus::Partial),
            "unrectifiable" => Some(JobStatus::Unrectifiable),
            "error" => Some(JobStatus::Error),
            _ => None,
        }
    }
}

/// One job's deterministic outcome record — exactly the fields that are
/// a pure function of the instance and options, so the JSONL report is
/// byte-identical for any `--jobs` setting. Timing and cache counters
/// deliberately live elsewhere ([`BatchOutcome`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobRecord {
    /// Repeat pass this record belongs to (0 = cold).
    pub pass: usize,
    /// Job index in manifest order.
    pub index: usize,
    /// Job name from the manifest.
    pub name: String,
    /// Outcome class.
    pub status: JobStatus,
    /// Number of rectification targets.
    pub targets: usize,
    /// Patches emitted (one per target on completion).
    pub patches: usize,
    /// Total base cost of the emitted patches.
    pub cost: u64,
    /// Total patch size in AND gates.
    pub size: u64,
    /// `true` iff a fresh SAT miter proved the patched circuit
    /// equivalent to the golden one in *this* run (memo hits included:
    /// cached patches are re-verified before being trusted).
    pub verified: bool,
    /// Failure reason or degradation summary; empty on completion.
    pub detail: String,
}

/// A loaded batch entry: a named instance or the error that prevented
/// loading it (kept so one broken entry doesn't abort the batch).
pub struct BatchJob {
    /// Display name for reports.
    pub name: String,
    /// The instance, or why it could not be built.
    pub source: Result<EcoInstance, String>,
    /// Optional per-job conflict allowance from the manifest.
    pub budget: Option<u64>,
}

impl BatchJob {
    /// Wraps an in-memory instance (mainly for tests and embedding).
    pub fn from_instance(name: impl Into<String>, instance: EcoInstance) -> Self {
        BatchJob {
            name: name.into(),
            source: Ok(instance),
            budget: None,
        }
    }
}

/// Everything a batch run produced.
pub struct BatchOutcome {
    /// Job records for all passes, sorted by `(pass, index)`.
    pub records: Vec<JobRecord>,
    /// Wall-clock time of each pass (cold first).
    pub pass_wall: Vec<Duration>,
    /// Final shared-cache counters.
    pub memo: MemoStats,
    /// Records replayed from the journal instead of recomputed
    /// (`--resume` only).
    pub reused: u64,
    /// Memo entries recovered from the durable store on startup.
    pub memo_loaded: u64,
    /// Journal/store records skipped as corrupt or torn, plus journal
    /// appends and store operations that failed (durability degraded,
    /// the batch continued).
    pub persist_errors: u64,
}

/// Builds [`BatchJob`]s from a manifest, reading circuits and weights
/// from disk. Load failures become `Err` sources, not panics.
pub fn load_jobs(manifest: &Manifest) -> Vec<BatchJob> {
    manifest
        .jobs
        .iter()
        .map(|spec| BatchJob {
            name: spec.name.clone(),
            source: load_job_instance(spec),
            budget: spec.budget,
        })
        .collect()
}

/// Loads one job spec's circuits and weights into an [`EcoInstance`] —
/// the one loader of the manifest runner, `eco-serve` requests and the
/// combinational `eco-patch` flow. Circuits are `.v` or `.blif`; any
/// other extension is an error. Failures are messages, not panics.
pub fn load_job_instance(spec: &JobSpec) -> Result<EcoInstance, String> {
    let faulty_verilog = is_verilog(&spec.faulty)?;
    let golden_verilog = is_verilog(&spec.golden)?;
    let read = |p: &Path| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
    let weights = match &spec.weights {
        Some(p) => parse_weights(&read(p)?).map_err(|e| format!("{}: {e}", p.display()))?,
        None => WeightTable::new(1),
    };
    // Verilog pairs keep the gate structure, so `from_netlists` filters
    // base candidates by *structural* target independence (constant
    // folding can hide a physical fanout path, and tapping such a net
    // would wire a combinational loop). BLIF loses the gate structure at
    // parse time, so that path keeps the AIG-level filter only (see
    // `EcoInstance::from_elaborated`).
    if faulty_verilog && golden_verilog {
        let faulty = parse_verilog(&read(&spec.faulty)?)
            .map_err(|e| format!("{}: {e}", spec.faulty.display()))?;
        let golden = parse_verilog(&read(&spec.golden)?)
            .map_err(|e| format!("{}: {e}", spec.golden.display()))?;
        let targets = if spec.targets.is_empty() {
            default_targets(faulty.inputs.iter().map(String::as_str))?
        } else {
            spec.targets.clone()
        };
        EcoInstance::from_netlists(&spec.name, &faulty, &golden, targets, &weights)
            .map_err(|e| e.to_string())
    } else {
        let (faulty_aig, faulty_nets) = read_circuit(&spec.faulty, faulty_verilog)?;
        let (golden_aig, _) = read_circuit(&spec.golden, golden_verilog)?;
        let targets = if spec.targets.is_empty() {
            default_targets((0..faulty_aig.num_inputs()).map(|i| faulty_aig.input_name(i)))?
        } else {
            spec.targets.clone()
        };
        EcoInstance::from_elaborated(
            &spec.name,
            faulty_aig,
            &faulty_nets,
            golden_aig,
            targets,
            &weights,
        )
        .map_err(|e| e.to_string())
    }
}

/// Default targets when the manifest names none: every `t_`-prefixed
/// input of the faulty circuit (the workgen/contest convention).
fn default_targets<'a>(inputs: impl Iterator<Item = &'a str>) -> Result<Vec<String>, String> {
    let targets: Vec<String> = inputs
        .filter(|n| n.starts_with("t_"))
        .map(str::to_string)
        .collect();
    if targets.is_empty() {
        return Err(
            "no targets: manifest names none and the faulty circuit has no \
                    t_-prefixed inputs"
                .into(),
        );
    }
    Ok(targets)
}

/// Whether a circuit path names structural Verilog (`.v`) rather than
/// BLIF (`.blif`); any other extension, or none, is an error.
fn is_verilog(path: &Path) -> Result<bool, String> {
    match path.extension().and_then(|e| e.to_str()) {
        Some("v") => Ok(true),
        Some("blif") => Ok(false),
        ext => Err(format!(
            "{}: unsupported circuit extension {}; expected .v or .blif \
             (convert other formats with eco-convert)",
            path.display(),
            ext.map_or("(none)".to_string(), |e| format!("`.{e}`")),
        )),
    }
}

/// Reads a circuit into an AIG plus its net map.
fn read_circuit(
    path: &Path,
    verilog: bool,
) -> Result<(eco_aig::Aig, HashMap<String, eco_aig::Lit>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    if verilog {
        let nl = parse_verilog(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let e = elaborate(&nl).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok((e.aig, e.net_lits))
    } else {
        let m = parse_blif(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok((m.aig, m.net_lits))
    }
}

/// Content fingerprint identifying one job slot of one pass: the
/// `batch.wal` key a resume replays by. Covers the pass, index, name,
/// per-job budget, and — for loadable jobs — both circuits' structural
/// fingerprints plus the target list (for broken jobs, the load error
/// text), so editing an input between crash and resume forces that job
/// to recompute.
pub fn job_fingerprint(pass: usize, index: usize, job: &BatchJob) -> u128 {
    let mut h = FpHasher::new();
    h.word(0xba7c_4a1d); // domain tag: batch WAL fingerprints
    h.word(pass as u64);
    h.word(index as u64);
    h.str(&job.name);
    h.word(job.budget.unwrap_or(u64::MAX));
    match &job.source {
        Ok(inst) => {
            for fp in [
                inst.faulty.structural_fingerprint(),
                inst.golden.structural_fingerprint(),
            ] {
                h.word(fp.0 as u64);
                h.word((fp.0 >> 64) as u64);
                h.word(fp.1 as u64);
                h.word((fp.1 >> 64) as u64);
            }
            h.word(inst.targets.len() as u64);
            for t in &inst.targets {
                h.str(t);
            }
        }
        Err(msg) => {
            h.str("load-error");
            h.str(msg);
        }
    }
    h.finish().0
}

/// Runs every job (for every repeat pass) over the shared worker pool
/// and memo cache. Records come back in `(pass, index)` order no matter
/// how the pool interleaved the work.
pub fn run_batch(jobs: &[BatchJob], opts: &BatchOptions) -> BatchOutcome {
    let cache = Arc::new(MemoCache::new());
    // Crash-safety state: recover the durable memo store and the job
    // journal before anything executes. Failures here degrade to an
    // in-memory run (counted), they never abort the batch.
    let state = opts
        .journal
        .as_deref()
        .map(|dir| StateDir::open(dir, BATCH_WAL, &cache));
    // Completed records by job fingerprint, replayed verbatim on resume;
    // a done body that no longer decodes is counted and recomputed.
    let mut undecodable = 0u64;
    let replay: HashMap<u128, JobRecord> = match &state {
        Some(state) if opts.resume => state
            .load_journal()
            .map(|loaded| loaded.done)
            .unwrap_or_default()
            .into_iter()
            .filter_map(|(fp, line)| {
                let record = record_from_json(&line).ok();
                undecodable += u64::from(record.is_none());
                record.map(|record| (fp, record))
            })
            .collect(),
        _ => HashMap::new(),
    };
    let journal = state.as_ref().and_then(StateDir::journal);
    let reused = AtomicU64::new(0);
    let run_budget = Budget::new(&opts.budget);
    // Apportion the batch-wide conflict allowance evenly across jobs.
    let apportioned = opts
        .budget
        .cluster_conflicts
        .map(|total| (total / jobs.len().max(1) as u64).max(1));
    let workers = resolve_workers(opts.jobs).min(jobs.len().max(1));
    let repeat = opts.repeat.max(1);

    let mut records = Vec::with_capacity(jobs.len() * repeat);
    let mut pass_wall = Vec::with_capacity(repeat);
    for pass in 0..repeat {
        let t0 = Instant::now();
        let run_one = |index: usize| {
            let fp = job_fingerprint(pass, index, &jobs[index]);
            if let Some(record) = replay.get(&fp) {
                // Completed before the crash: replay the journaled
                // record verbatim, never recompute.
                reused.fetch_add(1, Ordering::Relaxed);
                return record.clone();
            }
            faultpoint::scoped(fp, || {
                if let Some(journal) = journal {
                    // Write-ahead: the job is on disk before it executes,
                    // so a kill here is a journaled-but-unfinished job the
                    // next resume picks up.
                    journal.admit(fp, "");
                }
                let record = run_job(pass, index, &jobs[index], &run_budget, apportioned, &cache);
                if let Some(journal) = journal {
                    journal.done(fp, &record_json(&record));
                }
                record
            })
        };
        // The shared claim-counter pool: one slot per job, merged in
        // index order, panicking jobs isolated to one error record.
        records.extend(run_indexed(workers, jobs.len(), run_one, |index, _| {
            JobRecord {
                pass,
                index,
                ..panic_record(&jobs[index].name)
            }
        }));
        pass_wall.push(t0.elapsed());
    }

    // Graceful finish: compact the journaled entries into the snapshot
    // so the next run warm-starts from one clean file.
    let (memo_loaded, persist_errors) = state.as_ref().map_or((0, 0), |state| {
        state.snapshot(&cache);
        (state.memo_loaded(), state.persist_errors() + undecodable)
    });
    BatchOutcome {
        records,
        pass_wall,
        memo: cache.stats(),
        reused: reused.load(Ordering::Relaxed),
        memo_loaded,
        persist_errors,
    }
}

/// The `error` record of job `name` whose worker panicked (pass and
/// index 0), in eco-batch and eco-serve alike.
pub fn panic_record(name: &str) -> JobRecord {
    error_record(name, "job worker panicked")
}

/// An `error` record of job `name` that patched nothing.
fn error_record(name: &str, detail: &str) -> JobRecord {
    JobRecord {
        pass: 0,
        index: 0,
        name: name.to_string(),
        status: JobStatus::Error,
        targets: 0,
        patches: 0,
        cost: 0,
        size: 0,
        verified: false,
        detail: detail.to_string(),
    }
}

/// The budget one job runs under, in eco-batch and eco-serve alike: the
/// run's deadline and cancellation flag, with the tighter of the run's
/// per-job conflict allowance and the job's own.
pub fn job_budget(run: &Budget, per_job: Option<u64>, job: Option<u64>) -> Budget {
    let allowance = match (per_job, job) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    };
    run.child(allowance)
}

fn run_job(
    pass: usize,
    index: usize,
    job: &BatchJob,
    run_budget: &Budget,
    apportioned: Option<u64>,
    cache: &Arc<MemoCache>,
) -> JobRecord {
    let mut record = execute_job(
        &job.name,
        &job.source,
        &EcoOptions::default(),
        &job_budget(run_budget, apportioned, job.budget),
        cache,
    );
    record.pass = pass;
    record.index = index;
    record
}

/// Runs one loaded job to a deterministic [`JobRecord`] — the shared
/// execution core of the batch runner and the `eco-serve` daemon.
///
/// The engine runs single-threaded (`jobs = 1`; the caller's pool is
/// already saturated at job granularity) over the shared `cache`, under
/// `budget` (derive it with [`Budget::child`] to apportion a wider
/// allowance). A panicking engine becomes an `error` record instead of
/// unwinding into the caller's pool. `pass` and `index` are zero;
/// callers embedding the record in a batch set them afterwards.
pub fn execute_job(
    name: &str,
    source: &Result<EcoInstance, String>,
    eco_base: &EcoOptions,
    budget: &Budget,
    cache: &Arc<MemoCache>,
) -> JobRecord {
    let instance = match source {
        Ok(instance) => instance,
        Err(msg) => return error_record(name, msg),
    };
    let mut record = error_record(name, "");
    record.targets = instance.targets.len();

    let mut eco = eco_base.clone();
    eco.jobs = 1;
    eco.memo = Some(Arc::clone(cache));
    let engine = EcoEngine::new(instance.clone(), eco);

    // A panicking job must not take the whole batch (and its scoped pool)
    // down with it; it becomes an `error` record like any other failure.
    // The chaos `solver.panic` site detonates here, inside the isolation
    // boundary it exists to exercise.
    match catch_unwind(AssertUnwindSafe(|| {
        faultpoint::maybe_panic("solver.panic");
        engine.run_governed(budget)
    })) {
        Err(_) => {
            record = JobRecord {
                targets: record.targets,
                ..panic_record(name)
            }
        }
        Ok(Err(EcoError::Unrectifiable(why))) => {
            record.status = JobStatus::Unrectifiable;
            record.detail = why;
        }
        Ok(Err(e)) => record.detail = e.to_string(),
        Ok(Ok(EcoOutcome::Complete(result))) => {
            record.status = JobStatus::Complete;
            record.patches = result.patches.len();
            record.cost = result.cost;
            record.size = result.size as u64;
            record.verified = true;
        }
        Ok(Ok(EcoOutcome::Partial(partial))) => {
            record.status = JobStatus::Partial;
            record.patches = partial.patches.len();
            record.cost = partial.cost;
            record.size = partial.size as u64;
            record.detail = partial.reason;
        }
    }
    record
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("eco_batch_runner_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn record(index: usize) -> JobRecord {
        JobRecord {
            pass: 0,
            index,
            name: format!("job{index}"),
            status: JobStatus::Complete,
            targets: 1,
            patches: 1,
            cost: 5,
            size: 3,
            verified: true,
            detail: String::new(),
        }
    }

    /// The `batch.wal` of `admit 7, done 7 (record 0), admit 9`, byte
    /// for byte as older binaries write it: a resume on a newer binary
    /// must keep replaying the journal an older one left behind.
    const PINNED_BATCH_WAL: &str = "\
        45434f4257414c31110000008bc2b0b301070000000000000000000000000000\
        009e00000061a7ccd402070000000000000000000000000000007b2270617373\
        223a20302c20226a6f62223a20302c20226e616d65223a20226a6f6230222c20\
        22737461747573223a2022636f6d706c657465222c202274617267657473223a\
        20312c202270617463686573223a20312c2022636f7374223a20352c20227369\
        7a65223a20332c20227665726966696564223a20747275652c20226465746169\
        6c223a2022227d11000000203432930109000000000000000000000000000000";

    #[test]
    fn batch_wal_bytes_are_pinned() {
        let dir = tmpdir("pinned");
        // The runner's write-ahead pair, for one finished job and the
        // crash victim after it.
        let journal = BATCH_WAL.open(&dir).expect("open");
        journal.admit(7, "");
        journal.done(7, &record_json(&record(0)));
        journal.admit(9, "");
        assert_eq!((journal.appended(), journal.append_errors()), (3, 0));
        drop(journal);
        let bytes = std::fs::read(dir.join("batch.wal")).expect("read");
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, PINNED_BATCH_WAL);

        let state = BATCH_WAL.load(&dir).expect("load");
        assert_eq!(state.skipped(), 0);
        let admitted: Vec<u128> = state.admits.iter().map(|(fp, _)| *fp).collect();
        assert_eq!(admitted, [7, 9]);
        assert_eq!(state.done.len(), 1, "9 never finished");
        let done = record_from_json(&state.done[&7]).expect("done body decodes");
        assert_eq!(done, record(0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprints_separate_slots_and_content() {
        let inst = || {
            EcoInstance::from_netlists(
                "fp",
                &parse_verilog(
                    "module f (a, b, c, t, y); input a, b, c, t; output y; \
                     xor g1 (y, t, c); endmodule",
                )
                .expect("faulty"),
                &parse_verilog(
                    "module g (a, b, c, y); input a, b, c; output y; \
                     wire w; and g1 (w, a, b); xor g2 (y, w, c); endmodule",
                )
                .expect("golden"),
                vec!["t".into()],
                &WeightTable::new(1),
            )
            .expect("instance")
        };
        let job = BatchJob::from_instance("a", inst());
        assert_eq!(
            job_fingerprint(0, 0, &job),
            0x5078_60ee_961b_c0e3_bfd5_7f20_23ee_9903,
            "the resume key of journals older binaries wrote"
        );
        assert_ne!(
            job_fingerprint(0, 0, &job),
            job_fingerprint(1, 0, &job),
            "pass is part of the key"
        );
        assert_ne!(
            job_fingerprint(0, 0, &job),
            job_fingerprint(0, 1, &job),
            "index is part of the key"
        );
        let broken = BatchJob {
            name: "a".into(),
            source: Err("no such file".into()),
            budget: None,
        };
        assert_ne!(
            job_fingerprint(0, 0, &job),
            job_fingerprint(0, 0, &broken),
            "content is part of the key"
        );
    }

    fn spec(faulty: &str, golden: &str) -> JobSpec {
        JobSpec {
            name: "t".into(),
            faulty: faulty.into(),
            golden: golden.into(),
            weights: None,
            targets: vec!["t_0".into()],
            budget: None,
        }
    }

    /// Paths other than `.v`/`.blif` are refused by name before any file
    /// is read.
    #[test]
    fn unsupported_circuit_extensions_are_named() {
        let err = load_job_instance(&spec("/nonexistent/f.aag", "/nonexistent/g.aag"))
            .expect_err("an .aag pair is refused");
        assert!(
            err.starts_with("/nonexistent/f.aag: unsupported circuit extension `.aag`"),
            "{err}"
        );
        assert!(
            err.contains(".v or .blif") && err.contains("eco-convert"),
            "{err}"
        );
        let err = load_job_instance(&spec("/nonexistent/f.v", "/nonexistent/golden"))
            .expect_err("an extensionless golden is refused");
        assert!(
            err.starts_with("/nonexistent/golden: unsupported circuit extension (none)"),
            "{err}"
        );
    }
}
