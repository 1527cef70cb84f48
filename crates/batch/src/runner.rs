//! The batch runner: a global scoped-thread worker pool over jobs.
//!
//! Work stealing happens at *job* granularity: every worker thread pulls
//! the next unclaimed job index from one shared atomic counter, so a
//! worker that finishes early immediately picks up work from the rest of
//! the batch instead of idling behind a long job (the same
//! counter-plus-slots pattern the engine uses for clusters, lifted one
//! level up). Each job runs its engine single-threaded (`jobs = 1`) —
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

use eco_core::{
    faultpoint, Budget, BudgetOptions, EcoEngine, EcoError, EcoInstance, EcoOptions, EcoOutcome,
    MemoCache, MemoStats, MemoStore,
};
use eco_netlist::{elaborate, parse_blif, parse_verilog, parse_weights, WeightTable};

use crate::executor::run_indexed;
use crate::manifest::{JobSpec, Manifest};
use crate::wal::{job_fingerprint, load_journal, BatchJournal, BatchJournalState};

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
    /// Base engine options for every job. The runner overrides `jobs`
    /// (to 1), `memo` (to the shared cache), and ignores `budget` (the
    /// apportioned child budget is passed directly).
    pub eco: EcoOptions,
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

/// Runs every job (for every repeat pass) over the shared worker pool
/// and memo cache. Records come back in `(pass, index)` order no matter
/// how the pool interleaved the work.
pub fn run_batch(jobs: &[BatchJob], opts: &BatchOptions) -> BatchOutcome {
    let cache = Arc::new(MemoCache::new());
    let mut persist_errors = 0u64;
    let mut memo_loaded = 0u64;
    // Crash-safety state: recover the durable memo store and the job
    // journal before anything executes. Failures here degrade to an
    // in-memory run (counted), they never abort the batch.
    let store = opts
        .journal
        .as_deref()
        .and_then(|dir| match MemoStore::open(dir) {
            Ok(store) => {
                let loaded = store.load_into(&cache);
                memo_loaded = loaded.loaded;
                persist_errors += loaded.skipped;
                store.attach(&cache);
                Some(store)
            }
            Err(_) => {
                persist_errors += 1;
                None
            }
        });
    let resume_state: Option<BatchJournalState> = if opts.resume {
        opts.journal
            .as_deref()
            .and_then(|dir| match load_journal(dir) {
                Ok(state) => {
                    persist_errors += state.log.skipped_frames + state.bad_records;
                    Some(state)
                }
                Err(_) => {
                    persist_errors += 1;
                    None
                }
            })
    } else {
        None
    };
    let journal = opts
        .journal
        .as_deref()
        .and_then(|dir| match BatchJournal::open(dir) {
            Ok(j) => Some(j),
            Err(_) => {
                persist_errors += 1;
                None
            }
        });
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
            if let Some(state) = &resume_state {
                if let Some(record) = state.done.get(&fp) {
                    // Completed before the crash: replay the journaled
                    // record verbatim, never recompute.
                    reused.fetch_add(1, Ordering::Relaxed);
                    return record.clone();
                }
            }
            if let Some(journal) = &journal {
                // Write-ahead: the job is on disk before it executes, so
                // a kill here is a journaled-but-unfinished job the next
                // resume picks up.
                journal.admit(fp);
            }
            let record = run_job(
                pass,
                index,
                &jobs[index],
                opts,
                &run_budget,
                apportioned,
                &cache,
            );
            if let Some(journal) = &journal {
                journal.done(fp, &record);
            }
            record
        };
        // The shared claim-counter pool (executor.rs): one slot per job,
        // merged in index order, panicking jobs isolated to one error
        // record with poison-recovering slot locks.
        records.extend(run_indexed(workers, jobs.len(), run_one, |index| {
            panic_record(pass, index, &jobs[index].name)
        }));
        pass_wall.push(t0.elapsed());
    }

    if let Some(store) = &store {
        // Graceful finish: compact the journaled entries into the
        // snapshot so the next run warm-starts from one clean file.
        if store.snapshot(&cache).is_err() {
            persist_errors += 1;
        }
        persist_errors += store.append_errors();
    }
    if let Some(journal) = &journal {
        persist_errors += journal.append_errors();
    }

    BatchOutcome {
        records,
        pass_wall,
        memo: cache.stats(),
        reused: reused.load(Ordering::Relaxed),
        memo_loaded,
        persist_errors,
    }
}

fn resolve_workers(jobs: usize) -> usize {
    if jobs != 0 {
        return jobs;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The error record substituted when a job's worker panicked outside the
/// engine's own isolation (e.g. mid-slot-write).
fn panic_record(pass: usize, index: usize, name: &str) -> JobRecord {
    JobRecord {
        pass,
        index,
        name: name.to_string(),
        status: JobStatus::Error,
        targets: 0,
        patches: 0,
        cost: 0,
        size: 0,
        verified: false,
        detail: "job worker panicked".into(),
    }
}

fn run_job(
    pass: usize,
    index: usize,
    job: &BatchJob,
    opts: &BatchOptions,
    run_budget: &Budget,
    apportioned: Option<u64>,
    cache: &Arc<MemoCache>,
) -> JobRecord {
    let allowance = match (apportioned, job.budget) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    };
    let budget = run_budget.child(allowance);
    let mut record = execute_job(&job.name, &job.source, &opts.eco, &budget, cache);
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
    let mut record = JobRecord {
        pass: 0,
        index: 0,
        name: name.to_string(),
        status: JobStatus::Error,
        targets: 0,
        patches: 0,
        cost: 0,
        size: 0,
        verified: false,
        detail: String::new(),
    };
    let instance = match source {
        Ok(instance) => instance,
        Err(msg) => {
            record.detail = msg.clone();
            return record;
        }
    };
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
        Err(_) => record.detail = "job worker panicked".into(),
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
