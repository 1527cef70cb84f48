//! End-to-end run telemetry: per-stage timers, aggregated SAT / FRAIG
//! counters, and structured events.
//!
//! One [`Telemetry`] instance lives for a whole [`crate::EcoEngine::run`]
//! (both the localized attempt and, if it fails verification, the
//! unlocalized fallback). It is `Sync` — counters are atomics and events
//! sit behind a mutex — so the scoped worker threads of the parallel
//! patch-generation stage record into it directly. The immutable
//! [`TelemetrySnapshot`] taken at the end is what [`crate::EcoResult`]
//! carries and what the CLI renders for `--stats[=json]`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use eco_fraig::SweepStats;
use eco_sat::SolverStats;

/// A flow stage (Fig. 1), as a telemetry key.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// FRAIG sweeping (summed across per-cluster sub-workspaces; with
    /// `jobs > 1` the sweeps overlap the `PatchGen` wall clock).
    Fraig,
    /// Target clustering.
    Clustering,
    /// Patch generation (Alg. 1), wall clock of the whole — possibly
    /// parallel — per-cluster section plus the deterministic merge.
    PatchGen,
    /// Cost optimization and size reduction (§6, §2.4).
    Optimize,
    /// Equivalence verification (untouched outputs + final check).
    Verify,
    /// Result assembly: patch extraction, pruning, patch-side FRAIG.
    Assemble,
}

impl Stage {
    /// All stages, in flow order.
    pub const ALL: [Stage; 6] = [
        Stage::Fraig,
        Stage::Clustering,
        Stage::PatchGen,
        Stage::Optimize,
        Stage::Verify,
        Stage::Assemble,
    ];

    /// Stable lowercase name (used as the JSON key).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Fraig => "fraig",
            Stage::Clustering => "clustering",
            Stage::PatchGen => "patchgen",
            Stage::Optimize => "optimize",
            Stage::Verify => "verify",
            Stage::Assemble => "assemble",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Aggregated CDCL solver totals across every SAT instance of a run
/// (synthesis, interpolation, rebasing, size reduction, verification, and
/// the solvers inside FRAIG sweeps).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SatTotals {
    /// Solver instances whose stats were folded in.
    pub solvers: u64,
    /// Total conflicts.
    pub conflicts: u64,
    /// Total branching decisions.
    pub decisions: u64,
    /// Total propagated literals.
    pub propagations: u64,
    /// Total restarts.
    pub restarts: u64,
    /// Total learned clauses.
    pub learned: u64,
    /// Clauses shortened by inprocessing vivification.
    pub vivified_clauses: u64,
    /// Clauses removed by inprocessing (self-)subsumption.
    pub subsumed_clauses: u64,
    /// Variables removed by bounded variable elimination.
    pub eliminated_vars: u64,
}

/// Aggregated FRAIG sweep totals across every sweep of a run (one per
/// cluster sub-workspace, plus the final patch-AIG reduction).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SweepTotals {
    /// Sweeps folded in.
    pub sweeps: u64,
    /// Sweeps decided by exhaustive simulation of a small support (no
    /// solver built).
    pub exhaustive_sweeps: u64,
    /// Class merges decided by exhaustive simulation (not SAT queries:
    /// `sat_calls` and `proven` count SAT work only).
    pub exhaustive_merges: u64,
    /// Refinement rounds.
    pub rounds: u64,
    /// SAT equivalence queries issued.
    pub sat_calls: u64,
    /// Candidate pairs proven equivalent.
    pub proven: u64,
    /// Candidate pairs disproved by a counterexample.
    pub disproved: u64,
    /// Queries abandoned on the conflict budget.
    pub budgeted_out: u64,
    /// Counterexample patterns fed back into simulation.
    pub cex_patterns: u64,
    /// Activation literals retired with a level-0 unit after their query.
    pub retired_activations: u64,
    /// Simulation word-columns actually computed.
    pub resim_columns: u64,
    /// Simulation word-columns skipped by incremental re-simulation.
    pub resim_columns_saved: u64,
}

/// Peak resident-set size of this process, in bytes, when the platform
/// exposes it.
///
/// Std-only: on Linux this parses the `VmHWM` line (resident-set
/// high-water mark, reported in kibibytes) of `/proc/self/status`; on
/// every other platform it returns `None`. The kernel value is
/// process-wide and monotone, so sampling it once at snapshot time is
/// enough to capture the run's peak.
pub fn peak_rss_bytes() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        for line in status.lines() {
            if let Some(rest) = line.strip_prefix("VmHWM:") {
                let kib: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
                return Some(kib * 1024);
            }
        }
        None
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// Escapes a string for embedding in a JSON string literal.
///
/// Shared by every hand-rolled JSON emitter in the workspace
/// (`eco-patch --stats=json`, `eco-fuzz --stats=json`, `eco-batch`).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Incremental builder for one JSON object: values are rendered eagerly,
/// keys appear in insertion order, output is a single line.
///
/// This is the one JSON emitter shared by all the workspace's stats
/// formats, so field names can't drift between binaries.
#[derive(Clone, Debug, Default)]
pub struct JsonObj {
    fields: Vec<String>,
}

impl JsonObj {
    /// An empty object.
    pub fn new() -> Self {
        JsonObj::default()
    }

    /// Adds an unsigned integer field.
    pub fn u64(mut self, key: &str, v: u64) -> Self {
        self.fields.push(format!("\"{}\": {}", json_escape(key), v));
        self
    }

    /// Adds a floating-point field (serialized with full precision).
    pub fn f64(mut self, key: &str, v: f64) -> Self {
        self.fields.push(format!("\"{}\": {}", json_escape(key), v));
        self
    }

    /// Adds a boolean field.
    pub fn bool(mut self, key: &str, v: bool) -> Self {
        self.fields.push(format!("\"{}\": {}", json_escape(key), v));
        self
    }

    /// Adds an escaped string field.
    pub fn str(mut self, key: &str, v: &str) -> Self {
        self.fields
            .push(format!("\"{}\": \"{}\"", json_escape(key), json_escape(v)));
        self
    }

    /// Adds a pre-rendered JSON value (nested object, array, `null`, …).
    pub fn raw(mut self, key: &str, v: &str) -> Self {
        self.fields.push(format!("\"{}\": {}", json_escape(key), v));
        self
    }

    /// Adds an array of pre-rendered JSON values.
    pub fn arr(mut self, key: &str, items: &[String]) -> Self {
        self.fields
            .push(format!("\"{}\": [{}]", json_escape(key), items.join(", ")));
        self
    }

    /// Adds an array of escaped strings.
    pub fn str_arr(self, key: &str, items: &[String]) -> Self {
        let rendered: Vec<String> = items
            .iter()
            .map(|s| format!("\"{}\"", json_escape(s)))
            .collect();
        self.arr(key, &rendered)
    }

    /// Renders the object.
    pub fn build(self) -> String {
        format!("{{{}}}", self.fields.join(", "))
    }
}

/// One structured event (e.g. a fallback firing), with a human-readable
/// detail string.
#[derive(Clone, Debug)]
pub struct TelemetryEvent {
    /// Stage the event belongs to.
    pub stage: &'static str,
    /// Stable machine-readable label, e.g. `localization_fallback`.
    pub label: String,
    /// Free-form detail (counterexample summary, target index, …).
    pub detail: String,
}

/// Immutable copy of all telemetry of one run.
#[derive(Clone, Debug, Default)]
pub struct TelemetrySnapshot {
    /// Nanoseconds per stage, indexed like [`Stage::ALL`].
    pub stage_ns: [u64; 6],
    /// Aggregated SAT solver totals.
    pub sat: SatTotals,
    /// Aggregated FRAIG sweep totals.
    pub sweep: SweepTotals,
    /// Target clusters processed (summed over attempts).
    pub clusters: u64,
    /// Worker threads used by the patch-generation stage.
    pub jobs: u64,
    /// Patches synthesized by interpolation.
    pub interpolated: u64,
    /// Interpolation attempts that fell back to the on-set.
    pub interpolation_fallbacks: u64,
    /// Localized attempts that failed verification and were retried
    /// without localization.
    pub localization_fallbacks: u64,
    /// Clusters that completed all their patches.
    pub clusters_patched: u64,
    /// Clusters whose conflict allowance ran out mid-synthesis.
    pub clusters_budget_exhausted: u64,
    /// Clusters stopped by the run deadline (or an external cancel).
    pub clusters_deadline: u64,
    /// Clusters whose worker panicked (isolated, not fatal).
    pub clusters_panicked: u64,
    /// Budget-escalation retries taken by the synthesis ladder.
    pub escalations: u64,
    /// Memo-cache hits (sweep, rectifiability, or whole-instance patch).
    pub memo_hits: u64,
    /// Memo-cache misses (entry absent or check digest mismatched).
    pub memo_misses: u64,
    /// Memo hits discarded because revalidation (fresh SAT miter or
    /// counterexample B-check) refuted the cached entry.
    pub memo_fallbacks: u64,
    /// Peak resident-set size in bytes at snapshot time, `None` when the
    /// platform does not expose it (see [`peak_rss_bytes`]).
    pub peak_rss_bytes: Option<u64>,
    /// Structured events, in recording order.
    pub events: Vec<TelemetryEvent>,
}

impl TelemetrySnapshot {
    /// Nanoseconds recorded for `stage`.
    pub fn stage_nanos(&self, stage: Stage) -> u64 {
        self.stage_ns[stage.index()]
    }

    /// Hand-rolled JSON rendering via the shared [`JsonObj`] builder
    /// (stable keys, no external deps).
    pub fn to_json(&self) -> String {
        let mut stages = JsonObj::new();
        for s in Stage::ALL {
            stages = stages.u64(&format!("{}_ns", s.name()), self.stage_nanos(s));
        }
        let sat = JsonObj::new()
            .u64("solvers", self.sat.solvers)
            .u64("conflicts", self.sat.conflicts)
            .u64("decisions", self.sat.decisions)
            .u64("propagations", self.sat.propagations)
            .u64("restarts", self.sat.restarts)
            .u64("learned", self.sat.learned)
            .u64("vivified_clauses", self.sat.vivified_clauses)
            .u64("subsumed_clauses", self.sat.subsumed_clauses)
            .u64("eliminated_vars", self.sat.eliminated_vars);
        let fraig = JsonObj::new()
            .u64("sweeps", self.sweep.sweeps)
            .u64("exhaustive_sweeps", self.sweep.exhaustive_sweeps)
            .u64("exhaustive_merges", self.sweep.exhaustive_merges)
            .u64("rounds", self.sweep.rounds)
            .u64("sat_calls", self.sweep.sat_calls)
            .u64("proven", self.sweep.proven)
            .u64("disproved", self.sweep.disproved)
            .u64("budgeted_out", self.sweep.budgeted_out)
            .u64("cex_patterns", self.sweep.cex_patterns)
            .u64("retired_activations", self.sweep.retired_activations)
            .u64("resim_columns", self.sweep.resim_columns)
            .u64("resim_columns_saved", self.sweep.resim_columns_saved);
        let governor = JsonObj::new()
            .u64("clusters_patched", self.clusters_patched)
            .u64("clusters_budget_exhausted", self.clusters_budget_exhausted)
            .u64("clusters_deadline", self.clusters_deadline)
            .u64("clusters_panicked", self.clusters_panicked)
            .u64("escalations", self.escalations);
        let memo = JsonObj::new()
            .u64("hits", self.memo_hits)
            .u64("misses", self.memo_misses)
            .u64("fallbacks", self.memo_fallbacks);
        let events: Vec<String> = self
            .events
            .iter()
            .map(|e| {
                JsonObj::new()
                    .str("stage", e.stage)
                    .str("label", &e.label)
                    .str("detail", &e.detail)
                    .build()
            })
            .collect();
        let obj = JsonObj::new()
            .raw("stages", &stages.build())
            .raw("sat", &sat.build())
            .raw("fraig", &fraig.build())
            .u64("clusters", self.clusters)
            .u64("jobs", self.jobs)
            .u64("interpolated", self.interpolated)
            .u64("interpolation_fallbacks", self.interpolation_fallbacks)
            .u64("localization_fallbacks", self.localization_fallbacks)
            .raw("governor", &governor.build())
            .raw("memo", &memo.build());
        let obj = match self.peak_rss_bytes {
            Some(b) => obj.u64("peak_rss_bytes", b),
            None => obj.raw("peak_rss_bytes", "null"),
        };
        let obj = obj.arr("events", &events);
        format!("{}\n", obj.build())
    }
}

impl std::fmt::Display for TelemetrySnapshot {
    /// Human-readable multi-line summary (what `--stats` prints).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for s in Stage::ALL {
            writeln!(
                f,
                "stage {:<10} {:>12.3} ms",
                s.name(),
                self.stage_nanos(s) as f64 / 1e6
            )?;
        }
        writeln!(
            f,
            "sat: {} solvers, {} conflicts, {} decisions, {} propagations, {} restarts, {} learned",
            self.sat.solvers,
            self.sat.conflicts,
            self.sat.decisions,
            self.sat.propagations,
            self.sat.restarts,
            self.sat.learned
        )?;
        writeln!(
            f,
            "inprocess: {} vivified, {} subsumed, {} vars eliminated",
            self.sat.vivified_clauses, self.sat.subsumed_clauses, self.sat.eliminated_vars
        )?;
        writeln!(
            f,
            "fraig: {} sweeps ({} exhaustive, {} merges), {} rounds, {} sat calls, \
             {} proven, {} disproved, {} budgeted out, {} cex patterns, \
             {} activations retired",
            self.sweep.sweeps,
            self.sweep.exhaustive_sweeps,
            self.sweep.exhaustive_merges,
            self.sweep.rounds,
            self.sweep.sat_calls,
            self.sweep.proven,
            self.sweep.disproved,
            self.sweep.budgeted_out,
            self.sweep.cex_patterns,
            self.sweep.retired_activations
        )?;
        writeln!(
            f,
            "sim: {} word-columns computed, {} saved by incremental resimulation",
            self.sweep.resim_columns, self.sweep.resim_columns_saved
        )?;
        writeln!(
            f,
            "flow: {} clusters, {} jobs, {} interpolated, {} interpolation fallbacks, \
             {} localization fallbacks",
            self.clusters,
            self.jobs,
            self.interpolated,
            self.interpolation_fallbacks,
            self.localization_fallbacks
        )?;
        writeln!(
            f,
            "governor: {} patched, {} budget-exhausted, {} deadline, {} panicked, {} escalations",
            self.clusters_patched,
            self.clusters_budget_exhausted,
            self.clusters_deadline,
            self.clusters_panicked,
            self.escalations
        )?;
        writeln!(
            f,
            "memo: {} hits, {} misses, {} fallbacks",
            self.memo_hits, self.memo_misses, self.memo_fallbacks
        )?;
        if let Some(b) = self.peak_rss_bytes {
            writeln!(
                f,
                "memory: {:.1} MiB peak RSS",
                b as f64 / (1024.0 * 1024.0)
            )?;
        }
        for e in &self.events {
            writeln!(f, "event [{}] {}: {}", e.stage, e.label, e.detail)?;
        }
        Ok(())
    }
}

/// Shared, thread-safe telemetry accumulator for one engine run.
#[derive(Debug, Default)]
pub struct Telemetry {
    stage_ns: [AtomicU64; 6],
    solvers: AtomicU64,
    conflicts: AtomicU64,
    decisions: AtomicU64,
    propagations: AtomicU64,
    restarts: AtomicU64,
    learned: AtomicU64,
    sweeps: AtomicU64,
    sweep_exhaustive: AtomicU64,
    sweep_exhaustive_merges: AtomicU64,
    sweep_rounds: AtomicU64,
    sweep_sat_calls: AtomicU64,
    sweep_proven: AtomicU64,
    sweep_disproved: AtomicU64,
    sweep_budgeted_out: AtomicU64,
    sweep_cex_patterns: AtomicU64,
    sweep_retired_activations: AtomicU64,
    sweep_resim_columns: AtomicU64,
    sweep_resim_columns_saved: AtomicU64,
    clusters: AtomicU64,
    jobs: AtomicU64,
    interpolated: AtomicU64,
    interpolation_fallbacks: AtomicU64,
    localization_fallbacks: AtomicU64,
    clusters_patched: AtomicU64,
    clusters_budget_exhausted: AtomicU64,
    clusters_deadline: AtomicU64,
    clusters_panicked: AtomicU64,
    escalations: AtomicU64,
    memo_hits: AtomicU64,
    memo_misses: AtomicU64,
    memo_fallbacks: AtomicU64,
    vivified_clauses: AtomicU64,
    subsumed_clauses: AtomicU64,
    eliminated_vars: AtomicU64,
    events: Mutex<Vec<TelemetryEvent>>,
}

impl Telemetry {
    /// Fresh, all-zero telemetry.
    pub fn new() -> Self {
        Telemetry::default()
    }

    /// Adds `d` to the accumulated time of `stage`.
    pub fn add_stage(&self, stage: Stage, d: Duration) {
        self.stage_ns[stage.index()].fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Runs `f`, charging its wall time to `stage`.
    pub fn time<T>(&self, stage: Stage, f: impl FnOnce() -> T) -> T {
        let t0 = std::time::Instant::now();
        let out = f();
        self.add_stage(stage, t0.elapsed());
        out
    }

    /// Folds one solver's final statistics into the SAT totals.
    pub fn record_solver(&self, s: &SolverStats) {
        self.solvers.fetch_add(1, Ordering::Relaxed);
        self.conflicts.fetch_add(s.conflicts, Ordering::Relaxed);
        self.decisions.fetch_add(s.decisions, Ordering::Relaxed);
        self.propagations
            .fetch_add(s.propagations, Ordering::Relaxed);
        self.restarts.fetch_add(s.restarts, Ordering::Relaxed);
        self.learned.fetch_add(s.learned, Ordering::Relaxed);
        self.vivified_clauses
            .fetch_add(s.vivified_clauses, Ordering::Relaxed);
        self.subsumed_clauses
            .fetch_add(s.subsumed_clauses, Ordering::Relaxed);
        self.eliminated_vars
            .fetch_add(s.eliminated_vars, Ordering::Relaxed);
    }

    /// Folds one FRAIG sweep into the sweep totals (its internal solver,
    /// if it built one, is also folded into the SAT totals).
    pub fn record_sweep(&self, s: &SweepStats) {
        self.sweeps.fetch_add(1, Ordering::Relaxed);
        self.sweep_exhaustive
            .fetch_add(u64::from(s.exhaustive), Ordering::Relaxed);
        self.sweep_exhaustive_merges
            .fetch_add(s.exhaustive_merges, Ordering::Relaxed);
        self.sweep_rounds
            .fetch_add(s.rounds as u64, Ordering::Relaxed);
        self.sweep_sat_calls
            .fetch_add(s.sat_calls, Ordering::Relaxed);
        self.sweep_proven.fetch_add(s.proven, Ordering::Relaxed);
        self.sweep_disproved
            .fetch_add(s.disproved, Ordering::Relaxed);
        self.sweep_budgeted_out
            .fetch_add(s.budgeted_out, Ordering::Relaxed);
        self.sweep_cex_patterns
            .fetch_add(s.cex_patterns, Ordering::Relaxed);
        self.sweep_retired_activations
            .fetch_add(s.retired_activations, Ordering::Relaxed);
        self.sweep_resim_columns
            .fetch_add(s.resim_columns, Ordering::Relaxed);
        self.sweep_resim_columns_saved
            .fetch_add(s.resim_columns_saved, Ordering::Relaxed);
        if !s.exhaustive {
            self.record_solver(&s.sat);
        }
    }

    /// Counts `n` processed target clusters.
    pub fn add_clusters(&self, n: u64) {
        self.clusters.fetch_add(n, Ordering::Relaxed);
    }

    /// Records the worker-thread count of the patch-generation stage.
    pub fn set_jobs(&self, n: u64) {
        self.jobs.store(n, Ordering::Relaxed);
    }

    /// Counts interpolation-synthesized patches.
    pub fn add_interpolated(&self, n: u64) {
        self.interpolated.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts interpolation → on-set fallbacks.
    pub fn add_interpolation_fallbacks(&self, n: u64) {
        self.interpolation_fallbacks.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts a localized-attempt verification failure that triggered the
    /// unlocalized retry.
    pub fn add_localization_fallback(&self) {
        self.localization_fallbacks.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one cluster's governor diagnosis.
    pub fn add_cluster_diagnosis(&self, d: &crate::ClusterDiagnosis) {
        let slot = match d {
            crate::ClusterDiagnosis::Patched => &self.clusters_patched,
            crate::ClusterDiagnosis::BudgetExhausted => &self.clusters_budget_exhausted,
            crate::ClusterDiagnosis::Deadline => &self.clusters_deadline,
            crate::ClusterDiagnosis::Panicked(_) => &self.clusters_panicked,
        };
        slot.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts budget-escalation retries taken by the synthesis ladder.
    pub fn add_escalations(&self, n: u64) {
        self.escalations.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts one memo-cache hit.
    pub fn add_memo_hit(&self) {
        self.memo_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one memo-cache miss.
    pub fn add_memo_miss(&self) {
        self.memo_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one memo hit discarded by revalidation.
    pub fn add_memo_fallback(&self) {
        self.memo_fallbacks.fetch_add(1, Ordering::Relaxed);
    }

    /// Appends a structured event.
    pub fn event(&self, stage: Stage, label: &str, detail: String) {
        self.events
            .lock()
            .expect("telemetry event lock")
            .push(TelemetryEvent {
                stage: stage.name(),
                label: label.to_string(),
                detail,
            });
    }

    /// Copies everything into an immutable snapshot.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let mut stage_ns = [0u64; 6];
        for (slot, a) in stage_ns.iter_mut().zip(&self.stage_ns) {
            *slot = load(a);
        }
        TelemetrySnapshot {
            stage_ns,
            sat: SatTotals {
                solvers: load(&self.solvers),
                conflicts: load(&self.conflicts),
                decisions: load(&self.decisions),
                propagations: load(&self.propagations),
                restarts: load(&self.restarts),
                learned: load(&self.learned),
                vivified_clauses: load(&self.vivified_clauses),
                subsumed_clauses: load(&self.subsumed_clauses),
                eliminated_vars: load(&self.eliminated_vars),
            },
            sweep: SweepTotals {
                sweeps: load(&self.sweeps),
                exhaustive_sweeps: load(&self.sweep_exhaustive),
                exhaustive_merges: load(&self.sweep_exhaustive_merges),
                rounds: load(&self.sweep_rounds),
                sat_calls: load(&self.sweep_sat_calls),
                proven: load(&self.sweep_proven),
                disproved: load(&self.sweep_disproved),
                budgeted_out: load(&self.sweep_budgeted_out),
                cex_patterns: load(&self.sweep_cex_patterns),
                retired_activations: load(&self.sweep_retired_activations),
                resim_columns: load(&self.sweep_resim_columns),
                resim_columns_saved: load(&self.sweep_resim_columns_saved),
            },
            clusters: load(&self.clusters),
            jobs: load(&self.jobs),
            interpolated: load(&self.interpolated),
            interpolation_fallbacks: load(&self.interpolation_fallbacks),
            localization_fallbacks: load(&self.localization_fallbacks),
            clusters_patched: load(&self.clusters_patched),
            clusters_budget_exhausted: load(&self.clusters_budget_exhausted),
            clusters_deadline: load(&self.clusters_deadline),
            clusters_panicked: load(&self.clusters_panicked),
            escalations: load(&self.escalations),
            memo_hits: load(&self.memo_hits),
            memo_misses: load(&self.memo_misses),
            memo_fallbacks: load(&self.memo_fallbacks),
            peak_rss_bytes: peak_rss_bytes(),
            events: self.events.lock().expect("telemetry event lock").clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let tel = Telemetry::new();
        tel.add_stage(Stage::PatchGen, Duration::from_millis(2));
        tel.add_stage(Stage::PatchGen, Duration::from_millis(3));
        tel.record_solver(&SolverStats {
            conflicts: 5,
            propagations: 100,
            ..Default::default()
        });
        tel.record_sweep(&SweepStats {
            sat_calls: 7,
            proven: 4,
            sat: SolverStats {
                conflicts: 2,
                ..Default::default()
            },
            ..Default::default()
        });
        tel.record_sweep(&SweepStats {
            exhaustive: true,
            exhaustive_merges: 5,
            ..Default::default()
        });
        tel.add_clusters(3);
        tel.set_jobs(4);
        tel.add_cluster_diagnosis(&crate::ClusterDiagnosis::Patched);
        tel.add_cluster_diagnosis(&crate::ClusterDiagnosis::BudgetExhausted);
        tel.add_cluster_diagnosis(&crate::ClusterDiagnosis::Panicked("p".into()));
        tel.add_escalations(2);
        tel.event(Stage::Verify, "localization_fallback", "cex a=1".into());

        let snap = tel.snapshot();
        assert_eq!(snap.stage_nanos(Stage::PatchGen), 5_000_000);
        // Explicit + the SAT sweep's; the exhaustive sweep built none.
        assert_eq!(snap.sat.solvers, 2);
        assert_eq!(snap.sat.conflicts, 7);
        assert_eq!(snap.sweep.sat_calls, 7);
        assert_eq!(snap.sweep.sweeps, 2);
        assert_eq!(snap.sweep.exhaustive_sweeps, 1);
        assert_eq!(snap.sweep.exhaustive_merges, 5);
        assert_eq!(snap.clusters, 3);
        assert_eq!(snap.jobs, 4);
        assert_eq!(snap.clusters_patched, 1);
        assert_eq!(snap.clusters_budget_exhausted, 1);
        assert_eq!(snap.clusters_deadline, 0);
        assert_eq!(snap.clusters_panicked, 1);
        assert_eq!(snap.escalations, 2);
        assert_eq!(snap.events.len(), 1);
    }

    #[test]
    fn telemetry_is_sync_across_scoped_threads() {
        let tel = Telemetry::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..100 {
                        tel.add_clusters(1);
                        tel.record_solver(&SolverStats::default());
                    }
                });
            }
        });
        let snap = tel.snapshot();
        assert_eq!(snap.clusters, 400);
        assert_eq!(snap.sat.solvers, 400);
    }

    #[test]
    fn json_has_required_keys() {
        let tel = Telemetry::new();
        tel.event(Stage::Fraig, "x", "say \"hi\"".into());
        let js = tel.snapshot().to_json();
        for key in [
            "\"fraig_ns\"",
            "\"patchgen_ns\"",
            "\"conflicts\"",
            "\"propagations\"",
            "\"sat_calls\"",
            "\"proven\"",
            "\"exhaustive_sweeps\"",
            "\"exhaustive_merges\"",
            "\"retired_activations\"",
            "\"resim_columns_saved\"",
            "\"clusters_patched\"",
            "\"clusters_budget_exhausted\"",
            "\"clusters_deadline\"",
            "\"clusters_panicked\"",
            "\"escalations\"",
            "\"memo\"",
            "\"hits\"",
            "\"misses\"",
            "\"fallbacks\"",
            "\"events\"",
            "\"peak_rss_bytes\"",
            "\"vivified_clauses\"",
            "\"subsumed_clauses\"",
            "\"eliminated_vars\"",
            "\\\"hi\\\"",
        ] {
            assert!(js.contains(key), "missing {key} in {js}");
        }
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn peak_rss_is_reported_on_linux() {
        let rss = peak_rss_bytes().expect("VmHWM present in /proc/self/status");
        // Any running test binary has megabytes resident.
        assert!(rss > 1 << 20, "implausible peak RSS {rss}");
    }

    #[test]
    fn json_obj_builder_renders_all_value_kinds() {
        let js = JsonObj::new()
            .u64("n", 7)
            .f64("t", 1.5)
            .bool("ok", true)
            .str("s", "a\"b\\c\nd")
            .raw("o", &JsonObj::new().u64("x", 1).build())
            .str_arr("l", &["p".into(), "q\"r".into()])
            .build();
        assert_eq!(
            js,
            "{\"n\": 7, \"t\": 1.5, \"ok\": true, \"s\": \"a\\\"b\\\\c\\nd\", \
             \"o\": {\"x\": 1}, \"l\": [\"p\", \"q\\\"r\"]}"
        );
    }
}
