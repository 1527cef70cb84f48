//! End-to-end run telemetry: per-stage timers, aggregated SAT / FRAIG
//! counters, and structured events.
//!
//! One [`Telemetry`] instance lives for a whole [`crate::EcoEngine::run`]
//! (both the localized attempt and, if it fails verification, the
//! unlocalized fallback). It is one [`TelemetrySnapshot`] behind a mutex,
//! so the scoped worker threads of the parallel patch-generation stage
//! record into it directly; the lock is taken once per solver, sweep,
//! stage or cluster event, never once per SAT query. The snapshot taken
//! at the end is what [`crate::EcoResult`] carries and what the CLI
//! renders for `--stats[=json]`.
//!
//! Every counter group is declared once with [`counters!`](crate::counters),
//! which emits the struct, its `(key, value)` list and `+=`.
//! [`render_counters`] renders any such list as text or JSON, here and in
//! the batch, serve and campaign summaries.

use std::sync::{Mutex, PoisonError};
use std::time::Duration;

use eco_fraig::SweepStats;
use eco_sat::SolverStats;

/// Declares a group of `u64` counters once: the struct (public fields,
/// all zero by default), `fields()` — every counter as `(key, value)` in
/// declaration order, the keys of its text and JSON renderings — and
/// `+=`.
///
/// ```
/// eco_core::counters! {
///     /// Two counters.
///     pub struct Pair {
///         /// The first.
///         a: u64,
///         /// The second.
///         b: u64,
///     }
/// }
/// let mut p = Pair { a: 1, b: 2 };
/// p += Pair { a: 1, b: 0 };
/// assert_eq!(p.fields(), [("a", 2), ("b", 2)]);
/// assert_eq!(eco_core::render_counters(&p.fields(), false), "a 2  b 2");
/// ```
#[macro_export]
macro_rules! counters {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $( $(#[$field_meta:meta])* $field:ident: u64 ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        $vis struct $name {
            $( $(#[$field_meta])* pub $field: u64, )*
        }

        impl $name {
            /// Every counter as `(key, value)`, in declaration order.
            pub fn fields(&self) -> Vec<(&'static str, u64)> {
                vec![$( (stringify!($field), self.$field) ),*]
            }
        }

        impl ::std::ops::AddAssign for $name {
            fn add_assign(&mut self, other: Self) {
                $( self.$field += other.$field; )*
            }
        }
    };
}

/// Renders counters as one JSON object (`json`) or as one text line of
/// `key value` pairs separated by two spaces. The one renderer of every
/// counter list in the workspace, so text and JSON keys cannot drift.
pub fn render_counters(fields: &[(&str, u64)], json: bool) -> String {
    if json {
        JsonObj::new().counters(fields).build()
    } else {
        fields
            .iter()
            .map(|(k, v)| format!("{k} {v}"))
            .collect::<Vec<_>>()
            .join("  ")
    }
}

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

    /// Stable lowercase name (the stage tag of events).
    pub fn name(self) -> &'static str {
        let key = self.key();
        &key[..key.len() - "_ns".len()]
    }

    /// Key of the stage's nanoseconds in the `stages` group: `<name>_ns`.
    pub fn key(self) -> &'static str {
        match self {
            Stage::Fraig => "fraig_ns",
            Stage::Clustering => "clustering_ns",
            Stage::PatchGen => "patchgen_ns",
            Stage::Optimize => "optimize_ns",
            Stage::Verify => "verify_ns",
            Stage::Assemble => "assemble_ns",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

crate::counters! {
    /// Aggregated CDCL solver totals across every SAT instance of a run
    /// (synthesis, interpolation, rebasing, size reduction, verification,
    /// and the solvers inside FRAIG sweeps).
    pub struct SatTotals {
        /// Solver instances whose stats were folded in.
        solvers: u64,
        /// Total conflicts.
        conflicts: u64,
        /// Total branching decisions.
        decisions: u64,
        /// Total propagated literals.
        propagations: u64,
        /// Total restarts.
        restarts: u64,
        /// Total learned clauses.
        learned: u64,
        /// Clauses shortened by inprocessing vivification.
        vivified_clauses: u64,
        /// Clauses removed by inprocessing (self-)subsumption.
        subsumed_clauses: u64,
        /// Variables removed by bounded variable elimination.
        eliminated_vars: u64,
    }
}

impl From<&SolverStats> for SatTotals {
    /// One solver's final statistics.
    fn from(s: &SolverStats) -> Self {
        SatTotals {
            solvers: 1,
            conflicts: s.conflicts,
            decisions: s.decisions,
            propagations: s.propagations,
            restarts: s.restarts,
            learned: s.learned,
            vivified_clauses: s.vivified_clauses,
            subsumed_clauses: s.subsumed_clauses,
            eliminated_vars: s.eliminated_vars,
        }
    }
}

crate::counters! {
    /// Aggregated FRAIG sweep totals across every sweep of a run (one per
    /// cluster sub-workspace, plus the final patch-AIG reduction).
    pub struct SweepTotals {
        /// Sweeps folded in.
        sweeps: u64,
        /// Sweeps decided by exhaustive simulation of a small support (no
        /// solver built).
        exhaustive_sweeps: u64,
        /// Class merges decided by exhaustive simulation (not SAT queries:
        /// `sat_calls` and `proven` count SAT work only).
        exhaustive_merges: u64,
        /// Refinement rounds.
        rounds: u64,
        /// SAT equivalence queries issued.
        sat_calls: u64,
        /// Candidate pairs proven equivalent.
        proven: u64,
        /// Candidate pairs disproved by a counterexample.
        disproved: u64,
        /// Queries abandoned on the conflict budget.
        budgeted_out: u64,
        /// Counterexample patterns fed back into simulation.
        cex_patterns: u64,
        /// Activation literals retired with a level-0 unit after their
        /// query.
        retired_activations: u64,
        /// Simulation word-columns actually computed.
        resim_columns: u64,
        /// Simulation word-columns skipped by incremental re-simulation.
        resim_columns_saved: u64,
    }
}

impl From<&SweepStats> for SweepTotals {
    /// One sweep's counters (its solver, if any, goes to [`SatTotals`]).
    fn from(s: &SweepStats) -> Self {
        SweepTotals {
            sweeps: 1,
            exhaustive_sweeps: u64::from(s.exhaustive),
            exhaustive_merges: s.exhaustive_merges,
            rounds: s.rounds as u64,
            sat_calls: s.sat_calls,
            proven: s.proven,
            disproved: s.disproved,
            budgeted_out: s.budgeted_out,
            cex_patterns: s.cex_patterns,
            retired_activations: s.retired_activations,
            resim_columns: s.resim_columns,
            resim_columns_saved: s.resim_columns_saved,
        }
    }
}

crate::counters! {
    /// §6.2 base selection: counterexample-enumeration probes and where
    /// their projections came from.
    pub struct SelectTotals {
        /// Counterexample enumerations, one per probed candidate.
        probes: u64,
        /// Projections returned, summed over probes.
        projections: u64,
        /// Projections read off the query's table of earlier models (an
        /// on-row and an off-row that agree on the probed selection)
        /// instead of from a new model.
        table_projections: u64,
        /// Satisfying enumeration answers, one new projection each.
        sat_models: u64,
        /// Unsatisfiable enumeration answers, each proving that a probe
        /// has no projection left.
        unsat_proofs: u64,
    }
}

crate::counters! {
    /// How each cluster of a run ended under the governor, and the
    /// synthesis ladder's budget escalations.
    pub struct GovernorTotals {
        /// Clusters that completed all their patches.
        clusters_patched: u64,
        /// Clusters whose conflict allowance ran out mid-synthesis.
        clusters_budget_exhausted: u64,
        /// Clusters stopped by the run deadline (or an external cancel).
        clusters_deadline: u64,
        /// Clusters whose worker panicked (isolated, not fatal).
        clusters_panicked: u64,
        /// Budget-escalation retries taken by the synthesis ladder.
        escalations: u64,
    }
}

crate::counters! {
    /// Whole-result memo-cache lookups of one run (at most one per run).
    pub struct MemoTotals {
        /// Lookups that returned a cached value.
        hits: u64,
        /// Lookups that found nothing usable (entry absent or check digest
        /// mismatched).
        misses: u64,
        /// Hits discarded because the fresh SAT miter refuted the cached
        /// result.
        fallbacks: u64,
    }
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

    /// Adds one unsigned integer field per `(key, value)`, in order.
    pub fn counters(self, fields: &[(&str, u64)]) -> Self {
        fields.iter().fold(self, |o, &(k, v)| o.u64(k, v))
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

/// Label of the flow counters, which are top-level JSON keys rather than
/// a nested object.
const FLOW: &str = "flow";

/// All telemetry of one run: the running totals inside [`Telemetry`], and
/// the immutable copy a result carries.
#[derive(Clone, Debug, Default)]
pub struct TelemetrySnapshot {
    /// Nanoseconds per stage, indexed like [`Stage::ALL`].
    pub stage_ns: [u64; 6],
    /// Aggregated SAT solver totals.
    pub sat: SatTotals,
    /// Aggregated FRAIG sweep totals.
    pub sweep: SweepTotals,
    /// Base-selection enumeration totals.
    pub select: SelectTotals,
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
    /// Governor outcomes per cluster, and budget escalations.
    pub governor: GovernorTotals,
    /// Memo-cache lookups.
    pub memo: MemoTotals,
    /// Peak resident-set size in bytes, read by the report that prints
    /// it ([`TelemetrySnapshot::with_peak_rss`]); `None` until then, and
    /// when the platform does not expose it (see [`peak_rss_bytes`]).
    pub peak_rss_bytes: Option<u64>,
    /// Structured events, in recording order.
    pub events: Vec<TelemetryEvent>,
}

impl TelemetrySnapshot {
    /// This snapshot with the process's peak RSS read now, for a report
    /// that prints it. Runs never read it themselves: the read parses
    /// `/proc/self/status`, which would cost every run, memo hits
    /// included.
    pub fn with_peak_rss(mut self) -> Self {
        self.peak_rss_bytes = peak_rss_bytes();
        self
    }

    /// Nanoseconds recorded for `stage`.
    pub fn stage_nanos(&self, stage: Stage) -> u64 {
        self.stage_ns[stage.index()]
    }

    /// Per-stage nanoseconds as `(key, value)`, in flow order.
    pub fn stage_fields(&self) -> Vec<(&'static str, u64)> {
        Stage::ALL
            .iter()
            .map(|&s| (s.key(), self.stage_nanos(s)))
            .collect()
    }

    /// Every counter group as `(label, fields)`, in output order.
    fn groups(&self) -> [(&'static str, Vec<(&'static str, u64)>); 7] {
        [
            ("stages", self.stage_fields()),
            ("sat", self.sat.fields()),
            ("fraig", self.sweep.fields()),
            ("select", self.select.fields()),
            (
                FLOW,
                vec![
                    ("clusters", self.clusters),
                    ("jobs", self.jobs),
                    ("interpolated", self.interpolated),
                    ("interpolation_fallbacks", self.interpolation_fallbacks),
                    ("localization_fallbacks", self.localization_fallbacks),
                ],
            ),
            ("governor", self.governor.fields()),
            ("memo", self.memo.fields()),
        ]
    }

    /// One JSON object on one line, without a trailing newline: a nested
    /// object per counter group (the flow counters are top-level keys),
    /// then `peak_rss_bytes` and the events.
    pub fn to_json(&self) -> String {
        let mut obj = JsonObj::new();
        for (label, fields) in self.groups() {
            obj = if label == FLOW {
                obj.counters(&fields)
            } else {
                obj.raw(label, &render_counters(&fields, true))
            };
        }
        let obj = match self.peak_rss_bytes {
            Some(b) => obj.u64("peak_rss_bytes", b),
            None => obj.raw("peak_rss_bytes", "null"),
        };
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
        obj.arr("events", &events).build()
    }
}

impl std::fmt::Display for TelemetrySnapshot {
    /// What `--stats` prints: one `label: key value  key value` line per
    /// counter group with the JSON keys, the peak RSS, then the events.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (label, fields) in self.groups() {
            writeln!(f, "{label}: {}", render_counters(&fields, false))?;
        }
        if let Some(b) = self.peak_rss_bytes {
            writeln!(f, "memory: peak_rss_bytes {b}")?;
        }
        for e in &self.events {
            writeln!(f, "event [{}] {}: {}", e.stage, e.label, e.detail)?;
        }
        Ok(())
    }
}

/// Shared, thread-safe telemetry accumulator for one engine run: one
/// [`TelemetrySnapshot`] of running totals behind a mutex.
#[derive(Debug, Default)]
pub struct Telemetry {
    totals: Mutex<TelemetrySnapshot>,
}

impl Telemetry {
    /// Fresh, all-zero telemetry.
    pub fn new() -> Self {
        Telemetry::default()
    }

    /// Applies `f` to the running totals under the lock. A lock poisoned
    /// by a panicking worker is recovered, the policy of the serve and
    /// batch locks: every update is a few additions or a push, so the
    /// totals are whole at every point a panic can unwind through.
    pub fn update<T>(&self, f: impl FnOnce(&mut TelemetrySnapshot) -> T) -> T {
        f(&mut self.totals.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Adds `d` to the accumulated time of `stage`.
    pub fn add_stage(&self, stage: Stage, d: Duration) {
        self.update(|t| t.stage_ns[stage.index()] += d.as_nanos() as u64);
    }

    /// Runs `f`, charging its wall time to `stage`. The lock is not held
    /// while `f` runs, so `f` may record too.
    pub fn time<T>(&self, stage: Stage, f: impl FnOnce() -> T) -> T {
        let t0 = std::time::Instant::now();
        let out = f();
        self.add_stage(stage, t0.elapsed());
        out
    }

    /// Folds one solver's final statistics into the SAT totals.
    pub fn record_solver(&self, s: &SolverStats) {
        self.update(|t| t.sat += SatTotals::from(s));
    }

    /// Folds one FRAIG sweep into the sweep totals (its internal solver,
    /// if it built one, is also folded into the SAT totals).
    pub fn record_sweep(&self, s: &SweepStats) {
        self.update(|t| {
            t.sweep += SweepTotals::from(s);
            if !s.exhaustive {
                t.sat += SatTotals::from(&s.sat);
            }
        });
    }

    /// Counts one cluster's governor diagnosis.
    pub fn add_cluster_diagnosis(&self, d: &crate::ClusterDiagnosis) {
        self.update(|t| {
            let g = &mut t.governor;
            *match d {
                crate::ClusterDiagnosis::Patched => &mut g.clusters_patched,
                crate::ClusterDiagnosis::BudgetExhausted => &mut g.clusters_budget_exhausted,
                crate::ClusterDiagnosis::Deadline => &mut g.clusters_deadline,
                crate::ClusterDiagnosis::Panicked(_) => &mut g.clusters_panicked,
            } += 1;
        });
    }

    /// Appends a structured event.
    pub fn event(&self, stage: Stage, label: &str, detail: String) {
        let event = TelemetryEvent {
            stage: stage.name(),
            label: label.to_string(),
            detail,
        };
        self.update(|t| t.events.push(event));
    }

    /// Copies the totals into an immutable snapshot. Its
    /// `peak_rss_bytes` stays `None`: a report that prints the peak reads
    /// it then (see [`TelemetrySnapshot::with_peak_rss`]).
    pub fn snapshot(&self) -> TelemetrySnapshot {
        self.update(|t| t.clone())
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
        tel.update(|t| {
            t.clusters += 3;
            t.jobs = 4;
        });
        tel.add_cluster_diagnosis(&crate::ClusterDiagnosis::Patched);
        tel.add_cluster_diagnosis(&crate::ClusterDiagnosis::BudgetExhausted);
        tel.add_cluster_diagnosis(&crate::ClusterDiagnosis::Panicked("p".into()));
        tel.update(|t| t.governor.escalations += 2);
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
        assert_eq!(
            snap.governor,
            GovernorTotals {
                clusters_patched: 1,
                clusters_budget_exhausted: 1,
                clusters_deadline: 0,
                clusters_panicked: 1,
                escalations: 2,
            }
        );
        assert_eq!(snap.events.len(), 1);
    }

    #[test]
    fn telemetry_is_sync_across_scoped_threads() {
        let tel = Telemetry::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..100 {
                        tel.update(|t| t.clusters += 1);
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
            "\"select\"",
            "\"probes\"",
            "\"table_projections\"",
            "\"sat_models\"",
            "\"unsat_proofs\"",
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
        assert!(!js.ends_with('\n'), "no trailing newline: {js:?}");
    }

    /// Pins the `--stats=json` layout (keys and their order) and the text
    /// form that walks the same groups.
    #[test]
    fn text_and_json_render_the_same_groups() {
        let snap = TelemetrySnapshot {
            jobs: 2,
            ..TelemetrySnapshot::default()
        };
        assert_eq!(
            snap.to_json(),
            "{\"stages\": {\"fraig_ns\": 0, \"clustering_ns\": 0, \"patchgen_ns\": 0, \
             \"optimize_ns\": 0, \"verify_ns\": 0, \"assemble_ns\": 0}, \
             \"sat\": {\"solvers\": 0, \"conflicts\": 0, \"decisions\": 0, \
             \"propagations\": 0, \"restarts\": 0, \"learned\": 0, \"vivified_clauses\": 0, \
             \"subsumed_clauses\": 0, \"eliminated_vars\": 0}, \
             \"fraig\": {\"sweeps\": 0, \"exhaustive_sweeps\": 0, \"exhaustive_merges\": 0, \
             \"rounds\": 0, \"sat_calls\": 0, \"proven\": 0, \"disproved\": 0, \
             \"budgeted_out\": 0, \"cex_patterns\": 0, \"retired_activations\": 0, \
             \"resim_columns\": 0, \"resim_columns_saved\": 0}, \
             \"select\": {\"probes\": 0, \"projections\": 0, \"table_projections\": 0, \
             \"sat_models\": 0, \"unsat_proofs\": 0}, \
             \"clusters\": 0, \"jobs\": 2, \"interpolated\": 0, \
             \"interpolation_fallbacks\": 0, \"localization_fallbacks\": 0, \
             \"governor\": {\"clusters_patched\": 0, \"clusters_budget_exhausted\": 0, \
             \"clusters_deadline\": 0, \"clusters_panicked\": 0, \"escalations\": 0}, \
             \"memo\": {\"hits\": 0, \"misses\": 0, \"fallbacks\": 0}, \
             \"peak_rss_bytes\": null, \"events\": []}"
        );
        let text = snap.to_string();
        let labels: Vec<&str> = text.lines().map(|l| l.split(':').next().unwrap()).collect();
        assert_eq!(
            labels,
            ["stages", "sat", "fraig", "select", "flow", "governor", "memo"]
        );
        assert!(text.contains(
            "flow: clusters 0  jobs 2  interpolated 0  interpolation_fallbacks 0  \
             localization_fallbacks 0\n"
        ));
        assert!(text.contains("  assemble_ns 0\n"), "{text}");
    }

    #[test]
    fn stage_keys_extend_the_names() {
        for s in Stage::ALL {
            assert_eq!(s.key(), format!("{}_ns", s.name()));
        }
        assert_eq!(Stage::PatchGen.name(), "patchgen");
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
            .arr("l", &["\"p\"".into(), "1".into()])
            .build();
        assert_eq!(
            js,
            "{\"n\": 7, \"t\": 1.5, \"ok\": true, \"s\": \"a\\\"b\\\\c\\nd\", \
             \"o\": {\"x\": 1}, \"l\": [\"p\", 1]}"
        );
    }
}
