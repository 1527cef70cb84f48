//! A steady benchmark for the eco workspace: the paper's Table-2 suite,
//! the eco-serve daemon under an open-loop request mix, and the
//! sequential unroll-and-fold flow.
//!
//! Every run builds its inputs from `--seed`, measures for `--seconds`,
//! checks its outputs with an oracle outside the timed region, and
//! prints one JSON result line. An untraced run reports the end-to-end
//! metrics of [`metrics::END_TO_END`]; a traced run times the calls it
//! makes into each crate's public functions, reads the
//! [`eco_core::TelemetrySnapshot`] the engine returns, and reports the
//! per-layer metrics of [`metrics::PER_LAYER`]. Nothing inside the
//! measured program changes.

pub mod metrics;
pub mod oracle;
pub mod seq_unroll;
pub mod serve_mix;
pub mod stats;
pub mod table2;

use std::path::PathBuf;
use std::time::Instant;

use eco_core::{JsonObj, Stage, TelemetrySnapshot};

use crate::metrics::{Values, END_TO_END, PER_LAYER};

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The 20 contest units, cold and closed-loop, one at a time.
    Table2,
    /// An in-process daemon fed an open-loop mix of memo hits and cold
    /// solves over one connection.
    ServeMix,
    /// Seeded sequential cases through BTOR2 parsing and k-frame ECO.
    SeqUnroll,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Table2, Workload::ServeMix, Workload::SeqUnroll];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Table2 => "table2",
            Workload::ServeMix => "serve_mix",
            Workload::SeqUnroll => "seq_unroll",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One benchmark run's settings.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Which workload.
    pub workload: Workload,
    /// Run seed: unit order, request schedule and oracle stimulus. The
    /// same seed gives the same inputs; work per run does not depend on
    /// it, which keeps runs with different seeds comparable.
    pub seed: u64,
    /// Instance-set seed: 0 is the fixed set every run measures (the
    /// Table-2 suite exactly); any other value re-draws the instances
    /// (targets and weights) with the same families and shapes, to
    /// recheck a claim on unseen instances.
    pub instances: u64,
    /// Measuring time.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
    /// Smoke size: a few small units, for the benchmark's own tests.
    pub smoke: bool,
    /// Directory for files the workload writes; created and removed by
    /// the workload.
    pub work_dir: PathBuf,
}

/// What a run measured and checked.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Units attempted (solves, cases, or requests, over every pass).
    pub attempted: u64,
    /// Attempts without a verified complete patch: errors, partial or
    /// unrectifiable results, fold failures, refusals.
    pub failed: u64,
    /// Oracle mismatches; any entry makes the run incorrect.
    pub mismatches: Vec<String>,
    /// End-to-end values (untraced run) or per-layer values (traced run).
    pub metrics: Values,
    /// Run facts for the context line, as pre-rendered JSON values.
    pub context: Vec<(&'static str, String)>,
    /// The run's deterministic outputs (costs, sizes, response bytes),
    /// which a rerun with the same seed must reproduce exactly.
    pub output: String,
}

/// Runs one workload.
pub fn run(cfg: &RunConfig) -> Outcome {
    match cfg.workload {
        Workload::Table2 => table2::run(cfg),
        Workload::ServeMix => serve_mix::run(cfg),
        Workload::SeqUnroll => seq_unroll::run(cfg),
    }
}

/// The result line: `correct`, `attempted`, `failed`, and every metric
/// of the run's catalogue with its unit.
pub fn result_json(outcome: &Outcome, trace: bool) -> String {
    let (table, required) = if trace {
        (PER_LAYER, false)
    } else {
        (END_TO_END, true)
    };
    JsonObj::new()
        .bool("correct", outcome.mismatches.is_empty())
        .u64("attempted", outcome.attempted)
        .u64("failed", outcome.failed)
        .raw("metrics", &outcome.metrics.render(table, required))
        .build()
}

/// The context line printed before the result: settings, host facts and
/// the run's own facts (sample counts, load shape, validity).
pub fn context_json(cfg: &RunConfig, outcome: &Outcome) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut obj = JsonObj::new()
        .str("workload", cfg.workload.name())
        .u64("seed", cfg.seed)
        .f64("seconds", cfg.seconds)
        .bool("trace", cfg.trace)
        .u64("nproc", nproc as u64)
        .str("git_rev", &git_rev())
        .str("rustc", env!("ECOBENCH_RUSTC"));
    for (key, value) in &outcome.context {
        obj = obj.raw(key, value);
    }
    for m in &outcome.mismatches {
        eprintln!("oracle mismatch: {m}");
    }
    JsonObj::new().raw("context", &obj.build()).build()
}

/// The checkout's commit, read from `.git` when the working directory is
/// a git checkout; `unknown` otherwise.
fn git_rev() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Stops a measuring loop once `seconds` have passed, but never before
/// `min_passes` passes.
pub(crate) struct Deadline {
    start: Instant,
    seconds: f64,
}

impl Deadline {
    pub(crate) fn new(seconds: f64) -> Self {
        Deadline {
            start: Instant::now(),
            seconds,
        }
    }

    pub(crate) fn more(&self, passes: usize, min_passes: usize) -> bool {
        passes < min_passes || self.start.elapsed().as_secs_f64() < self.seconds
    }
}

/// What the measuring loop of a unit-by-unit workload collected.
pub(crate) struct Passes<R> {
    /// Untraced time samples per unit, in ms.
    pub(crate) unit_ms: Vec<Vec<f64>>,
    /// Untraced pass wall times, in s.
    pub(crate) walls: Vec<f64>,
    /// Per-layer values of each traced pass.
    pub(crate) traced: Vec<Values>,
    /// Traced pass wall times, in s.
    pub(crate) traced_walls: Vec<f64>,
    /// The first pass's result per unit (`None` = failed).
    pub(crate) first: Vec<Option<R>>,
    /// Peak resident set over the passes.
    pub(crate) rss: PeakRss,
}

/// Runs passes over `names.len()` units until the deadline, in a
/// seed-shuffled order. An untraced run times `solve` per unit; a traced
/// run alternates untraced passes with passes of `traced`, which records
/// per-layer values. `after_pass` runs off the clock after every pass and
/// is told whether the pass was traced.
/// Every pass must reproduce the first pass's `key` (cost, size) per
/// unit; a change is an oracle mismatch.
pub(crate) fn unit_passes<R>(
    cfg: &RunConfig,
    names: &[String],
    out: &mut Outcome,
    mut solve: impl FnMut(usize) -> Result<R, String>,
    mut traced: impl FnMut(usize, &mut Values) -> Result<R, String>,
    mut after_pass: impl FnMut(bool),
    key: impl Fn(&R) -> (u64, u64),
) -> Passes<R> {
    let n = names.len();
    let mut order: Vec<usize> = (0..n).collect();
    eco_aig::SplitMix64::new(cfg.seed).shuffle(&mut order);
    let mut p = Passes {
        unit_ms: vec![Vec::new(); n],
        walls: Vec::new(),
        traced: Vec::new(),
        traced_walls: Vec::new(),
        first: Vec::new(),
        rss: PeakRss::new(),
    };
    let min_passes = if cfg.trace { 2 } else { 1 };
    let deadline = Deadline::new(cfg.seconds);
    let mut passes = 0;
    while deadline.more(passes, min_passes) {
        let tracing = cfg.trace && passes % 2 == 1;
        let mut values = Values::default();
        let mut results: Vec<Option<Result<R, String>>> = (0..n).map(|_| None).collect();
        p.rss.start();
        let t_pass = Instant::now();
        for &i in &order {
            let t0 = Instant::now();
            results[i] = Some(if tracing {
                traced(i, &mut values)
            } else {
                let r = solve(i);
                p.unit_ms[i].push(t0.elapsed().as_secs_f64() * 1e3);
                r
            });
        }
        let wall = t_pass.elapsed().as_secs_f64();
        p.rss.stop();
        if tracing {
            p.traced_walls.push(wall);
            p.traced.push(values);
        } else {
            p.walls.push(wall);
        }
        after_pass(tracing);
        for (i, result) in results.into_iter().enumerate() {
            out.attempted += 1;
            let result = match result.expect("every unit ran") {
                Ok(r) => Some(r),
                Err(e) => {
                    eprintln!("{}: {e}", names[i]);
                    out.failed += 1;
                    None
                }
            };
            if passes == 0 {
                p.first.push(result);
            } else if let (Some(r), Some(f)) = (&result, &p.first[i]) {
                if key(r) != key(f) {
                    out.mismatches
                        .push(format!("{}: cost/size changed between passes", names[i]));
                }
            }
        }
        passes += 1;
    }
    p
}

impl<R> Passes<R> {
    /// Each unit's best untraced time over the passes, in ms. The host's
    /// speed drifts by up to a fifth over seconds; the best of many
    /// passes varies between runs about half as much as the median.
    pub(crate) fn per_unit_ms(&self) -> Vec<f64> {
        self.unit_ms.iter().map(|xs| stats::min(xs)).collect()
    }

    /// The end-to-end metrics of a unit-by-unit workload.
    pub(crate) fn end_to_end(&self, setup_s: f64, cost_total: u64, size_total: u64) -> Values {
        let per_unit = self.per_unit_ms();
        let mut v = Values::default();
        v.set("setup_s", setup_s);
        // A whole pass meets a quiet host far less often than a single
        // unit does: the fastest pass spread past its bound between runs
        // while the per-unit bests held, so `wall_s` adds those up.
        v.set("wall_s", per_unit.iter().sum::<f64>() / 1e3);
        v.set("unit_ms_geomean", stats::geomean(&per_unit));
        v.set("unit_ms_max", per_unit.iter().copied().fold(0.0, f64::max));
        v.set("latency_ms_p50", stats::quantile(&per_unit, 0.5));
        v.set("latency_ms_p90", stats::quantile(&per_unit, 0.9));
        v.set("cost_total", cost_total as f64);
        v.set("size_total", size_total as f64);
        v.set("peak_rss_mb", self.rss.mb());
        v
    }

    /// The per-layer metrics: medians over traced passes, the tracing
    /// overhead (best traced pass minus best untraced pass), and the
    /// derived ratios.
    pub(crate) fn per_layer(&self, out: &Outcome) -> Values {
        let mut v = Values::median_of(&self.traced);
        v.set(
            "trace.overhead_ms",
            (stats::min(&self.traced_walls) - stats::min(&self.walls)) * 1e3,
        );
        derive_ratios(&mut v, out.attempted, out.failed);
        v
    }

    /// Sample counts for the context line.
    pub(crate) fn context(&self) -> Vec<(&'static str, String)> {
        vec![
            ("units", self.unit_ms.len().to_string()),
            ("passes", self.walls.len().to_string()),
            ("traced_passes", self.traced_walls.len().to_string()),
            ("unit_samples", self.unit_ms.concat().len().to_string()),
            ("peak_rss_reset", self.rss.reset().to_string()),
        ]
    }
}

/// The small units of four families that smoke-sized runs use.
pub(crate) const SMOKE_UNITS: [&str; 4] = ["unit01", "unit02", "unit08", "unit18"];

/// Set-up repetitions per sample.
pub(crate) const SETUP_REPS: usize = 8;

/// A workload's in-memory set-up, timed in samples of [`SETUP_REPS`]
/// repetitions: one sample before the measuring passes and one after
/// each untraced pass. A set-up takes a few milliseconds, and the host's
/// speed shifts by up to half for seconds at a time, so samples spread
/// over the whole run see the same host as the passes do.
pub(crate) struct Setup<'a> {
    build: Box<dyn FnMut() + 'a>,
    /// Every repetition's time, in s.
    times: Vec<f64>,
}

impl<'a> Setup<'a> {
    /// Wraps `build`, which redoes the set-up and drops the result.
    pub(crate) fn new(build: impl FnMut() + 'a) -> Self {
        Setup {
            build: Box::new(build),
            times: Vec::new(),
        }
    }

    /// Times one sample.
    pub(crate) fn sample(&mut self) {
        for _ in 0..SETUP_REPS {
            let t0 = Instant::now();
            (self.build)();
            self.times.push(t0.elapsed().as_secs_f64());
        }
    }

    /// `setup_s`: the fastest repetition. As with the per-unit times, the
    /// best of many varies between runs far less than the median, which
    /// follows the host's speed.
    pub(crate) fn seconds(&self) -> f64 {
        stats::min(&self.times)
    }

    /// Repetitions timed, for the context line.
    pub(crate) fn reps(&self) -> usize {
        self.times.len()
    }
}

/// The peak resident set over the measuring passes alone. Before each
/// pass the process's peak is reset to its current size (on Linux, by
/// writing `5` to the process's own `clear_refs`), and after the pass it
/// is read, so neither the screening and reference solves before the
/// passes, nor the set-up samples between them, set it.
pub(crate) struct PeakRss {
    mb: f64,
    /// Whether every reset took; without them the peak covers the whole
    /// process.
    reset: bool,
}

impl PeakRss {
    pub(crate) fn new() -> Self {
        PeakRss {
            mb: 0.0,
            reset: true,
        }
    }

    /// Call right before a pass.
    pub(crate) fn start(&mut self) {
        self.reset &= std::fs::write("/proc/self/clear_refs", "5").is_ok();
    }

    /// Call right after a pass.
    pub(crate) fn stop(&mut self) {
        let now = eco_core::peak_rss_bytes().map_or(0.0, |b| b as f64 / (1024.0 * 1024.0));
        self.mb = self.mb.max(now);
    }

    /// The largest peak over the passes, in MiB (0 where unavailable).
    pub(crate) fn mb(&self) -> f64 {
        self.mb
    }

    /// Whether every reset took, for the context line.
    pub(crate) fn reset(&self) -> bool {
        self.reset
    }
}

/// Folds one engine telemetry snapshot into the per-layer `core.*`,
/// `sat.*` and `fraig.*` counters.
pub(crate) fn add_telemetry(v: &mut Values, t: &TelemetrySnapshot) {
    let ns = |s: Stage| t.stage_nanos(s) as f64;
    v.add("core.fraig_ns", ns(Stage::Fraig));
    v.add("core.patchgen_ns", ns(Stage::PatchGen));
    v.add(
        "core.patchgen_self_ns",
        (ns(Stage::PatchGen) - ns(Stage::Fraig)).max(0.0),
    );
    v.add("core.optimize_ns", ns(Stage::Optimize));
    v.add("core.clustering_ns", ns(Stage::Clustering));
    v.add("core.assemble_ns", ns(Stage::Assemble));
    v.add("core.verify_ns", ns(Stage::Verify));
    v.add("core.clusters", t.clusters as f64);
    v.add("core.interpolated", t.interpolated as f64);
    v.add(
        "core.interpolation_fallbacks",
        t.interpolation_fallbacks as f64,
    );
    v.add(
        "core.localization_fallbacks",
        t.localization_fallbacks as f64,
    );
    let s = &t.sat;
    v.add("sat.solvers", s.solvers as f64);
    v.add("sat.conflicts", s.conflicts as f64);
    v.add("sat.decisions", s.decisions as f64);
    v.add("sat.propagations", s.propagations as f64);
    v.add("sat.restarts", s.restarts as f64);
    v.add("sat.learned", s.learned as f64);
    v.add("sat.vivified_clauses", s.vivified_clauses as f64);
    v.add("sat.subsumed_clauses", s.subsumed_clauses as f64);
    v.add("sat.eliminated_vars", s.eliminated_vars as f64);
    let w = &t.sweep;
    v.add("fraig.sweeps", w.sweeps as f64);
    v.add("fraig.rounds", w.rounds as f64);
    v.add("fraig.sat_calls", w.sat_calls as f64);
    v.add("fraig.proven", w.proven as f64);
    v.add("fraig.disproved", w.disproved as f64);
    v.add("fraig.budgeted_out", w.budgeted_out as f64);
    v.add("fraig.resim_columns", w.resim_columns as f64);
    v.add("fraig.resim_columns_saved", w.resim_columns_saved as f64);
}

/// Fills the ratio metrics derived from summed counters, after the
/// per-pass medians are taken.
pub(crate) fn derive_ratios(v: &mut Values, attempted: u64, failed: u64) {
    let itp = v.get("core.interpolated");
    let itp_fb = v.get("core.interpolation_fallbacks");
    v.set("core.itp_success_frac", stats::ratio(itp, itp + itp_fb));
    v.set(
        "fraig.proven_frac",
        stats::ratio(v.get("fraig.proven"), v.get("fraig.sat_calls")),
    );
    let hits = v.get("memo.hits");
    v.set(
        "memo.hit_frac",
        stats::ratio(hits, hits + v.get("memo.misses")),
    );
    v.set("failed_frac", stats::ratio(failed as f64, attempted as f64));
}
