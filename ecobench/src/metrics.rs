//! The metric catalogue: every end-to-end and per-layer metric the
//! benchmark reports, with its unit, direction, and — for per-layer
//! metrics — the end-to-end metric and workload it should move.
//!
//! `BENCHMARK.json` at the repository root lists the same names and
//! units; the `catalogue_matches_benchmark_json` test keeps the two in
//! step.

use std::collections::BTreeMap;

use eco_core::json_escape;

/// One reported metric.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// End-to-end: what the value is on each workload. Per-layer: the
    /// end-to-end metric and workload a change in this layer should move.
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        moves,
    }
}

/// End-to-end metrics, reported by every untraced run. A "unit" is a
/// Table-2 unit, a sequential case, or a serve request.
pub const END_TO_END: &[Metric] = &[
    m(
        "setup_s",
        "s",
        "lower",
        "fastest of in-memory set-ups repeated through the run: instance generation, plus rendering the BTOR2 bytes (seq_unroll) or the pool files (serve_mix)",
    ),
    m(
        "wall_s",
        "s",
        "lower",
        "sum over units of each unit's best time over the passes (serve_mix: fastest pass from first due time to last response)",
    ),
    m(
        "unit_ms_geomean",
        "ms",
        "lower",
        "geomean over units of each unit's best time over the passes (serve_mix: geomean over pool instances of each one's median latency, best pass)",
    ),
    m(
        "unit_ms_max",
        "ms",
        "lower",
        "the slowest unit's best time (serve_mix: the slowest pool instance's median latency, best pass)",
    ),
    m(
        "latency_ms_p50",
        "ms",
        "lower",
        "median over units of each unit's best time (serve_mix: over pool instances of each one's median latency from due time, best pass)",
    ),
    m(
        "latency_ms_p90",
        "ms",
        "lower",
        "90th percentile of the same values",
    ),
    m(
        "cost_total",
        "cost",
        "lower",
        "sum of patch base cost over the distinct units; deterministic",
    ),
    m(
        "size_total",
        "and_gates",
        "lower",
        "sum of patch AND gates over the distinct units; deterministic",
    ),
    m(
        "peak_rss_mb",
        "MiB",
        "lower",
        "peak resident set of the benchmark process during the measuring passes (reset before each pass, read after it)",
    ),
];

/// Per-layer metrics, reported by every traced run. Values are per pass
/// (summed over the pass's units; times are medians over traced passes).
/// A layer a workload does not exercise reports 0.
pub const PER_LAYER: &[Metric] = &[
    m("core.instance_ns", "ns", "lower", "table2 unit_ms_geomean"),
    m(
        "core.fraig_ns",
        "ns",
        "lower",
        "table2 wall_s and unit_ms_geomean",
    ),
    m(
        "core.patchgen_ns",
        "ns",
        "lower",
        "table2 wall_s and unit_ms_geomean",
    ),
    m(
        "core.patchgen_self_ns",
        "ns",
        "lower",
        "table2 wall_s and unit_ms_geomean (patchgen minus the fraig it contains)",
    ),
    m("core.optimize_ns", "ns", "lower", "table2 wall_s"),
    m(
        "core.clustering_ns",
        "ns",
        "lower",
        "table2 unit_ms_geomean",
    ),
    m("core.assemble_ns", "ns", "lower", "table2 unit_ms_geomean"),
    m("core.verify_ns", "ns", "lower", "serve_mix latency_ms_p50"),
    m("core.clusters", "count", "higher", "table2 wall_s"),
    m("core.interpolated", "count", "higher", "table2 wall_s"),
    m(
        "core.interpolation_fallbacks",
        "count",
        "lower",
        "table2 wall_s",
    ),
    m("core.itp_success_frac", "frac", "higher", "table2 wall_s"),
    m(
        "core.localization_fallbacks",
        "count",
        "lower",
        "table2 wall_s",
    ),
    m(
        "sat.solvers",
        "count",
        "lower",
        "table2 wall_s and unit_ms_max; serve_mix unit_ms_max",
    ),
    m(
        "sat.conflicts",
        "count",
        "lower",
        "table2 wall_s and unit_ms_max; serve_mix unit_ms_max",
    ),
    m(
        "sat.decisions",
        "count",
        "lower",
        "table2 wall_s and unit_ms_max; serve_mix unit_ms_max",
    ),
    m(
        "sat.propagations",
        "count",
        "lower",
        "table2 wall_s and unit_ms_max; serve_mix unit_ms_max",
    ),
    m(
        "sat.restarts",
        "count",
        "lower",
        "table2 wall_s and unit_ms_max; serve_mix unit_ms_max",
    ),
    m(
        "sat.learned",
        "count",
        "lower",
        "table2 wall_s and unit_ms_max; serve_mix unit_ms_max",
    ),
    m(
        "sat.vivified_clauses",
        "count",
        "higher",
        "table2 wall_s and unit_ms_max; serve_mix unit_ms_max",
    ),
    m(
        "sat.subsumed_clauses",
        "count",
        "higher",
        "table2 wall_s and unit_ms_max; serve_mix unit_ms_max",
    ),
    m(
        "sat.eliminated_vars",
        "count",
        "higher",
        "table2 wall_s and unit_ms_max; serve_mix unit_ms_max",
    ),
    m("fraig.sweeps", "count", "lower", "table2 unit_ms_geomean"),
    m("fraig.rounds", "count", "lower", "table2 unit_ms_geomean"),
    m(
        "fraig.sat_calls",
        "count",
        "lower",
        "table2 unit_ms_geomean",
    ),
    m("fraig.proven", "count", "higher", "table2 unit_ms_geomean"),
    m(
        "fraig.disproved",
        "count",
        "lower",
        "table2 unit_ms_geomean",
    ),
    m(
        "fraig.budgeted_out",
        "count",
        "lower",
        "table2 unit_ms_geomean",
    ),
    m(
        "fraig.proven_frac",
        "frac",
        "higher",
        "table2 unit_ms_geomean (proven / sat_calls)",
    ),
    m(
        "fraig.resim_columns",
        "count",
        "lower",
        "table2 unit_ms_geomean",
    ),
    m(
        "fraig.resim_columns_saved",
        "count",
        "higher",
        "table2 unit_ms_geomean",
    ),
    m(
        "aig.nodes",
        "count",
        "lower",
        "table2 unit_ms_geomean (combined Workspace::new manager)",
    ),
    m(
        "aig.sim_ns",
        "ns",
        "lower",
        "table2 unit_ms_geomean (public simulator on that manager)",
    ),
    m(
        "netlist.parse_ns",
        "ns",
        "lower",
        "serve_mix latency_ms_p50 (parse_verilog on the pool files)",
    ),
    m(
        "netlist.write_ns",
        "ns",
        "lower",
        "table2 unit_ms_geomean (patch written as Verilog)",
    ),
    m("batch.load_ns", "ns", "lower", "serve_mix latency_ms_p50"),
    m(
        "batch.execute_hit_ns",
        "ns",
        "lower",
        "serve_mix latency_ms_p50 (execute_job on memo hits)",
    ),
    m(
        "batch.execute_miss_ns",
        "ns",
        "lower",
        "serve_mix latency_ms_p90 and wall_s (execute_job on cold solves)",
    ),
    m("memo.hits", "count", "higher", "serve_mix latency_ms_p50"),
    m("memo.misses", "count", "lower", "serve_mix latency_ms_p50"),
    m(
        "memo.fallbacks",
        "count",
        "lower",
        "serve_mix latency_ms_p50",
    ),
    m(
        "memo.hit_frac",
        "frac",
        "higher",
        "serve_mix latency_ms_p50",
    ),
    m("serve.served", "count", "higher", "serve_mix wall_s"),
    m("serve.busy", "count", "lower", "serve_mix failed attempts"),
    m(
        "serve.worker_restarts",
        "count",
        "lower",
        "serve_mix unit_ms_max",
    ),
    m(
        "serve.wait_ms_p50",
        "ms",
        "lower",
        "serve_mix latency_ms_p50 (latency minus traced service time)",
    ),
    m(
        "serve.wait_ms_p90",
        "ms",
        "lower",
        "serve_mix latency_ms_p90 (latency minus traced service time)",
    ),
    m(
        "serve.request_ms_p50",
        "ms",
        "lower",
        "serve_mix latency_ms_p50 (median over single requests)",
    ),
    m(
        "serve.request_ms_p90",
        "ms",
        "lower",
        "serve_mix latency_ms_p90 (90th percentile over single requests)",
    ),
    m(
        "serve.gen_lag_ms_max",
        "ms",
        "lower",
        "validity of serve_mix: how late the load generator sent",
    ),
    m(
        "seq.parse_ns",
        "ns",
        "lower",
        "seq_unroll wall_s and unit_ms_geomean",
    ),
    m(
        "seq.unroll_ns",
        "ns",
        "lower",
        "seq_unroll wall_s and unit_ms_geomean",
    ),
    m(
        "seq.comb_ns",
        "ns",
        "lower",
        "seq_unroll wall_s and unit_ms_geomean (inner combinational stages)",
    ),
    m(
        "seq.fold_reprove_ns",
        "ns",
        "lower",
        "seq_unroll wall_s and unit_ms_geomean (engine time outside unroll and comb)",
    ),
    m(
        "seq.sat_conflicts",
        "count",
        "lower",
        "seq_unroll wall_s and unit_ms_geomean",
    ),
    m(
        "seq.patch_size",
        "and_gates",
        "lower",
        "seq_unroll size_total and unit_ms_geomean",
    ),
    m(
        "table2.rcost_geomean",
        "ratio",
        "higher",
        "table2 cost_total (paper Table 2: baseline/ours)",
    ),
    m(
        "table2.rsize_geomean",
        "ratio",
        "higher",
        "table2 size_total (paper Table 2: baseline/ours)",
    ),
    m(
        "table2.rtime_geomean",
        "ratio",
        "higher",
        "table2 unit_ms_geomean (paper Table 2: baseline/ours)",
    ),
    m(
        "failed_frac",
        "frac",
        "lower",
        "every workload: attempts without a verified complete patch or with a refusal",
    ),
    m(
        "trace.overhead_ms",
        "ms",
        "lower",
        "none: traced pass wall minus untraced pass wall",
    ),
];

/// Metric values by name.
#[derive(Clone, Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Sets `name` to `v`.
    pub fn set(&mut self, name: &'static str, v: f64) {
        self.0.insert(name, v);
    }

    /// Adds `v` to `name` (starting from 0).
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.0.entry(name).or_insert(0.0) += v;
    }

    /// The value of `name`, 0 when unset.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Per-name median across `samples`.
    pub fn median_of(samples: &[Values]) -> Values {
        Values::per_name(samples, crate::stats::median)
    }

    /// Per-name smallest value across `samples`.
    pub fn min_of(samples: &[Values]) -> Values {
        Values::per_name(samples, crate::stats::min)
    }

    fn per_name(samples: &[Values], stat: fn(&[f64]) -> f64) -> Values {
        let mut names: Vec<&'static str> =
            samples.iter().flat_map(|s| s.0.keys().copied()).collect();
        names.sort_unstable();
        names.dedup();
        let mut out = Values::default();
        for name in names {
            let xs: Vec<f64> = samples.iter().map(|s| s.get(name)).collect();
            out.set(name, stat(&xs));
        }
        out
    }

    /// Renders the `metrics` object over every metric of `table`.
    /// `required` makes a missing value a bug (end-to-end metrics); a
    /// missing per-layer value reads 0.
    ///
    /// # Panics
    ///
    /// On a value whose name is not in `table`, or a missing required one.
    pub fn render(&self, table: &[Metric], required: bool) -> String {
        for name in self.0.keys() {
            assert!(
                table.iter().any(|m| m.name == *name),
                "metric {name} is not in the catalogue"
            );
        }
        let fields: Vec<String> = table
            .iter()
            .map(|m| {
                let v = self.0.get(m.name).copied();
                assert!(
                    !required || v.is_some(),
                    "metric {} was not measured",
                    m.name
                );
                let v = v.filter(|v| v.is_finite()).unwrap_or(0.0);
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    json_escape(m.name),
                    json_escape(m.unit)
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}
