//! Benchmark harnesses for the eco workspace; see `src/bin/*` and `benches/*`.
//!
//! The `benches/*` targets use the small std-only [`Bench`] harness below
//! (all are `harness = false`), so the workspace carries no external
//! benchmarking dependency and builds offline. Run them with
//! `cargo bench -p eco-bench`; each accepts `--json <path>` (or the
//! `ECO_BENCH_JSON` env var) to dump machine-readable results, and
//! `ECO_BENCH_SAMPLES` to override the per-bench sample count.

use std::time::Instant;

use eco_core::{json_escape, JsonObj};

pub use eco_core::peak_rss_bytes;

/// Timing summary for one named benchmark.
#[derive(Clone, Debug)]
pub struct BenchResult {
    /// Benchmark name, e.g. `table2/ours/unit06`.
    pub name: String,
    /// Number of timed samples.
    pub samples: usize,
    /// Mean wall time per sample, nanoseconds.
    pub mean_ns: u64,
    /// Median wall time per sample, nanoseconds.
    pub median_ns: u64,
    /// Fastest sample, nanoseconds.
    pub min_ns: u64,
    /// Slowest sample, nanoseconds.
    pub max_ns: u64,
}

/// Minimal fixed-sample benchmark runner: one warm-up iteration, then
/// `samples` timed iterations per benchmark, reported as a table and
/// optionally as JSON.
pub struct Bench {
    samples: usize,
    warmup: bool,
    results: Vec<BenchResult>,
    notes: Vec<String>,
}

impl Bench {
    /// Runner with an explicit per-benchmark sample count.
    pub fn with_samples(samples: usize) -> Self {
        Bench {
            samples: samples.max(1),
            warmup: true,
            results: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Runner configured from the environment. `cargo bench` invokes
    /// bench targets with a `--bench` argument; `cargo test` runs them
    /// without it, in which case a single un-warmed sample is taken so
    /// the test suite smoke-tests every bench path without the cost of
    /// real measurement. `ECO_BENCH_SAMPLES` overrides the count.
    pub fn from_env() -> Self {
        let bench_mode = std::env::args().any(|a| a == "--bench");
        let samples = std::env::var("ECO_BENCH_SAMPLES")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(if bench_mode { 10 } else { 1 });
        let mut bench = Self::with_samples(samples);
        bench.warmup = bench_mode;
        bench
    }

    /// Times `f`: one warm-up call (in bench mode), then the configured
    /// number of samples.
    pub fn run<T>(&mut self, name: &str, mut f: impl FnMut() -> T) {
        if self.warmup {
            std::hint::black_box(f());
        }
        let mut times: Vec<u64> = (0..self.samples)
            .map(|_| {
                let t0 = Instant::now();
                std::hint::black_box(f());
                t0.elapsed().as_nanos() as u64
            })
            .collect();
        times.sort_unstable();
        let result = BenchResult {
            name: name.to_string(),
            samples: self.samples,
            mean_ns: times.iter().sum::<u64>() / times.len() as u64,
            median_ns: times[times.len() / 2],
            min_ns: times[0],
            max_ns: times[times.len() - 1],
        };
        eprintln!(
            "{:<44} {:>12} median {:>12} mean ({} samples)",
            result.name,
            fmt_ns(result.median_ns),
            fmt_ns(result.mean_ns),
            result.samples
        );
        self.results.push(result);
    }

    /// Results collected so far.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Attaches a free-form annotation (methodology, before/after
    /// context) carried into the JSON dump under `"notes"`.
    pub fn note(&mut self, text: &str) {
        eprintln!("note: {text}");
        self.notes.push(text.to_string());
    }

    /// JSON dump of all results, one row per line, then the notes one
    /// per line, rendered with the shared [`JsonObj`] emitter.
    pub fn json(&self) -> String {
        let rows: Vec<String> = self
            .results
            .iter()
            .map(|r| {
                let row = JsonObj::new().str("name", &r.name).counters(&[
                    ("samples", r.samples as u64),
                    ("mean_ns", r.mean_ns),
                    ("median_ns", r.median_ns),
                    ("min_ns", r.min_ns),
                    ("max_ns", r.max_ns),
                ]);
                format!("  {}", row.build())
            })
            .collect();
        let notes = if self.notes.is_empty() {
            String::new()
        } else {
            let items: Vec<String> = self
                .notes
                .iter()
                .map(|n| format!("  \"{}\"", json_escape(n)))
                .collect();
            format!(",\n \"notes\": [\n{}\n]", items.join(",\n"))
        };
        format!("{{\"benches\": [\n{}\n]{notes}}}\n", rows.join(",\n"))
    }

    /// Prints the summary table and honors `--json <path>` /
    /// `ECO_BENCH_JSON` for a machine-readable dump.
    pub fn finish(self) {
        let mut json_path = std::env::var("ECO_BENCH_JSON").ok();
        let args: Vec<String> = std::env::args().collect();
        if let Some(i) = args.iter().position(|a| a == "--json") {
            json_path = args.get(i + 1).cloned();
        }
        if let Some(path) = json_path {
            match std::fs::write(&path, self.json()) {
                Ok(()) => eprintln!("wrote {path}"),
                Err(e) => eprintln!("failed to write {path}: {e}"),
            }
        }
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3} us", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collects_and_serializes() {
        let mut b = Bench::with_samples(3);
        b.run("noop", || 1 + 1);
        assert_eq!(b.results().len(), 1);
        let r = &b.results()[0];
        assert_eq!(r.samples, 3);
        assert!(r.min_ns <= r.median_ns && r.median_ns <= r.max_ns);
        let js = b.json();
        assert!(js.contains("\"name\": \"noop\""));
        assert!(js.contains("\"median_ns\""));
        assert!(!js.contains("\"notes\""), "no notes key when unannotated");
        b.note("methodology \"quoted\"");
        assert!(b
            .json()
            .contains("\"notes\": [\n  \"methodology \\\"quoted\\\"\"\n]"));
        // Backslashes and control characters are escaped too.
        b.run("dir\\noop", || 1 + 1);
        b.note("two\nlines");
        let js = b.json();
        assert!(js.contains("\"name\": \"dir\\\\noop\""), "{js}");
        assert!(js.contains("\"two\\nlines\""), "{js}");
    }
}
