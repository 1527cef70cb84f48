//! The benchmark's own tests: smoke-sized runs of every workload emit
//! every metric, a seed reproduces its outputs exactly, the instance
//! seed re-draws the Table-2 suite within its families, and the metric
//! catalogue matches `BENCHMARK.json`.

use std::path::PathBuf;

use eco_workgen::{build_unit, suite_specs};
use ecobench::metrics::{END_TO_END, PER_LAYER};
use ecobench::{result_json, run, serve_mix, table2, Outcome, RunConfig, Workload};

fn smoke(workload: Workload, seed: u64, trace: bool, tag: &str) -> Outcome {
    let work_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "{}-{tag}-{}",
        workload.name(),
        std::process::id()
    ));
    run(&RunConfig {
        workload,
        seed,
        instances: 0,
        seconds: 0.01,
        trace,
        smoke: true,
        work_dir,
    })
}

#[test]
fn smoke_runs_emit_every_metric_with_its_unit() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let out = smoke(workload, 3, trace, "emit");
            let what = format!("{} trace={trace}", workload.name());
            assert!(out.mismatches.is_empty(), "{what}: {:?}", out.mismatches);
            assert_eq!(out.failed, 0, "{what}");
            assert!(out.attempted > 0, "{what}");
            let line = result_json(&out, trace);
            assert!(line.starts_with("{\"correct\": true, "), "{what}: {line}");
            let table = if trace { PER_LAYER } else { END_TO_END };
            for m in table {
                let field = format!("\"{}\": {{\"value\": ", m.name);
                assert!(line.contains(&field), "{what}: no {}", m.name);
                let unit = format!("\"unit\": \"{}\"", m.unit);
                let tail = &line[line.find(&field).expect("present")..];
                assert!(tail.contains(&unit), "{what}: {} lacks its unit", m.name);
            }
            if !trace {
                for m in END_TO_END {
                    assert!(out.metrics.get(m.name) > 0.0, "{what}: {} is 0", m.name);
                }
            }
        }
    }
}

#[test]
fn same_seed_reproduces_costs_sizes_and_response_bytes() {
    for workload in Workload::ALL {
        let a = smoke(workload, 11, false, "det-a");
        let b = smoke(workload, 11, false, "det-b");
        assert!(!a.output.is_empty(), "{}", workload.name());
        assert_eq!(a.output, b.output, "{}", workload.name());
        for name in ["cost_total", "size_total"] {
            assert_eq!(a.metrics.get(name), b.metrics.get(name), "{name}");
        }
    }
}

#[test]
fn instance_seed_redraws_the_suite_within_its_families() {
    let canonical = suite_specs();
    let zero = table2::specs(0);
    for (a, b) in canonical.iter().zip(&zero) {
        assert_eq!((&a.name, a.seed), (&b.name, b.seed));
    }
    let redrawn = table2::specs(7);
    let mut changed = 0;
    for (a, b) in canonical.iter().zip(&redrawn) {
        assert_eq!(a.family, b.family, "{}", a.name);
        assert_eq!(a.n_targets, b.n_targets, "{}", a.name);
        assert_eq!(a.bias, b.bias, "{}", a.name);
        assert_eq!(a.weights, b.weights, "{}", a.name);
        assert_ne!(a.seed, b.seed, "{}", a.name);
        if build_unit(a).targets != build_unit(b).targets {
            changed += 1;
        }
    }
    assert!(changed >= 5, "only {changed} units picked new targets");
}

#[test]
fn schedule_places_cold_solves_alike_for_every_seed() {
    let (pool, requests) = (5, 40);
    let a = serve_mix::schedule(pool, requests, 1);
    let b = serve_mix::schedule(pool, requests, 2);
    let cold = |s: &[(usize, bool)]| -> Vec<(usize, usize)> {
        s.iter()
            .enumerate()
            .filter(|(_, (_, first))| *first)
            .map(|(i, (k, _))| (i, *k))
            .collect()
    };
    assert_eq!(
        cold(&a),
        (0..pool)
            .map(|k| (k * requests / pool, k))
            .collect::<Vec<_>>()
    );
    assert_eq!(cold(&a), cold(&b));
    assert_ne!(a, b, "the seed draws the repeats");
    // Each request repeats an instance touched before it.
    for s in [&a, &b] {
        let mut touched = 0;
        for &(k, first) in s.iter() {
            if first {
                touched += 1;
            } else {
                assert!(k < touched);
            }
        }
    }
}

/// `BENCHMARK.json` lists every catalogue metric with the same unit and
/// direction, and nothing else.
#[test]
fn catalogue_matches_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text: String = std::fs::read_to_string(path)
        .expect("BENCHMARK.json at the repository root")
        .split_whitespace()
        .collect();
    for m in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!(
            "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\"",
            m.name, m.unit, m.better
        );
        assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for w in Workload::ALL {
        assert!(text.contains(&format!("{{\"name\":\"{}\",\"why\":", w.name())));
    }
    let names = text.matches("{\"name\":").count();
    assert_eq!(
        names,
        END_TO_END.len() + PER_LAYER.len() + Workload::ALL.len()
    );
}
