//! `serve_mix`: the eco-serve daemon under an open-loop request mix.
//!
//! An in-process [`Server`] with two workers reads one connection (an OS
//! pipe) fed by an open-loop generator at a fixed rate. Requests draw
//! from a pool of suite-family instances written to disk. First touches
//! are cold solves that insert into the memo (writes); the other
//! requests repeat earlier instances and are memo hits (reads: parse,
//! memo key, re-verification miter). Every pass replays the same
//! schedule against a fresh daemon, so each pass has the same cold
//! share. Latency runs from a request's due time to its response line.
//!
//! The pool leaves out any instance whose cold solve takes more than
//! [`SCREEN_FACTOR`] times the pool median (measured as SAT propagations,
//! so the choice is deterministic): one such job would stall every later
//! response on the sequenced connection, and `table2` covers those
//! shapes.

use std::hint::black_box;
use std::io::{BufReader, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use eco_aig::SplitMix64;
use eco_batch::json::Value;
use eco_batch::{execute_job, load_job_instance, JobRecord, JobSpec, JobStatus};
use eco_core::{json_escape, Budget, EcoEngine, EcoOptions, MemoCache};
use eco_netlist::{parse_verilog, write_verilog, write_weights};
use eco_serve::proto::run_response;
use eco_serve::{ServeOptions, ServeSummary, Server};
use eco_workgen::{build_unit, suite_specs, write_unit, SuiteUnit, UnitSpec};

use crate::metrics::Values;
use crate::stats::{geomean, median, min, quantile};
use crate::{
    add_telemetry, derive_ratios, Deadline, Outcome, PeakRss, RunConfig, Setup, SMOKE_UNITS,
};

/// Daemon worker threads (the host's core count).
pub const WORKERS: usize = 2;
/// Open-loop request rate. The traced run reports the capacity estimate
/// (workers over mean service time) it sits under; faster rates let
/// head-of-line blocking behind cold solves set the tail, which then
/// varied more between runs than the benchmark's bounds allow.
pub const RATE_RPS: f64 = 100.0;
/// Requests per pass; each pass is `PASS_REQUESTS / RATE_RPS` seconds.
/// Short passes give a run several, and the best of them: stretches in
/// which the host gave the daemon less CPU raised a whole 8 s pass's 90th
/// percentile by up to 70%.
pub const PASS_REQUESTS: usize = 400;
/// Screening threshold against the pool median cold-solve work: the
/// pool keeps the cheaper instances. A cold solve holds every later
/// response on the sequenced connection, and at 3x the median (20-45 ms
/// solves) the held requests were about 3% of an 8 s pass, which put the
/// 90th percentile on the edge between them and the slowest instance's
/// hits, where it flipped between runs. At 0.8x the eight instances left
/// hold about 2% of a 4 s pass and each makes up 1/8 of the hits, so the
/// 90th percentile lies inside the slowest instance's hits.
pub const SCREEN_FACTOR: f64 = 0.8;
/// A pass whose generator sent a request later than this after its due
/// time measured the generator, not the daemon: the run is flagged.
pub const GEN_LAG_LIMIT_MS: f64 = 50.0;
const SMOKE_REQUESTS: usize = 16;

/// One pool instance: its job spec and the record `execute_job`
/// computes for it directly, which every response must reproduce.
struct PoolEntry {
    spec: JobSpec,
    reference: JobRecord,
}

/// The pool's unit specs for instance seed `instances`: one re-drawn
/// instance of every suite family.
fn pool_specs(instances: u64, smoke: bool) -> Vec<UnitSpec> {
    suite_specs()
        .into_iter()
        .filter(|spec| !smoke || SMOKE_UNITS.contains(&spec.name.as_str()))
        .map(|mut spec| {
            let mix = instances.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ spec.seed;
            spec.seed = SplitMix64::new(mix).next_u64();
            spec
        })
        .collect()
}

/// Writes the pool's files and returns their job specs.
fn write_pool(dir: &Path, units: &[SuiteUnit]) -> Vec<JobSpec> {
    std::fs::create_dir_all(dir).expect("create the work directory");
    units
        .iter()
        .map(|unit| {
            let entry = write_unit(dir, unit).expect("write pool files");
            JobSpec {
                name: entry.name,
                faulty: dir.join(entry.faulty),
                golden: dir.join(entry.golden),
                weights: Some(dir.join(entry.weights)),
                targets: entry.targets,
                budget: None,
            }
        })
        .collect()
}

/// Screens the written pool and computes each survivor's reference
/// record, off the clock. A set-up sample follows every screening solve:
/// the passes leave room for only a few, and samples spread over time
/// are what make the fastest one repeat between runs.
fn prepare(specs: Vec<JobSpec>, setup: &mut Setup) -> Vec<PoolEntry> {
    let work: Vec<f64> = specs
        .iter()
        .map(|spec| {
            let inst = load_job_instance(spec).expect("pool instance loads");
            let opts = EcoOptions {
                jobs: 1,
                ..EcoOptions::default()
            };
            let work = EcoEngine::new(inst, opts)
                .run()
                .map_or(f64::INFINITY, |r| r.telemetry.sat.propagations as f64);
            setup.sample();
            work
        })
        .collect();
    let limit = SCREEN_FACTOR * median(&work);
    specs
        .into_iter()
        .zip(work)
        .filter(|(_, w)| *w <= limit)
        .map(|(spec, _)| {
            let source = load_job_instance(&spec);
            let cache = Arc::new(MemoCache::new());
            let reference = execute_job(
                &spec.name,
                &source,
                &EcoOptions::default(),
                &Budget::unlimited(),
                &cache,
            );
            PoolEntry { spec, reference }
        })
        .filter(|e| e.reference.status == JobStatus::Complete && e.reference.verified)
        .collect()
}

/// The request schedule: `(pool index, first touch)` per request. First
/// touches come in pool order, spread evenly over the pass. The other
/// requests repeat earlier-touched instances in rounds: each round visits
/// every touched instance once, in an order drawn from `seed`. Cold
/// solves thus sit at the same places for every seed and every window
/// repeats the same instances, which keeps head-of-line blocking, and
/// with it latency, comparable across seeds.
pub fn schedule(pool: usize, requests: usize, seed: u64) -> Vec<(usize, bool)> {
    let mut rng = SplitMix64::new(seed ^ 0x5e7e_0f1e);
    let mut touched = 0;
    let mut round: Vec<usize> = Vec::new();
    let mut out = Vec::with_capacity(requests);
    for i in 0..requests {
        if touched < pool && i * pool >= touched * requests {
            out.push((touched, true));
            touched += 1;
        } else {
            if round.is_empty() {
                round = (0..touched).collect();
                rng.shuffle(&mut round);
            }
            out.push((round.pop().expect("refilled above"), false));
        }
    }
    out
}

/// One request line.
fn request_line(id: usize, spec: &JobSpec) -> String {
    let quote = |s: &str| format!("\"{}\"", json_escape(s));
    let path = |p: &PathBuf| quote(&p.display().to_string());
    let weights = spec.weights.as_ref().expect("pool jobs carry weights");
    let targets: Vec<String> = spec.targets.iter().map(|t| quote(t)).collect();
    format!(
        "{{\"op\": \"run\", \"id\": {id}, \"job\": {{\"name\": {}, \"faulty\": {}, \
         \"golden\": {}, \"weights\": {}, \"targets\": [{}]}}}}\n",
        quote(&spec.name),
        path(&spec.faulty),
        path(&spec.golden),
        path(weights),
        targets.join(", ")
    )
}

/// Response bytes with each line's arrival time.
#[derive(Default)]
struct Captured {
    bytes: Vec<u8>,
    arrivals: Vec<Instant>,
}

/// The connection's write side: records when each response line ends.
struct Capture(Arc<Mutex<Captured>>);

impl Write for Capture {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let now = Instant::now();
        let mut c = self.0.lock().expect("no capture writer panics");
        c.bytes.extend_from_slice(buf);
        let lines = buf.iter().filter(|&&b| b == b'\n').count();
        c.arrivals.extend(std::iter::repeat_n(now, lines));
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// One live pass against a fresh daemon.
struct Live {
    latency_ms: Vec<f64>,
    wall_s: f64,
    gen_lag_ms: f64,
    responses: String,
    summary: ServeSummary,
}

fn live_pass(lines: &[String]) -> Live {
    let server = Server::new(ServeOptions {
        workers: WORKERS,
        ..ServeOptions::default()
    });
    let captured = Arc::new(Mutex::new(Captured::default()));
    let (reader, mut writer) = std::io::pipe().expect("create the connection pipe");
    let period = Duration::from_secs_f64(1.0 / RATE_RPS);
    let mut dues = Vec::with_capacity(lines.len());
    let mut gen_lag = Duration::ZERO;
    let summary = std::thread::scope(|s| {
        let sink = Box::new(Capture(Arc::clone(&captured)));
        let server = &server;
        let serving = s.spawn(move || server.serve_reader(BufReader::new(reader), sink));
        let start = Instant::now();
        for (i, line) in lines.iter().enumerate() {
            let due = start + period.mul_f64(i as f64);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            gen_lag = gen_lag.max(Instant::now().saturating_duration_since(due));
            writer
                .write_all(line.as_bytes())
                .expect("the daemon reads until EOF");
            dues.push(due);
        }
        drop(writer);
        serving.join().expect("serve thread")
    });
    let captured = std::mem::take(&mut *captured.lock().expect("serving has ended"));
    let latency_ms: Vec<f64> = captured
        .arrivals
        .iter()
        .zip(&dues)
        .map(|(a, d)| a.saturating_duration_since(*d).as_secs_f64() * 1e3)
        .collect();
    let wall_s = match (dues.first(), captured.arrivals.last()) {
        (Some(first), Some(last)) => last.saturating_duration_since(*first).as_secs_f64(),
        _ => 0.0,
    };
    Live {
        latency_ms,
        wall_s,
        gen_lag_ms: gen_lag.as_secs_f64() * 1e3,
        responses: String::from_utf8_lossy(&captured.bytes).into_owned(),
        summary,
    }
}

/// Traced replay of one pass's requests through the public batch and
/// engine calls the daemon makes, returning each request's service time
/// (load + execute) in ms.
fn traced_replay(pool: &[PoolEntry], sched: &[(usize, bool)], v: &mut Values) -> Vec<f64> {
    let ns = |t: Instant| t.elapsed().as_nanos() as f64;
    let cache = Arc::new(MemoCache::new());
    let mut service = Vec::with_capacity(sched.len());
    for &(k, first) in sched {
        let spec = &pool[k].spec;
        let texts = [&spec.faulty, &spec.golden]
            .map(|p| std::fs::read_to_string(p).expect("pool file reads"));
        let t = Instant::now();
        for text in &texts {
            black_box(parse_verilog(text).expect("pool file parses"));
        }
        v.add("netlist.parse_ns", ns(t));
        let t = Instant::now();
        let source = load_job_instance(spec);
        let load = ns(t);
        v.add("batch.load_ns", load);
        let t = Instant::now();
        black_box(execute_job(
            &spec.name,
            &source,
            &EcoOptions::default(),
            &Budget::unlimited(),
            &cache,
        ));
        let execute = ns(t);
        let key = if first {
            "batch.execute_miss_ns"
        } else {
            "batch.execute_hit_ns"
        };
        v.add(key, execute);
        service.push((load + execute) / 1e6);
    }
    // The engine's own telemetry for the same stream, with the options
    // `execute_job` uses.
    let cache = Arc::new(MemoCache::new());
    for &(k, _) in sched {
        let inst = load_job_instance(&pool[k].spec).expect("pool instance loads");
        let opts = EcoOptions {
            jobs: 1,
            memo: Some(Arc::clone(&cache)),
            ..EcoOptions::default()
        };
        if let Ok(r) = EcoEngine::new(inst, opts).run() {
            add_telemetry(v, &r.telemetry);
        }
    }
    service
}

/// Runs the workload (see the module docs).
pub fn run(cfg: &RunConfig) -> Outcome {
    let specs = pool_specs(cfg.instances, cfg.smoke);
    // The timed set-up generates the pool and renders its files in
    // memory. Writing them to disk happens once, off the clock: one
    // sample of file creation varied by a quarter between runs, and it
    // is the kernel's work, not the program's.
    let units: Vec<SuiteUnit> = specs.iter().map(build_unit).collect();
    let mut setup = Setup::new(|| {
        for unit in specs.iter().map(build_unit) {
            black_box(write_verilog(&unit.faulty));
            black_box(write_verilog(&unit.golden));
            black_box(write_weights(&unit.weights));
        }
    });
    setup.sample();
    let jobs = write_pool(&cfg.work_dir, &units);
    let pool = prepare(jobs, &mut setup);
    let requests = if cfg.smoke {
        SMOKE_REQUESTS
    } else {
        PASS_REQUESTS
    };
    let sched = schedule(pool.len(), requests, cfg.seed);
    let lines: Vec<String> = sched
        .iter()
        .enumerate()
        .map(|(i, &(k, _))| request_line(i, &pool[k].spec))
        .collect();
    let expected: Vec<String> = sched
        .iter()
        .enumerate()
        .map(|(i, &(k, _))| run_response(&Value::Int(i as u64), &pool[k].reference))
        .collect();

    let mut out = Outcome::default();
    // Per untraced pass: its latency statistics. A run reports each
    // statistic's best value over the passes: the host's speed drifts
    // for seconds at a time, and at 1 ms latencies a slow stretch moved
    // a pass's 90th percentile by half while the best pass repeated
    // between runs. Every pass's whole wall time (traced or not) feeds
    // the tracing overhead.
    let mut pass_stats = Vec::new();
    let mut walls = Vec::new();
    let mut samples = 0;
    let (mut traced, mut traced_walls) = (Vec::new(), Vec::new());
    let mut gen_lag_ms: f64 = 0.0;
    let mut service_ms = Vec::new();
    let min_passes = if cfg.trace { 2 } else { 1 };
    let mut rss = PeakRss::new();
    let deadline = Deadline::new(cfg.seconds);
    let mut passes = 0;
    while deadline.more(passes, min_passes) {
        let tracing = cfg.trace && passes % 2 == 1;
        let t_pass = Instant::now();
        let mut v = Values::default();
        let service = if tracing {
            traced_replay(&pool, &sched, &mut v)
        } else {
            Vec::new()
        };
        rss.start();
        let live = live_pass(&lines);
        rss.stop();
        gen_lag_ms = gen_lag_ms.max(live.gen_lag_ms);
        check_responses(&live.responses, &expected, &mut out);
        if passes == 0 {
            out.output = live.responses.clone();
        } else if live.responses != out.output {
            out.mismatches
                .push("response bytes changed between passes".into());
        }
        if tracing {
            let waits: Vec<f64> = live
                .latency_ms
                .iter()
                .zip(&service)
                .map(|(l, s)| l - s)
                .collect();
            v.set("serve.wait_ms_p50", quantile(&waits, 0.5));
            v.set("serve.wait_ms_p90", quantile(&waits, 0.9));
            v.set("serve.request_ms_p50", quantile(&live.latency_ms, 0.5));
            v.set("serve.request_ms_p90", quantile(&live.latency_ms, 0.9));
            v.set("serve.gen_lag_ms_max", live.gen_lag_ms);
            let s = &live.summary;
            v.set("serve.served", s.served as f64);
            v.set("serve.busy", s.busy as f64);
            v.set("serve.worker_restarts", s.worker_restarts as f64);
            v.set("memo.hits", s.memo.hits as f64);
            v.set("memo.misses", s.memo.misses as f64);
            v.set("memo.fallbacks", s.memo.fallbacks as f64);
            service_ms.extend_from_slice(&service);
            traced.push(v);
            traced_walls.push(t_pass.elapsed().as_secs_f64());
        } else {
            let l = &live.latency_ms;
            // A pool instance's median latency is the daemon's analog of
            // a unit's time in the other workloads, and the latency
            // metrics are taken over those times as they are over units.
            // The 90th percentile over single requests moved between
            // about 1.2 and 2.9 ms from one run to the next, as the host
            // gave the daemon's threads less CPU for longer than a run;
            // the traced run reports it as `serve.request_ms_p90`.
            let mut per_instance = vec![Vec::new(); pool.len()];
            for (&(k, _), &lat) in sched.iter().zip(l) {
                per_instance[k].push(lat);
            }
            let instance_ms: Vec<f64> = per_instance.iter().map(|xs| median(xs)).collect();
            let mut v = Values::default();
            v.set("wall_s", live.wall_s);
            v.set("unit_ms_geomean", geomean(&instance_ms));
            v.set(
                "unit_ms_max",
                instance_ms.iter().copied().fold(0.0, f64::max),
            );
            v.set("latency_ms_p50", quantile(&instance_ms, 0.5));
            v.set("latency_ms_p90", quantile(&instance_ms, 0.9));
            pass_stats.push(v);
            walls.push(t_pass.elapsed().as_secs_f64());
            samples += l.len();
            setup.sample();
        }
        passes += 1;
    }
    let _ = std::fs::remove_dir_all(&cfg.work_dir);

    out.metrics = if cfg.trace {
        let mut v = Values::median_of(&traced);
        v.set(
            "trace.overhead_ms",
            (min(&traced_walls) - min(&walls)) * 1e3,
        );
        derive_ratios(&mut v, out.attempted, out.failed);
        v
    } else {
        let mut v = Values::min_of(&pass_stats);
        v.set("setup_s", setup.seconds());
        v.set(
            "cost_total",
            pool.iter().map(|e| e.reference.cost).sum::<u64>() as f64,
        );
        v.set(
            "size_total",
            pool.iter().map(|e| e.reference.size).sum::<u64>() as f64,
        );
        v.set("peak_rss_mb", rss.mb());
        v
    };
    let cold = sched.iter().filter(|(_, first)| *first).count();
    out.context.extend([
        (
            "load",
            format!("\"open loop, {RATE_RPS} req/s, fresh daemon per pass\""),
        ),
        ("connections", "1".into()),
        ("workers", WORKERS.to_string()),
        ("pool", pool.len().to_string()),
        ("requests_per_pass", requests.to_string()),
        ("cold_per_pass", cold.to_string()),
        ("passes", walls.len().to_string()),
        ("traced_passes", traced_walls.len().to_string()),
        ("latency_samples", samples.to_string()),
        ("setup_reps", setup.reps().to_string()),
        ("peak_rss_reset", rss.reset().to_string()),
        ("gen_lag_ms_max", gen_lag_ms.to_string()),
        (
            "generator_valid",
            (gen_lag_ms <= GEN_LAG_LIMIT_MS).to_string(),
        ),
    ]);
    if !service_ms.is_empty() {
        // Workers over mean service time: what the rate is set against.
        let mean_s = service_ms.iter().sum::<f64>() / service_ms.len() as f64 / 1e3;
        out.context.push((
            "capacity_rps_estimate",
            (WORKERS as f64 / mean_s).to_string(),
        ));
    }
    if gen_lag_ms > GEN_LAG_LIMIT_MS {
        eprintln!(
            "serve_mix: invalid run: the generator sent up to {gen_lag_ms:.2} ms late \
             (limit {GEN_LAG_LIMIT_MS} ms); it measured the load generator, not the daemon"
        );
    }
    out
}

/// Counts one pass's responses: a line equal to the directly computed
/// record is a verified answer, a refusal is a failed attempt, anything
/// else is an oracle mismatch.
fn check_responses(responses: &str, expected: &[String], out: &mut Outcome) {
    let got: Vec<&str> = responses.lines().collect();
    if got.len() != expected.len() {
        out.mismatches.push(format!(
            "{} responses to {} requests",
            got.len(),
            expected.len()
        ));
    }
    for (line, want) in got.iter().zip(expected) {
        out.attempted += 1;
        if line == want {
            continue;
        }
        if line.contains("\"ok\": false") {
            out.failed += 1;
        } else if out.mismatches.len() < 8 {
            out.mismatches
                .push(format!("response {line} differs from execute_job's {want}"));
        }
    }
}
