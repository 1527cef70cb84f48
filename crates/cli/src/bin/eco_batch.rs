//! `eco-batch`: manifest-driven batch ECO patch generation.
//!
//! ```text
//! eco-batch run manifest.toml --jobs 4 --report batch.jsonl --stats
//! ```
//!
//! Runs every job of a batch manifest (TOML or JSON; see the
//! `eco_batch` crate docs for the format) over one global worker pool
//! with work stealing across jobs and a shared cross-job memo cache, so
//! structurally identical (sub-)circuits are solved once per batch.
//!
//! The JSONL report — one line per completed job, in manifest order —
//! goes to stdout (or `--report <path>`) and is byte-identical for any
//! `--jobs` value. `--repeat N` runs the whole job list N times over the
//! same cache (pass 0 cold, later passes warm) to measure cache reuse.
//! `--stats[=json]` prints pass wall times, status tallies, and cache
//! counters to stderr.
//!
//! `--timeout SECS` / `--conflict-budget N` bound the *whole batch*: the
//! deadline is shared by every job while the conflict allowance is
//! divided evenly across jobs, so a starved batch degrades to per-job
//! `partial` records.
//!
//! `--journal <dir>` write-ahead logs every job before execution and its
//! record after, and persists the memo cache under `<dir>`; adding
//! `--resume` replays a killed run — completed jobs verbatim (keyed by a
//! content fingerprint, so edited inputs recompute), everything else
//! fresh — producing the same report bytes as an uninterrupted run. The
//! `ECO_CHAOS=seed=N,rate=P` env var arms deterministic fault injection.
//!
//! Exit code: the most severe job outcome, mirroring `eco-patch` —
//! 1 (usage/IO/engine error) > 2 (unrectifiable) > 4 (partial) > 0.

use std::process::ExitCode;
use std::time::Duration;

use eco_batch::{
    exit_code, load_jobs, records_jsonl, run_batch, stats_json, BatchOptions, Manifest,
};
use eco_core::{parse_timeout, render_counters, BudgetOptions};

const USAGE: &str = "usage: eco-batch run <manifest.{toml,json}> [--jobs N] [--repeat N] \
[--report <path>] [--timeout SECS] [--conflict-budget N] [--journal <dir>] [--resume] \
[--stats[=json]] [-q]";

enum StatsFormat {
    Off,
    Text,
    Json,
}

struct Args {
    manifest: String,
    jobs: usize,
    repeat: usize,
    report: Option<String>,
    timeout: Option<Duration>,
    conflict_budget: Option<u64>,
    journal: Option<String>,
    resume: bool,
    stats: StatsFormat,
    quiet: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        manifest: String::new(),
        jobs: 0,
        repeat: 1,
        report: None,
        timeout: None,
        conflict_budget: None,
        journal: None,
        resume: false,
        stats: StatsFormat::Off,
        quiet: false,
    };
    let mut it = std::env::args().skip(1);
    let mut saw_run = false;
    while let Some(a) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("missing value for {flag}"));
        match a.as_str() {
            "run" if !saw_run => saw_run = true,
            "-j" | "--jobs" => {
                let v = value("--jobs")?;
                args.jobs = v
                    .parse()
                    .map_err(|_| format!("--jobs expects a number, got `{v}`"))?;
            }
            "--repeat" => {
                let v = value("--repeat")?;
                args.repeat = v
                    .parse()
                    .map_err(|_| format!("--repeat expects a number, got `{v}`"))?;
            }
            "--report" => args.report = Some(value("--report")?),
            "--timeout" => args.timeout = Some(parse_timeout(&value("--timeout")?)?),
            "--conflict-budget" => {
                let v = value("--conflict-budget")?;
                args.conflict_budget = Some(
                    v.parse()
                        .map_err(|_| format!("--conflict-budget expects a number, got `{v}`"))?,
                );
            }
            "--journal" => args.journal = Some(value("--journal")?),
            "--resume" => args.resume = true,
            "--stats" => args.stats = StatsFormat::Text,
            "--stats=json" => args.stats = StatsFormat::Json,
            "--stats=text" => args.stats = StatsFormat::Text,
            "-q" | "--quiet" => args.quiet = true,
            "-h" | "--help" => return Err(USAGE.to_string()),
            other if args.manifest.is_empty() && !other.starts_with('-') => {
                args.manifest = other.to_string();
            }
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    if !saw_run || args.manifest.is_empty() {
        return Err(USAGE.to_string());
    }
    if args.resume && args.journal.is_none() {
        return Err("--resume requires --journal <dir>".into());
    }
    Ok(args)
}

fn run(args: &Args) -> Result<u8, String> {
    // `ECO_CHAOS=seed=N,rate=P` arms the fault registry (chaos
    // campaigns drive the real binary through this).
    eco_core::faultpoint::arm_from_env()?;
    let manifest =
        Manifest::load(std::path::Path::new(&args.manifest)).map_err(|e| e.to_string())?;
    let jobs = load_jobs(&manifest);
    let options = BatchOptions {
        jobs: args.jobs,
        repeat: args.repeat,
        budget: BudgetOptions {
            timeout: args.timeout,
            cluster_conflicts: args.conflict_budget,
        },
        journal: args.journal.as_ref().map(std::path::PathBuf::from),
        resume: args.resume,
    };
    let outcome = run_batch(&jobs, &options);

    let report = records_jsonl(&outcome.records);
    match &args.report {
        Some(p) => std::fs::write(p, &report).map_err(|e| format!("{p}: {e}"))?,
        None => print!("{report}"),
    }
    if !args.quiet {
        for (pass, wall) in outcome.pass_wall.iter().enumerate() {
            eprintln!(
                "pass {pass}: {} jobs in {:.3}s",
                jobs.len(),
                wall.as_secs_f64()
            );
        }
        eprintln!("memo: {}", render_counters(&outcome.memo.fields(), false));
        if args.journal.is_some() {
            eprintln!(
                "journal: {} replayed, {} memo entries loaded, {} persist errors",
                outcome.reused, outcome.memo_loaded, outcome.persist_errors
            );
        }
    }
    match args.stats {
        StatsFormat::Off => {}
        StatsFormat::Text => {
            let count =
                |s: eco_batch::JobStatus| outcome.records.iter().filter(|r| r.status == s).count();
            use eco_batch::JobStatus::*;
            eprintln!(
                "jobs: {} complete, {} partial, {} unrectifiable, {} error",
                count(Complete),
                count(Partial),
                count(Unrectifiable),
                count(Error)
            );
        }
        StatsFormat::Json => eprintln!("{}", stats_json(&outcome)),
    }
    Ok(exit_code(&outcome.records))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(1);
        }
    };
    match run(&args) {
        Ok(code) => ExitCode::from(code),
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(1)
        }
    }
}
