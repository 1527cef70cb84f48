//! Command-line entry point:
//!
//! ```text
//! ecobench --workload <table2|serve_mix|seq_unroll> --seed <n> --seconds <s> --trace <0|1>
//!          [--instances <n>]
//! ```
//!
//! Prints a context line (settings, host facts, sample counts) and, as
//! the last line of standard output, the JSON result. Run it from the
//! repository root with
//! `cargo run --release --manifest-path ecobench/Cargo.toml -- <args>`.

use std::path::PathBuf;
use std::process::ExitCode;

use ecobench::{context_json, result_json, run, RunConfig, Workload};

fn parse_args(args: &[String]) -> Result<RunConfig, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut instances = 0u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--instances" => {
                instances = value()?.parse().map_err(|e| format!("--instances: {e}"))?
            }
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds.is_finite() && seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let work_dir =
        PathBuf::from(".ecobench_work").join(format!("{}-{}", workload.name(), std::process::id()));
    Ok(RunConfig {
        workload,
        seed,
        instances,
        seconds,
        trace,
        smoke: false,
        work_dir,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("ecobench: {e}");
            eprintln!(
                "usage: ecobench --workload <table2|serve_mix|seq_unroll> --seed <n> \
                 --seconds <s> --trace <0|1> [--instances <n>]"
            );
            return ExitCode::from(2);
        }
    };
    let outcome = run(&cfg);
    println!("{}", context_json(&cfg, &outcome));
    println!("{}", result_json(&outcome, cfg.trace));
    ExitCode::SUCCESS
}
