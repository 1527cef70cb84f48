//! `eco-fuzz`: the differential campaigns of the ECO stack, on one
//! seeded driver ([`eco_workgen::campaign`]).
//!
//! ```text
//! eco-fuzz --iters 500 --seed 1 --shrink            # fuzz campaign
//! eco-fuzz --campaign budget --iters 200            # governed pipeline
//! eco-fuzz --campaign formats --iters 15 --shrink   # format hub
//! eco-fuzz --campaign chaos --iters 240             # fault injection
//! eco-fuzz --campaign budget --case 17              # rerun one seed
//! eco-fuzz --iters 1000 --corpus tests/corpus       # save failures
//! eco-fuzz --replay tests/corpus                    # replay a corpus
//! ```
//!
//! `--campaign` selects what each seed generates and how it is checked:
//!
//! * `fuzz` (default) — a seeded random golden circuit with
//!   contest-style faults runs through the full patch-generation
//!   pipeline; an independent oracle checks the result (emitted-Verilog
//!   round trip, fresh SAT miter, random-simulation cross-check).
//! * `budget` — the same cases through the *governed* pipeline under a
//!   seeded starvation budget (tiny per-cluster conflict allowances,
//!   occasional zero deadlines): each case must complete and pass the
//!   oracle (a pass) or degrade to a well-formed partial result — never
//!   panic, hang, or emit a malformed netlist.
//! * `formats` — seeded designs (combinational, shift-register and
//!   sequential-DAG families) go through every legal format and every
//!   ordered format pair, with per-format byte-fixpoint checks and a
//!   k-frame unrolled SAT miter proving each survivor equivalent.
//! * `chaos` — each seed is one in-process fault sweep over a batch or
//!   serve run with a differential oracle; after the loop, a kill drill
//!   SIGKILLs a real `eco-serve --stdio` daemon and recovers it with
//!   `--resume` (see `chaos.rs`).
//!
//! Cases run at seeds `--seed`, `--seed + 1`, … until `--iters` cases
//! have run (a seed that yields no case is passed over). Each failure
//! line names its seed, and `--case <seed>` reruns that seed alone under
//! the selected campaign (chaos: without the kill drill). `--shrink`
//! reduces failures and `--corpus <dir>` saves each (shrunk) failing case
//! as `fail_<seed>.case` or `.rtcase` (fuzz and formats only; a flag the
//! selected campaign cannot use is a usage error). `--replay
//! <file-or-dir>` checks saved `.case` and `.rtcase` files with their
//! campaign's oracle.
//!
//! The summary goes to stdout as `key value` pairs, or with
//! `--stats=json` as one JSON object (same `JsonObj` emitter as
//! `eco-patch --stats=json`). Failure lines go to stderr.
//!
//! Exit codes: 0 — clean; 1 — usage or I/O error (an empty replay
//! included); 3 — failures found.

mod chaos;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use eco_core::render_counters;
use eco_workgen::campaign::{self, Campaign, Failure, Found, Outcome, Report, Stats};
use eco_workgen::fuzz::{BudgetCampaign, FuzzCampaign};
use eco_workgen::roundtrip::FormatCampaign;

use crate::chaos::ChaosCampaign;

const USAGE: &str = "usage: eco-fuzz [--campaign fuzz|budget|formats|chaos] [--iters <n>] \
                     [--seed <s>] [--shrink] [--corpus <dir>] [--stats=json]
       eco-fuzz [--campaign ...] --case <seed> [--shrink] [--corpus <dir>] [--stats=json]
       eco-fuzz --replay <file-or-dir> [--stats=json]";

/// Cases per run when `--iters` is not given.
const DEFAULT_ITERS: u64 = 200;

#[derive(Default)]
struct Args {
    campaign: Option<String>,
    iters: Option<u64>,
    seed: Option<u64>,
    shrink: bool,
    corpus: Option<PathBuf>,
    replay: Option<PathBuf>,
    case: Option<u64>,
    json: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("missing value for {flag}"));
        let number = |flag: &str, v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag} expects a decimal number, got `{v}`"))
        };
        match a.as_str() {
            "--campaign" => args.campaign = Some(value("--campaign")?),
            "--iters" => args.iters = Some(number("--iters", value("--iters")?)?),
            "--seed" => args.seed = Some(number("--seed", value("--seed")?)?),
            "--case" => args.case = Some(number("--case", value("--case")?)?),
            "--shrink" => args.shrink = true,
            "--corpus" => args.corpus = Some(PathBuf::from(value("--corpus")?)),
            "--replay" => args.replay = Some(PathBuf::from(value("--replay")?)),
            "--stats=json" => args.json = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.replay.is_some()
        && (args.campaign.is_some()
            || args.iters.is_some()
            || args.seed.is_some()
            || args.case.is_some()
            || args.shrink
            || args.corpus.is_some())
    {
        return Err("--replay takes no campaign flags".into());
    }
    if args.case.is_some() && (args.iters.is_some() || args.seed.is_some()) {
        return Err("--case runs one seed; it takes no --iters or --seed".into());
    }
    Ok(args)
}

/// Prints failure `i`; `origin` names the seed or file it came from.
fn print_failure(i: usize, origin: &str, failure: &Failure) {
    eprintln!("failure {i}: {origin} {failure}");
}

/// Saves a failing case to the corpus directory.
fn save<C: Campaign>(dir: &Path, found: &Found<C::Case>) -> Result<PathBuf, String> {
    let corpus = C::corpus().expect("flags were checked against the campaign");
    let path = dir.join(format!("fail_{}.{}", found.seed, corpus.ext));
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, (corpus.to_text)(&found.case)))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

/// Runs the selected campaign; `Ok(true)` when it found no failure.
fn drive<C: Campaign>(
    args: &Args,
    name: &str,
    make: impl FnOnce() -> Result<C, String>,
) -> Result<bool, String> {
    if args.shrink && C::shrinker().is_none() {
        return Err(format!(
            "--shrink: the {name} campaign has no shrinker\n{USAGE}"
        ));
    }
    if args.corpus.is_some() && C::corpus().is_none() {
        return Err(format!(
            "--corpus: the {name} campaign saves no cases\n{USAGE}"
        ));
    }
    let mut campaign = make()?;
    let report = match args.case {
        Some(seed) => {
            let case = campaign
                .case(seed)
                .ok_or_else(|| format!("seed {seed} yields no case"))?;
            let mut report = Report::default();
            report.run_case(&mut campaign, seed, case, args.shrink);
            report
        }
        None => campaign::run(
            &mut campaign,
            args.seed.unwrap_or(1),
            args.iters.unwrap_or(DEFAULT_ITERS),
            args.shrink,
        ),
    };
    let counters = [report.stats.fields(), campaign.counters()].concat();
    println!("{}", render_counters(&counters, args.json));
    for (i, found) in report.failures.iter().enumerate() {
        print_failure(i, &format!("seed {}", found.seed), &found.failure);
        if let Some(dir) = &args.corpus {
            eprintln!("  wrote {}", save::<C>(dir, found)?.display());
        }
    }
    if let Some(failure) = &report.closing {
        print_failure(report.failures.len(), "closing check", failure);
    }
    Ok(report.stats.failures == 0)
}

/// Checks one saved case with the oracle of campaign `C`.
fn replay_with<C: Campaign>(mut campaign: C, path: &Path) -> Result<Outcome, String> {
    let corpus = C::corpus().expect("replayed campaigns have a corpus form");
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let case = (corpus.from_text)(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(campaign.check(&case))
}

/// Replays a `.case`/`.rtcase` file or every such file in a directory;
/// `Ok(true)` when all of them pass.
fn replay(path: &Path, json: bool) -> Result<bool, String> {
    let is_dir = std::fs::metadata(path)
        .map_err(|e| format!("{}: {e}", path.display()))?
        .is_dir();
    let mut files: Vec<PathBuf> = if is_dir {
        std::fs::read_dir(path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect()
    } else {
        vec![path.to_path_buf()]
    };
    files.sort();
    let mut stats = Stats::default();
    for file in &files {
        let outcome = match file.extension().and_then(|e| e.to_str()) {
            Some("case") => replay_with(FuzzCampaign, file)?,
            Some("rtcase") => replay_with(FormatCampaign, file)?,
            _ if is_dir => continue,
            _ => return Err(format!("{}: not a .case or .rtcase file", file.display())),
        };
        stats.record(&outcome);
        if let Outcome::Fail(failure) = &outcome {
            print_failure(
                stats.failures as usize - 1,
                &file.display().to_string(),
                failure,
            );
        }
    }
    if stats.cases == 0 {
        return Err(format!("{}: no .case or .rtcase files", path.display()));
    }
    println!("{}", render_counters(&stats.fields(), json));
    Ok(stats.failures == 0)
}

fn main() -> ExitCode {
    if std::env::args().any(|a| a == "-h" || a == "--help") {
        eprintln!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(1);
        }
    };
    let result = match (&args.replay, args.campaign.as_deref().unwrap_or("fuzz")) {
        (Some(path), _) => replay(path, args.json),
        (None, name @ "fuzz") => drive(&args, name, || Ok(FuzzCampaign)),
        (None, name @ "budget") => drive(&args, name, || Ok(BudgetCampaign)),
        (None, name @ "formats") => drive(&args, name, || Ok(FormatCampaign)),
        (None, name @ "chaos") => drive(&args, name, ChaosCampaign::new),
        (None, other) => Err(format!("unknown campaign `{other}`\n{USAGE}")),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(3),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}
