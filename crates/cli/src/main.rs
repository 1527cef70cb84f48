//! `eco-patch`: contest-style command line for cost-aware ECO patch
//! generation.
//!
//! ```text
//! eco-patch -f faulty.v -g golden.v -w weights.txt -t t_0,t_1 -o patch.v
//! ```
//!
//! Reads the faulty circuit (targets floating as inputs), the golden
//! circuit, and a weight file through the loader eco-batch and eco-serve
//! use (`.v` or `.blif`; convert other formats with eco-convert); writes
//! the patch as structural Verilog whose inputs are existing faulty nets
//! and whose outputs drive the targets. Exit code 0 = patched and
//! verified; 2 = unrectifiable; 4 = governed run degraded to a partial
//! result; 1 = usage or I/O error.
//!
//! `--jobs N` sets the worker-thread count for the per-cluster
//! patch-generation stage (0 = all cores; results are identical for any
//! value). `--stats` prints run telemetry to stderr after the report, one
//! `label: key value` line per counter group (stages, SAT, FRAIG, flow,
//! governor, memo) plus the flow events; `--stats=json` emits the same
//! as a single JSON object on one line, keeping stdout clean for the
//! patch netlist.
//!
//! `--timeout SECS` and `--conflict-budget N` enable the run-wide resource
//! governor: when a limit cuts the run short, the process exits with code
//! 4 and reports every cluster's diagnosis; `--allow-partial`
//! additionally writes the completed (unverified) patches to the output.
//!
//! `--unroll K` switches to the sequential flow: the faulty and golden
//! designs may carry latches (any sequential format the hub reads —
//! `.v`, `.blif`, `.aag`, `.aig`, `.btor2`), both are unrolled K frames,
//! the combinational engine rectifies the unrolled miter, and the
//! per-frame patch is folded back into a single sequential patch proven
//! cycle-accurate from reset by a fresh K-frame unrolled miter. Exit
//! code 4 here means the fold or its re-proof failed (the unrolled
//! patch exists but is not time-invariant).

use std::process::ExitCode;
use std::time::Duration;

use eco_batch::{load_job_instance, JobSpec};
use eco_core::{
    parse_timeout, Budget, BudgetOptions, EcoEngine, EcoOptions, EcoOutcome, InitialPatchKind,
    TelemetrySnapshot,
};
use eco_netlist::{netlist_from_aig, parse_weights, write_verilog, WeightTable};

/// How `--stats` renders the run telemetry on stderr.
#[derive(Clone, Copy, PartialEq, Eq)]
enum StatsFormat {
    Off,
    Text,
    Json,
}

impl StatsFormat {
    /// Prints `telemetry` to stderr in this format, with the peak RSS
    /// read now.
    fn print(self, telemetry: &TelemetrySnapshot) {
        match self {
            StatsFormat::Off => {}
            StatsFormat::Text => eprint!("{}", telemetry.clone().with_peak_rss()),
            StatsFormat::Json => eprintln!("{}", telemetry.clone().with_peak_rss().to_json()),
        }
    }
}

struct Args {
    faulty: String,
    golden: String,
    weights: Option<String>,
    targets: Vec<String>,
    output: Option<String>,
    localization: bool,
    optimize: bool,
    initial: InitialPatchKind,
    jobs: usize,
    stats: StatsFormat,
    quiet: bool,
    timeout: Option<Duration>,
    conflict_budget: Option<u64>,
    allow_partial: bool,
    unroll: Option<usize>,
}

const USAGE: &str = "usage: eco-patch -f <faulty.{v,blif}> -g <golden.{v,blif}> -t <t1,t2,...> \
[-w <weights.txt>] [-o <patch.v>] [--no-localization] [--no-optimize] \
[--initial onset|negoff|interpolant] [--jobs N] [--stats[=json]] [-q] \
[--timeout SECS] [--conflict-budget N] [--allow-partial] [--unroll K]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        faulty: String::new(),
        golden: String::new(),
        weights: None,
        targets: Vec::new(),
        output: None,
        localization: true,
        optimize: true,
        initial: InitialPatchKind::OnSet,
        jobs: 0,
        stats: StatsFormat::Off,
        quiet: false,
        timeout: None,
        conflict_budget: None,
        allow_partial: false,
        unroll: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("missing value for {flag}"));
        match a.as_str() {
            "-f" | "--faulty" => args.faulty = value("-f")?,
            "-g" | "--golden" => args.golden = value("-g")?,
            "-w" | "--weights" => args.weights = Some(value("-w")?),
            "-o" | "--output" => args.output = Some(value("-o")?),
            "-t" | "--targets" => {
                args.targets = value("-t")?.split(',').map(str::to_string).collect()
            }
            "--no-localization" => args.localization = false,
            "--no-optimize" => args.optimize = false,
            "--initial" => {
                args.initial = match value("--initial")?.as_str() {
                    "onset" => InitialPatchKind::OnSet,
                    "negoff" => InitialPatchKind::NegOffSet,
                    "interpolant" => InitialPatchKind::Interpolant,
                    other => return Err(format!("unknown initial patch kind `{other}`")),
                }
            }
            "-j" | "--jobs" => {
                let v = value("--jobs")?;
                args.jobs = v
                    .parse()
                    .map_err(|_| format!("--jobs expects a number, got `{v}`"))?;
            }
            "--timeout" => args.timeout = Some(parse_timeout(&value("--timeout")?)?),
            "--conflict-budget" => {
                let v = value("--conflict-budget")?;
                args.conflict_budget = Some(
                    v.parse()
                        .map_err(|_| format!("--conflict-budget expects a number, got `{v}`"))?,
                );
            }
            "--allow-partial" => args.allow_partial = true,
            "--unroll" => {
                let v = value("--unroll")?;
                args.unroll =
                    Some(v.parse().ok().filter(|&k| k >= 1).ok_or_else(|| {
                        format!("--unroll expects a frame count >= 1, got `{v}`")
                    })?);
            }
            "--stats" => args.stats = StatsFormat::Text,
            "--stats=json" => args.stats = StatsFormat::Json,
            "--stats=text" => args.stats = StatsFormat::Text,
            "-q" | "--quiet" => args.quiet = true,
            "-h" | "--help" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    if args.faulty.is_empty() || args.golden.is_empty() || args.targets.is_empty() {
        return Err(USAGE.to_string());
    }
    Ok(args)
}

/// The sequential flow behind `--unroll K`.
fn run_seq(
    args: &Args,
    frames: usize,
    options: EcoOptions,
    budget: &Budget,
) -> Result<i32, String> {
    use eco_seq::hub::{read_design, Format};
    use eco_seq::{SeqEcoEngine, SeqEcoError, SeqEcoOptions};

    let weights = match &args.weights {
        Some(p) => {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
            parse_weights(&text).map_err(|e| format!("{p}: {e}"))?
        }
        None => WeightTable::new(1),
    };

    let read_seq = |p: &str| -> Result<eco_seq::SeqNetlist, String> {
        let fmt = Format::from_path(p).map_err(|e| e.to_string())?;
        let data = std::fs::read(p).map_err(|e| format!("{p}: {e}"))?;
        read_design(fmt, &data).map_err(|e| format!("{p}: {e}"))
    };
    let faulty = read_seq(&args.faulty)?;
    let golden = read_seq(&args.golden)?;
    let options = SeqEcoOptions {
        frames,
        eco: options,
    };
    let engine = SeqEcoEngine::new(faulty, golden, args.targets.clone(), weights, options)
        .map_err(|e| e.to_string())?;
    let result = match engine.run_governed(budget) {
        Ok(r) => r,
        Err(SeqEcoError::Eco(eco_core::EcoError::Unrectifiable(why))) => {
            eprintln!("unrectifiable: {why}");
            return Ok(2);
        }
        Err(
            e @ (SeqEcoError::Degraded(_)
            | SeqEcoError::NotFramePure(_)
            | SeqEcoError::FoldFailed { .. }
            | SeqEcoError::VerifyUnknown),
        ) => {
            eprintln!("degraded: {e}");
            return Ok(4);
        }
        Err(e) => return Err(e.to_string()),
    };
    if !args.quiet {
        for (target, frame) in &result.fold_frames {
            eprintln!(
                "target {target}: folded from frame {frame}/{}",
                result.frames
            );
        }
        eprintln!(
            "patched and verified over {} frames: cost {}, size {}",
            result.frames, result.cost, result.size
        );
    }
    args.stats.print(&result.comb.telemetry);
    let text = write_verilog(&netlist_from_aig(&result.patch_aig, "patch"));
    match &args.output {
        Some(p) => std::fs::write(p, text).map_err(|e| format!("{p}: {e}"))?,
        None => print!("{text}"),
    }
    Ok(0)
}

fn run(args: &Args) -> Result<i32, String> {
    let options = EcoOptions {
        localization: args.localization,
        optimize: args.optimize,
        initial_patch: args.initial,
        jobs: args.jobs,
        ..Default::default()
    };
    let budget = Budget::new(&BudgetOptions {
        timeout: args.timeout,
        cluster_conflicts: args.conflict_budget,
    });
    if let Some(frames) = args.unroll {
        return run_seq(args, frames, options, &budget);
    }
    let instance = load_job_instance(&JobSpec {
        name: "cli".into(),
        faulty: args.faulty.clone().into(),
        golden: args.golden.clone().into(),
        weights: args.weights.clone().map(Into::into),
        targets: args.targets.clone(),
        budget: None,
    })?;

    let outcome = match EcoEngine::new(instance, options).run_governed(&budget) {
        Ok(o) => o,
        Err(eco_core::EcoError::Unrectifiable(why)) => {
            eprintln!("unrectifiable: {why}");
            return Ok(2);
        }
        Err(e) => return Err(e.to_string()),
    };

    let result = match outcome {
        EcoOutcome::Complete(result) => result,
        EcoOutcome::Partial(partial) => {
            if !args.quiet {
                eprint!("{}", eco_core::PartialReport(&partial));
            }
            args.stats.print(&partial.telemetry);
            if args.allow_partial {
                let text = write_verilog(&netlist_from_aig(&partial.patch_aig, "patch"));
                match &args.output {
                    Some(p) => std::fs::write(p, text).map_err(|e| format!("{p}: {e}"))?,
                    None => print!("{text}"),
                }
            }
            return Ok(4);
        }
    };

    if !args.quiet {
        eprint!("{}", eco_core::Report(&result));
    }
    args.stats.print(&result.telemetry);
    let text = write_verilog(&netlist_from_aig(&result.patch_aig, "patch"));
    match &args.output {
        Some(p) => std::fs::write(p, text).map_err(|e| format!("{p}: {e}"))?,
        None => print!("{text}"),
    }
    Ok(0)
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
        Ok(code) => ExitCode::from(code as u8),
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(1)
        }
    }
}
