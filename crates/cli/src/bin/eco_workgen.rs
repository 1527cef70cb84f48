//! `eco-workgen`: emit synthetic benchmark instances (and batch
//! manifests) to disk.
//!
//! ```text
//! eco-workgen --suite --out bench/              # the 20-unit suite
//! eco-workgen --suite --count 12 --out d/ --manifest d/manifest.toml
//! eco-workgen --fuzz 8 --seed 7 --out d/ --manifest d/batch.toml
//! ```
//!
//! Each emitted case is three files — `<name>_faulty.v`,
//! `<name>_golden.v`, `<name>.weights` — plus, with `--manifest <path>`,
//! an `eco-batch` manifest listing every case with its targets, so a
//! generated directory is directly runnable:
//!
//! ```text
//! eco-batch run d/manifest.toml --jobs 4
//! ```
//!
//! With `--requests <path>`, the same cases are additionally emitted as
//! an `eco-serve` request stream (one JSONL `run` request per case,
//! file paths resolved against `--out` as given — pass an absolute
//! `--out` if the daemon runs elsewhere), the load-generator input for
//! `eco-serve client`:
//!
//! ```text
//! eco-serve --socket /tmp/eco.sock &
//! eco-serve client --socket /tmp/eco.sock --input d/requests.jsonl --timing
//! ```
//!
//! Modes: `--suite` (default; the deterministic Table-2 suite),
//! `--stress` (the six heavier stress units), `--fuzz N` (N seeded
//! random fuzz cases, skipping seeds that generate no cuttable target),
//! `--seq N` (N latch-bearing cases — alternating shift-register banks
//! and random sequential DAGs — each emitted as golden/faulty BTOR2 +
//! latch-BLIF pairs with `.weights` and `.targets` files for `eco-patch
//! --unroll`; the combinational manifest layer does not apply).
//! `--count N` caps the number of cases written. `--seed` applies to
//! `--fuzz` and `--seq`; `--count`, `--manifest` and `--requests` to
//! every mode but `--seq`. A flag the selected mode does not read, or a
//! second mode, is a usage error.
//!
//! Exit codes: 0 — ok, 1 — usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use eco_workgen::fuzz::gen_case;
use eco_workgen::{
    contest_suite, gen_seq_unit, manifest_toml, request_stream, stress_suite, write_fuzz_case,
    write_seq_unit, write_unit, ManifestEntry,
};

const USAGE: &str = "usage: eco-workgen --out <dir> [--suite | --stress | --fuzz N | --seq N] \
[--seed S] [--count N] [--manifest <path>] [--requests <path>] [-q]";

enum Mode {
    Suite,
    Stress,
    Fuzz(u64),
    Seq(u64),
}

impl Mode {
    fn flag(&self) -> &'static str {
        match self {
            Mode::Suite => "--suite",
            Mode::Stress => "--stress",
            Mode::Fuzz(_) => "--fuzz",
            Mode::Seq(_) => "--seq",
        }
    }

    /// Whether this mode reads `flag` (`--out` and `-q` apply to all).
    fn reads(&self, flag: &str) -> bool {
        match self {
            Mode::Suite | Mode::Stress => matches!(flag, "--count" | "--manifest" | "--requests"),
            Mode::Fuzz(_) => matches!(flag, "--seed" | "--count" | "--manifest" | "--requests"),
            Mode::Seq(_) => flag == "--seed",
        }
    }
}

struct Args {
    out: PathBuf,
    mode: Mode,
    seed: u64,
    count: Option<usize>,
    manifest: Option<PathBuf>,
    requests: Option<PathBuf>,
    quiet: bool,
}

fn number<T: std::str::FromStr>(flag: &str, v: String) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("{flag} expects a number, got `{v}`"))
}

fn parse_args() -> Result<Args, String> {
    let mut out = None;
    let mut modes = Vec::new();
    let mut seed = None;
    let mut count = None;
    let mut manifest = None;
    let mut requests = None;
    let mut quiet = false;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("missing value for {flag}"));
        match a.as_str() {
            "--out" | "-o" => out = Some(PathBuf::from(value("--out")?)),
            "--suite" => modes.push(Mode::Suite),
            "--stress" => modes.push(Mode::Stress),
            "--fuzz" => modes.push(Mode::Fuzz(number("--fuzz", value("--fuzz")?)?)),
            "--seq" => modes.push(Mode::Seq(number("--seq", value("--seq")?)?)),
            "--seed" => seed = Some(number("--seed", value("--seed")?)?),
            "--count" => count = Some(number("--count", value("--count")?)?),
            "--manifest" => manifest = Some(PathBuf::from(value("--manifest")?)),
            "--requests" => requests = Some(PathBuf::from(value("--requests")?)),
            "-q" | "--quiet" => quiet = true,
            "-h" | "--help" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    let Some(out) = out else {
        return Err(USAGE.to_string());
    };
    if let [first, second, ..] = modes.as_slice() {
        return Err(format!(
            "{} and {} both select a mode\n{USAGE}",
            first.flag(),
            second.flag()
        ));
    }
    let mode = modes.pop().unwrap_or(Mode::Suite);
    let given = [
        ("--seed", seed.is_some()),
        ("--count", count.is_some()),
        ("--manifest", manifest.is_some()),
        ("--requests", requests.is_some()),
    ];
    if let Some((flag, _)) = given.iter().find(|&&(f, set)| set && !mode.reads(f)) {
        return Err(format!("{flag} does not apply to {}\n{USAGE}", mode.flag()));
    }
    Ok(Args {
        out,
        mode,
        seed: seed.unwrap_or(1),
        count,
        manifest,
        requests,
        quiet,
    })
}

fn run(args: &Args) -> Result<(), String> {
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let io_err = |e: std::io::Error| format!("{}: {e}", args.out.display());
    let mut entries: Vec<ManifestEntry> = Vec::new();
    match args.mode {
        Mode::Suite | Mode::Stress => {
            let mut units = match args.mode {
                Mode::Suite => contest_suite(),
                _ => stress_suite(),
            };
            if let Some(n) = args.count {
                units.truncate(n);
            }
            for unit in &units {
                entries.push(write_unit(&args.out, unit).map_err(io_err)?);
            }
        }
        Mode::Seq(n) => {
            // Sequential cases bypass the combinational manifest layer.
            let mut emitted = 0u64;
            let mut seed = args.seed;
            while emitted < n {
                // One or two targets, alternating; some seeds yield no
                // foldable fault site — advance past them.
                let targets = 1 + (emitted % 2) as usize;
                if let Some(unit) = gen_seq_unit(emitted, seed, targets) {
                    let files = write_seq_unit(&args.out, &unit).map_err(io_err)?;
                    if !args.quiet {
                        eprintln!(
                            "wrote {} ({} latches, {} targets, {} frames, {} files)",
                            unit.name,
                            unit.golden.latches.len(),
                            unit.targets.len(),
                            unit.frames,
                            files.len()
                        );
                    }
                    emitted += 1;
                }
                seed = seed.wrapping_add(1);
            }
            if !args.quiet {
                eprintln!("wrote {emitted} sequential cases to {}", args.out.display());
            }
            return Ok(());
        }
        Mode::Fuzz(n) => {
            let n = args.count.map_or(n, |c| n.min(c as u64));
            let mut emitted = 0u64;
            let mut seed = args.seed;
            // Some seeds yield no cuttable target; advance past them.
            while emitted < n {
                if let Some(case) = gen_case(seed) {
                    entries.push(write_fuzz_case(&args.out, &case).map_err(io_err)?);
                    emitted += 1;
                }
                seed = seed.wrapping_add(1);
            }
        }
    }
    if let Some(path) = &args.manifest {
        std::fs::write(path, manifest_toml(&entries))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    if let Some(path) = &args.requests {
        std::fs::write(path, request_stream(&args.out, &entries))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    if !args.quiet {
        eprintln!(
            "wrote {} cases to {}{}",
            entries.len(),
            args.out.display(),
            args.manifest
                .as_ref()
                .map(|p| format!(", manifest {}", p.display()))
                .unwrap_or_default()
        );
    }
    Ok(())
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
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(1)
        }
    }
}
