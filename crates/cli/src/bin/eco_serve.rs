//! `eco-serve`: the persistent ECO daemon and its replay client.
//!
//! ```text
//! # daemon: JSONL requests over a unix socket, shared warm memo cache
//! eco-serve --socket /tmp/eco.sock --jobs 4 --stats
//!
//! # daemon over stdin/stdout (tests, one-shot pipelines)
//! eco-serve --stdio < requests.jsonl > responses.jsonl
//!
//! # client: replay a request stream, echo responses to stdout
//! eco-serve client --socket /tmp/eco.sock --input requests.jsonl --timing
//! eco-serve client --socket /tmp/eco.sock --shutdown < /dev/null
//! ```
//!
//! The daemon drains gracefully on SIGTERM/SIGINT, on a protocol
//! `shutdown` request, or (in `--stdio` mode) on stdin EOF: admitted
//! jobs finish and are answered, new runs are refused with a typed
//! `draining` error, then the process exits 0. `--queue` bounds the
//! admission queue; overflow is shed with a typed `busy` refusal.
//! `--stats` prints a summary JSON object to stderr on exit (the
//! client's `--timing` does the same with latency percentiles).
//!
//! `--journal <dir>` makes the daemon crash-safe: memo entries and
//! admitted requests are write-ahead logged under `<dir>`. `--resume`
//! (which requires `--journal`, as in eco-batch) additionally replays a
//! crashed daemon's journal before serving — completed responses
//! verbatim, unfinished jobs re-executed — into `<dir>/recovered.jsonl`
//! (resume report JSON on stderr). The client's `--retries N` resends
//! `busy` refusals with capped exponential backoff. `--chaos
//! seed=N,rate=P` (or the `ECO_CHAOS` env var) arms the deterministic
//! fault-injection registry for chaos testing.
//!
//! Exit codes: 0 — clean drain / client replay done, 1 — usage, I/O, or
//! connection error.

use std::io::{self, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::ExitCode;

use eco_core::{faultpoint, parse_timeout};
use eco_serve::{
    resume_report_json, run_client, send_period, signal, summary_json, timing_json, ClientOptions,
    ServeOptions, Server,
};

const USAGE: &str = "usage:
  eco-serve (--socket <path> | --stdio) [--jobs N] [--queue N]
            [--timeout SECS] [--conflict-budget N] [--stats]
            [--journal <dir> [--resume]] [--chaos seed=N,rate=P]
  eco-serve client --socket <path> [--input <file>] [--rate R]
            [--retries N] [--timing] [--shutdown]";

struct ServerArgs {
    socket: Option<PathBuf>,
    stdio: bool,
    opts: ServeOptions,
    stats: bool,
    resume: bool,
}

struct ClientArgs {
    socket: PathBuf,
    input: Option<PathBuf>,
    opts: ClientOptions,
    timing: bool,
}

enum Args {
    Server(Box<ServerArgs>),
    Client(ClientArgs),
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1).peekable();
    if it.peek().map(String::as_str) == Some("client") {
        it.next();
        return parse_client(it).map(Args::Client);
    }
    parse_server(it).map(|a| Args::Server(Box::new(a)))
}

fn parse_server(mut it: impl Iterator<Item = String>) -> Result<ServerArgs, String> {
    let mut socket = None;
    let mut stdio = false;
    let mut opts = ServeOptions::default();
    let mut stats = false;
    let mut resume = false;
    while let Some(a) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("missing value for {flag}"));
        match a.as_str() {
            "--socket" => socket = Some(PathBuf::from(value("--socket")?)),
            "--stdio" => stdio = true,
            "--jobs" | "-j" => {
                let v = value("--jobs")?;
                opts.workers = v
                    .parse()
                    .map_err(|_| format!("--jobs expects a number, got `{v}`"))?;
            }
            "--queue" => {
                let v = value("--queue")?;
                opts.queue_capacity = v
                    .parse()
                    .map_err(|_| format!("--queue expects a number, got `{v}`"))?;
            }
            "--timeout" => {
                opts.request_budget.timeout = Some(parse_timeout(&value("--timeout")?)?);
            }
            "--conflict-budget" => {
                let v = value("--conflict-budget")?;
                opts.request_budget.cluster_conflicts = Some(
                    v.parse()
                        .map_err(|_| format!("--conflict-budget expects a number, got `{v}`"))?,
                );
            }
            "--stats" => stats = true,
            "--journal" => opts.state_dir = Some(PathBuf::from(value("--journal")?)),
            "--resume" => resume = true,
            "--chaos" => {
                let spec = eco_core::parse_chaos_spec(&value("--chaos")?)?;
                faultpoint::arm(spec);
            }
            "-h" | "--help" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    if socket.is_none() && !stdio {
        return Err(USAGE.to_string());
    }
    if socket.is_some() && stdio {
        return Err("--socket and --stdio are mutually exclusive".into());
    }
    if resume && opts.state_dir.is_none() {
        return Err("--resume requires --journal <dir>".into());
    }
    Ok(ServerArgs {
        socket,
        stdio,
        opts,
        stats,
        resume,
    })
}

fn parse_client(mut it: impl Iterator<Item = String>) -> Result<ClientArgs, String> {
    let mut socket = None;
    let mut input = None;
    let mut opts = ClientOptions::default();
    let mut timing = false;
    while let Some(a) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("missing value for {flag}"));
        match a.as_str() {
            "--socket" => socket = Some(PathBuf::from(value("--socket")?)),
            "--input" | "-i" => input = Some(PathBuf::from(value("--input")?)),
            "--rate" => {
                let v = value("--rate")?;
                let rate = v.parse().ok().filter(|&r| send_period(r).is_some());
                opts.rate = Some(rate.ok_or_else(|| {
                    format!(
                        "--rate expects requests/sec > 0 with a representable period, got `{v}`"
                    )
                })?);
            }
            "--retries" => {
                let v = value("--retries")?;
                opts.retries = v
                    .parse()
                    .map_err(|_| format!("--retries expects a number, got `{v}`"))?;
            }
            "--timing" => timing = true,
            "--shutdown" => opts.shutdown = true,
            "-h" | "--help" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    let Some(socket) = socket else {
        return Err(USAGE.to_string());
    };
    Ok(ClientArgs {
        socket,
        input,
        opts,
        timing,
    })
}

fn run_server(args: &ServerArgs) -> Result<(), String> {
    // `ECO_CHAOS=seed=N,rate=P` arms the fault registry like `--chaos`
    // (the campaign driver's path into a spawned daemon).
    faultpoint::arm_from_env()?;
    let server = Server::new(args.opts.clone());
    if let Some(err) = server.state_error() {
        eprintln!("warning: serving without durable state ({err})");
    }
    if let Some(dir) = args.opts.state_dir.as_ref().filter(|_| args.resume) {
        let path = dir.join("recovered.jsonl");
        let mut out =
            std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let report = server
            .resume_from_journal(&mut out)
            .map_err(|e| format!("resume: {e}"))?;
        eprintln!("{}", resume_report_json(&report));
    }
    let summary = if args.stdio {
        // stdin EOF (or a shutdown request) starts the drain; no signal
        // handler needed for the pipeline transport.
        server.serve_stdio()
    } else {
        // Parsing validated socket-xor-stdio; a typed error here beats a
        // panic if that invariant ever drifts.
        let path = args.socket.as_ref().ok_or(USAGE)?;
        signal::install_term_handler();
        server
            .serve_unix(path, signal::term_flag())
            .map_err(|e| format!("{}: {e}", path.display()))?
    };
    if args.stats {
        eprintln!("{}", summary_json(&summary));
    }
    Ok(())
}

fn run_client_mode(args: &ClientArgs) -> Result<(), String> {
    let err = |e: io::Error| format!("{}: {e}", args.socket.display());
    let stream = UnixStream::connect(&args.socket).map_err(err)?;
    let mut rx = BufReader::new(stream.try_clone().map_err(err)?);
    let mut tx = stream;
    let stdout = io::stdout();
    let mut out = stdout.lock();
    let summary = match &args.input {
        Some(path) => {
            let file = std::fs::File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
            run_client(
                &mut rx,
                &mut tx,
                &mut BufReader::new(file),
                &mut out,
                &args.opts,
            )
        }
        None => run_client(
            &mut rx,
            &mut tx,
            &mut io::stdin().lock(),
            &mut out,
            &args.opts,
        ),
    }
    .map_err(err)?;
    let _ = out.flush();
    if args.timing {
        eprintln!("{}", timing_json(&summary));
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
    let result = match &args {
        Args::Server(s) => run_server(s),
        Args::Client(c) => run_client_mode(c),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(1)
        }
    }
}
