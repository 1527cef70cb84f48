//! Serve-layer regressions, end to end through the facade crate: a
//! serve session must answer a replayed request stream with
//! byte-identical responses for any worker count, a warm replay on the
//! same daemon must hit the process-lifetime memo cache while
//! reproducing the cold responses exactly, broken requests mid-stream
//! must degrade to typed error responses without disturbing their
//! neighbors, graceful drain (including a SIGTERM-style flag flip under
//! concurrent connections) must answer every admitted job before the
//! session ends, and `--resume` must replay a killed session's journal
//! byte-identically.

use std::io::{BufRead, BufReader, Cursor, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};

use eco::core::REQUESTS_WAL;
use eco::serve::{request_fingerprint, ServeOptions, Server};
use eco::workgen::{contest_suite, request_stream, write_unit, ManifestEntry, SuiteUnit};

/// Small, fast suite units (skips the difficult datapath ones).
fn fast_units(n: usize) -> Vec<SuiteUnit> {
    contest_suite()
        .into_iter()
        .filter(|u| !u.spec.difficult)
        .take(n)
        .collect()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("eco_serve_it_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Emits `n` fast units into `dir` and returns the JSONL request
/// stream referencing them by absolute path.
fn emit_stream(dir: &Path, n: usize) -> String {
    let entries: Vec<ManifestEntry> = fast_units(n)
        .iter()
        .map(|u| write_unit(dir, u).expect("emit unit"))
        .collect();
    request_stream(dir, &entries)
}

/// A `Write` sink the test can read back after the session ends.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn take(&self) -> String {
        String::from_utf8(self.0.lock().unwrap().clone()).expect("utf-8 responses")
    }
}

impl Write for SharedBuf {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(data);
        Ok(data.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn serve_once(server: &Server, input: &str) -> String {
    let sink = SharedBuf::default();
    server.serve_reader(Cursor::new(input.to_string()), Box::new(sink.clone()));
    sink.take()
}

/// The tentpole determinism contract: responses are sequenced in
/// request order and carry only scheduling-independent fields, so the
/// same stream yields the same bytes whatever the worker count.
#[test]
fn responses_are_byte_identical_across_worker_counts() {
    let dir = temp_dir("workers");
    let stream = emit_stream(&dir, 5);
    let outputs: Vec<String> = [1usize, 2, 4]
        .iter()
        .map(|&workers| {
            let server = Server::new(ServeOptions {
                workers,
                ..ServeOptions::default()
            });
            serve_once(&server, &stream)
        })
        .collect();
    assert_eq!(outputs[0], outputs[1], "1 vs 2 workers");
    assert_eq!(outputs[0], outputs[2], "1 vs 4 workers");
    assert_eq!(outputs[0].lines().count(), 5, "one response per request");
    for line in outputs[0].lines() {
        assert!(line.contains("\"status\": \"complete\""), "{line}");
        assert!(line.contains("\"verified\": true"), "{line}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The always-warm property: a second replay of the same stream on the
/// same daemon hits the process-lifetime memo cache and reproduces the
/// cold responses byte for byte (cached patches are re-verified, so
/// `verified` stays true on hits).
#[test]
fn warm_replay_hits_the_memo_and_reproduces_cold_responses() {
    let dir = temp_dir("warm");
    let stream = emit_stream(&dir, 4);
    let server = Server::new(ServeOptions {
        workers: 2,
        ..ServeOptions::default()
    });
    let cold_out = serve_once(&server, &stream);
    let cold_hits = {
        // Ask the daemon itself, like an operator would.
        let stats = serve_once(&server, "{\"op\": \"stats\", \"id\": 0}\n");
        assert!(stats.contains("\"op\": \"stats\""), "{stats}");
        stats
    };
    let warm_out = serve_once(&server, &stream);
    let warm_summary = server.serve_reader(
        Cursor::new("{\"op\": \"stats\", \"id\": 1}\n".to_string()),
        Box::new(Vec::new()),
    );
    assert_eq!(cold_out, warm_out, "warm hits must not change responses");
    assert!(
        warm_summary.memo.hits > 0,
        "warm replay must hit the shared cache (cold stats: {cold_hits})"
    );
    assert!(
        warm_summary.memo.hits > warm_summary.memo.fallbacks,
        "hits should dominate re-verification fallbacks"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Broken requests mid-stream — unparseable JSON, a truncated escape,
/// a missing circuit file — each get one typed response in order while
/// every healthy neighbor still completes, for any worker count.
#[test]
fn broken_requests_mid_stream_do_not_disturb_neighbors() {
    let dir = temp_dir("broken");
    let good = emit_stream(&dir, 2);
    let good_lines: Vec<&str> = good.lines().collect();
    let input = format!(
        "{}\n\
         this is not json\n\
         {{\"op\": \"run\", \"job\": {{\"faulty\": \"trunc\\\n\
         {{\"op\": \"run\", \"id\": \"gone\", \"job\": {{\"name\": \"gone\", \
          \"faulty\": \"/nonexistent/f.v\", \"golden\": \"/nonexistent/g.v\"}}}}\n\
         {}\n",
        good_lines[0], good_lines[1]
    );
    let mut outputs = Vec::new();
    for workers in [1usize, 4] {
        let server = Server::new(ServeOptions {
            workers,
            ..ServeOptions::default()
        });
        let out = serve_once(&server, &input);
        let lines: Vec<String> = out.lines().map(str::to_string).collect();
        assert_eq!(lines.len(), 5, "workers={workers}: {out}");
        assert!(lines[0].contains("\"status\": \"complete\""), "{out}");
        assert!(lines[1].contains("\"error\": \"bad-request\""), "{out}");
        assert!(lines[2].contains("\"error\": \"bad-request\""), "{out}");
        assert!(lines[3].contains("\"status\": \"error\""), "{out}");
        assert!(lines[4].contains("\"status\": \"complete\""), "{out}");
        outputs.push(out);
    }
    assert_eq!(outputs[0], outputs[1], "error paths are deterministic too");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Graceful drain: a shutdown request mid-stream is acknowledged only
/// after every admitted job answered, nothing after it is read, and the
/// daemon-wide drain flag refuses later streams' runs with a typed
/// `draining` error.
#[test]
fn shutdown_answers_admitted_work_then_refuses_new_runs() {
    let dir = temp_dir("drain");
    let stream = emit_stream(&dir, 3);
    let server = Server::new(ServeOptions {
        workers: 2,
        ..ServeOptions::default()
    });
    let input = format!("{stream}{{\"op\": \"shutdown\", \"id\": \"bye\"}}\n");
    let out = serve_once(&server, &input);
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 4, "3 jobs + ack: {out}");
    for line in &lines[..3] {
        assert!(line.contains("\"status\": \"complete\""), "{out}");
    }
    assert!(lines[3].contains("\"op\": \"shutdown\""), "{out}");
    assert!(server.is_draining());

    // A post-drain stream: runs refused, inline ops still answered.
    let late = serve_once(
        &server,
        &format!("{}{}", stream.lines().next().unwrap(), "\n"),
    );
    assert!(late.contains("\"error\": \"draining\""), "{late}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A SIGTERM-style drain (the signal handler just flips this flag)
/// while several connections are in flight: every connection still gets
/// exactly one typed response — completed if the job was admitted
/// before the drain latched, a `draining` refusal otherwise — the
/// daemon exits cleanly, and nothing hangs or is silently dropped.
#[test]
fn sigterm_drain_answers_every_concurrent_connection() {
    let dir = temp_dir("sigterm");
    let requests: Vec<String> = emit_stream(&dir, 3).lines().map(str::to_string).collect();
    let sock = dir.join("eco.sock");
    let server = Arc::new(Server::new(ServeOptions {
        workers: 2,
        ..ServeOptions::default()
    }));
    let shutdown = Arc::new(AtomicBool::new(false));
    let daemon = {
        let server = Arc::clone(&server);
        let sock = sock.clone();
        let shutdown = Arc::clone(&shutdown);
        std::thread::spawn(move || server.serve_unix(&sock, &shutdown).expect("serve_unix"))
    };
    while !sock.exists() {
        std::thread::sleep(std::time::Duration::from_millis(5));
    }

    // Every client writes its request, then all rendezvous with the
    // main thread, which flips the termination flag *before* anyone
    // reads a response — the drain races real in-flight work.
    let barrier = Arc::new(Barrier::new(requests.len() + 1));
    let clients: Vec<_> = requests
        .iter()
        .map(|req| {
            let req = format!("{req}\n");
            let sock = sock.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut tx = UnixStream::connect(&sock).expect("connect");
                tx.write_all(req.as_bytes()).expect("send request");
                barrier.wait();
                let mut line = String::new();
                BufReader::new(tx).read_line(&mut line).expect("response");
                line
            })
        })
        .collect();
    barrier.wait();
    shutdown.store(true, Ordering::SeqCst);

    let responses: Vec<String> = clients
        .into_iter()
        .map(|c| c.join().expect("client thread"))
        .collect();
    let summary = daemon.join().expect("daemon thread");
    for line in &responses {
        assert!(
            line.contains("\"status\": \"complete\"") || line.contains("\"error\": \"draining\""),
            "connection must get a completed job or a typed refusal: {line}"
        );
    }
    assert_eq!(
        summary.served + summary.refused_draining,
        requests.len() as u64,
        "every admitted or refused request is accounted for"
    );
    assert!(!sock.exists(), "socket file removed on drain");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Crash recovery end to end: a session's request journal is cut off
/// mid-run (two jobs completed, two admitted but unanswered, a torn
/// byte tail from the kill), and `resume` must reproduce the exact
/// bytes of the uninterrupted session — completed responses verbatim,
/// unfinished jobs recomputed.
#[test]
fn resume_after_kill_is_byte_identical_to_uninterrupted_run() {
    let dir = temp_dir("resume");
    let stream = emit_stream(&dir, 4);
    let requests: Vec<&str> = stream.lines().collect();

    // The uninterrupted reference session (no durable state).
    let reference = serve_once(
        &Server::new(ServeOptions {
            workers: 2,
            ..ServeOptions::default()
        }),
        &stream,
    );
    let reference_lines: Vec<&str> = reference.lines().collect();
    assert_eq!(reference_lines.len(), 4);

    // Forge the journal a SIGKILLed daemon would leave behind: all four
    // admitted, the first two answered, plus a torn frame tail.
    let state = dir.join("state");
    {
        let journal = REQUESTS_WAL.open(&state).expect("open journal");
        for (i, req) in requests.iter().enumerate() {
            let fp = request_fingerprint(req);
            journal.admit(fp, req);
            if i < 2 {
                journal.done(fp, reference_lines[i]);
            }
        }
        assert_eq!(journal.append_errors(), 0);
    }
    let wal = state.join("requests.wal");
    let mut file = std::fs::OpenOptions::new()
        .append(true)
        .open(&wal)
        .expect("open wal");
    file.write_all(&[0x7f; 9]).expect("torn tail");
    drop(file);

    // Recovery: replay the journal on a fresh server.
    let server = Server::new(ServeOptions {
        workers: 2,
        state_dir: Some(state),
        ..ServeOptions::default()
    });
    assert!(server.state_error().is_none(), "state must open cleanly");
    let mut recovered = Vec::new();
    let report = server.resume_from_journal(&mut recovered).expect("resume");
    assert_eq!(report.replayed, 2, "completed jobs replay verbatim");
    assert_eq!(report.recomputed, 2, "unfinished jobs re-execute");
    assert_eq!(
        String::from_utf8(recovered).expect("utf-8"),
        reference,
        "recovered stream must be byte-identical to the uninterrupted run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
