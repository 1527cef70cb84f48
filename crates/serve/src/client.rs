//! The synchronous request/response client and its latency report —
//! the load-measurement half of `eco-serve`.
//!
//! [`run_client`] replays a request stream (one JSON request per line,
//! as emitted by `eco-workgen --requests`) against a connected server,
//! one request at a time: send a line, wait for its response line, echo
//! it to `out`, and record the round-trip latency. Optional pacing
//! (`rate`) spaces sends at a target requests/second; the stream still
//! never overlaps requests, so measured latencies are pure round trips.
//! The transport is any `BufRead`/`Write` pair, so the same code drives
//! a unix socket or an in-memory test harness.

use std::io::{self, BufRead, Write};
use std::time::{Duration, Instant};

use eco_batch::json;
use eco_core::JsonObj;

/// First retry delay; doubles per attempt (jitter-free, so replays are
/// deterministic) up to [`RETRY_BACKOFF_CAP`].
const RETRY_BACKOFF_BASE: Duration = Duration::from_millis(25);
const RETRY_BACKOFF_CAP: Duration = Duration::from_millis(1000);

/// Client knobs.
#[derive(Clone, Debug, Default)]
pub struct ClientOptions {
    /// Target send rate in requests/second (`None` = as fast as the
    /// round trips allow).
    pub rate: Option<f64>,
    /// Append a `shutdown` request after the stream and wait for the
    /// ack (which the server sequences behind all admitted work).
    pub shutdown: bool,
    /// Resend a request refused with the typed `busy` error up to this
    /// many times, backing off exponentially (jitter-free: 25ms, 50ms,
    /// … capped at 1s). `0` (the default) echoes the refusal like any
    /// other response.
    pub retries: u32,
}

/// The send period of `rate` requests/second, `None` unless the rate is
/// positive and its period fits a [`Duration`].
pub fn send_period(rate: f64) -> Option<Duration> {
    Duration::try_from_secs_f64(1.0 / rate).ok()
}

/// The backoff before retry number `attempt` (1-based).
pub fn retry_backoff(attempt: u32) -> Duration {
    let base = RETRY_BACKOFF_BASE.as_millis() as u64;
    Duration::from_millis((base << (attempt - 1).min(10)).min(RETRY_BACKOFF_CAP.as_millis() as u64))
}

/// What one client run measured.
#[derive(Clone, Debug)]
pub struct ClientSummary {
    /// Requests sent from the input stream (excluding the optional
    /// trailing shutdown).
    pub requests: u64,
    /// `busy` refusals that were retried (resends beyond the first
    /// attempt).
    pub retried: u64,
    /// Wall-clock time of the whole replay.
    pub wall: Duration,
    /// Per-request round-trip latencies, in send order (microseconds).
    /// A retried request's latency spans first send → accepted
    /// response, backoffs included.
    pub latencies_us: Vec<u64>,
}

/// Replays `input` against a server reachable via `server_tx` /
/// `server_rx`, echoing each response line to `out`. Blank input lines
/// are skipped. Errors out if the server closes mid-stream, or if a
/// positive `rate` paces sends further ahead than the clock can
/// represent.
pub fn run_client(
    server_rx: &mut dyn BufRead,
    server_tx: &mut dyn Write,
    input: &mut dyn BufRead,
    out: &mut dyn Write,
    opts: &ClientOptions,
) -> io::Result<ClientSummary> {
    let start = Instant::now();
    let interval = opts.rate.filter(|r| *r > 0.0).map(send_period);
    let mut latencies = Vec::new();
    let mut sent: u64 = 0;
    let mut retried: u64 = 0;
    let mut line = String::new();
    loop {
        line.clear();
        if input.read_line(&mut line)? == 0 {
            break;
        }
        let request = line.trim();
        if request.is_empty() {
            continue;
        }
        if let Some(interval) = interval {
            // Pace against the schedule, not the previous send, so a
            // slow response doesn't permanently shift the grid.
            let due = interval
                .and_then(|i| Duration::try_from_secs_f64(i.as_secs_f64() * sent as f64).ok())
                .and_then(|offset| start.checked_add(offset))
                .ok_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::InvalidInput,
                        "the send rate paces requests beyond the clock's range",
                    )
                })?;
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
        }
        let t0 = Instant::now();
        let mut attempt: u32 = 0;
        let response = loop {
            writeln!(server_tx, "{request}")?;
            server_tx.flush()?;
            let mut response = String::new();
            if server_rx.read_line(&mut response)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection mid-stream",
                ));
            }
            if attempt < opts.retries && is_busy_refusal(&response) {
                attempt += 1;
                retried += 1;
                std::thread::sleep(retry_backoff(attempt));
                continue;
            }
            break response;
        };
        latencies.push(t0.elapsed().as_micros() as u64);
        sent += 1;
        out.write_all(response.as_bytes())?;
    }
    if opts.shutdown {
        server_tx.write_all(b"{\"op\": \"shutdown\", \"id\": \"client\"}\n")?;
        server_tx.flush()?;
        let mut ack = String::new();
        server_rx.read_line(&mut ack)?;
        out.write_all(ack.as_bytes())?;
    }
    out.flush()?;
    Ok(ClientSummary {
        requests: sent,
        retried,
        wall: start.elapsed(),
        latencies_us: latencies,
    })
}

/// `true` for a typed `busy` refusal (`{"ok": false, "error": "busy"}`)
/// — the only response the retry loop resends on.
fn is_busy_refusal(line: &str) -> bool {
    let Ok(json::Value::Obj(fields)) = json::parse(line.trim()) else {
        return false;
    };
    let get = |key: &str| fields.iter().find(|(k, _)| k == key).map(|(_, v)| v);
    matches!(get("ok"), Some(json::Value::Bool(false)))
        && matches!(get("error"), Some(json::Value::Str(e)) if e == "busy")
}

/// The `p`-th percentile (nearest-rank on a sorted slice); 0 if empty.
pub fn percentile_us(sorted: &[u64], p: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[(sorted.len() - 1) * p / 100]
}

/// Renders the client's timing summary as one JSON object:
/// `{"requests", "retried", "wall_s", "rps", "p50_us", "p99_us"}` — the
/// cold and warm stream numbers the serve smoke prints.
pub fn timing_json(summary: &ClientSummary) -> String {
    let mut sorted = summary.latencies_us.clone();
    sorted.sort_unstable();
    let wall = summary.wall.as_secs_f64();
    let rps = if wall > 0.0 {
        summary.requests as f64 / wall
    } else {
        0.0
    };
    JsonObj::new()
        .u64("requests", summary.requests)
        .u64("retried", summary.retried)
        .raw("wall_s", &format!("{wall:.6}"))
        .raw("rps", &format!("{rps:.3}"))
        .u64("p50_us", percentile_us(&sorted, 50))
        .u64("p99_us", percentile_us(&sorted, 99))
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn replays_requests_and_collects_latencies() {
        let responses = "{\"id\": 1, \"ok\": true}\n{\"id\": 2, \"ok\": true}\n";
        let mut rx = Cursor::new(responses.as_bytes().to_vec());
        let mut tx = Vec::new();
        let mut input =
            Cursor::new("{\"op\": \"ping\", \"id\": 1}\n\n{\"op\": \"ping\", \"id\": 2}\n");
        let mut out = Vec::new();
        let summary = run_client(
            &mut rx,
            &mut tx,
            &mut input,
            &mut out,
            &ClientOptions::default(),
        )
        .unwrap();
        assert_eq!(summary.requests, 2);
        assert_eq!(summary.latencies_us.len(), 2);
        assert_eq!(String::from_utf8(out).unwrap(), responses);
        let sent = String::from_utf8(tx).unwrap();
        assert_eq!(sent.lines().count(), 2, "blank input line is skipped");
    }

    #[test]
    fn send_periods_fit_a_duration_or_are_refused() {
        assert_eq!(send_period(2.0), Some(Duration::from_millis(500)));
        assert_eq!(send_period(f64::INFINITY), Some(Duration::ZERO));
        for rate in [0.0, -1.0, f64::NAN, 1e-20] {
            assert_eq!(send_period(rate), None, "rate {rate}");
        }
    }

    /// A pacing schedule past the clock's range is an error, never a
    /// panic: rate 1e-20 has no representable period, and at 1e-19 the
    /// second send is due beyond what an `Instant` can hold.
    #[test]
    fn unrepresentable_pacing_is_an_error_not_a_panic() {
        for (rate, echoed) in [(1e-20, 0), (1e-19, 1)] {
            let mut rx = Cursor::new(b"{\"id\": 1, \"ok\": true}\n".to_vec());
            let mut tx = Vec::new();
            let mut input = Cursor::new("{\"op\": \"ping\", \"id\": 1}\n{\"op\": \"ping\"}\n");
            let mut out = Vec::new();
            let opts = ClientOptions {
                rate: Some(rate),
                ..ClientOptions::default()
            };
            let err = run_client(&mut rx, &mut tx, &mut input, &mut out, &opts)
                .expect_err("schedule overflows");
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "rate {rate}");
            assert_eq!(out.iter().filter(|&&b| b == b'\n').count(), echoed);
        }
    }

    #[test]
    fn shutdown_option_appends_request_and_echoes_ack() {
        let mut rx = Cursor::new(b"{\"ok\": true, \"op\": \"shutdown\"}\n".to_vec());
        let mut tx = Vec::new();
        let mut input = Cursor::new("");
        let mut out = Vec::new();
        let opts = ClientOptions {
            shutdown: true,
            ..ClientOptions::default()
        };
        let summary = run_client(&mut rx, &mut tx, &mut input, &mut out, &opts).unwrap();
        assert_eq!(summary.requests, 0);
        assert!(String::from_utf8(tx)
            .unwrap()
            .contains("\"op\": \"shutdown\""));
        assert!(String::from_utf8(out)
            .unwrap()
            .contains("\"op\": \"shutdown\""));
    }

    #[test]
    fn busy_refusals_are_retried_up_to_the_budget() {
        // Server script: busy, busy, then accepted.
        let responses = "{\"id\": 1, \"ok\": false, \"error\": \"busy\", \"detail\": \"full\"}\n\
                         {\"id\": 1, \"ok\": false, \"error\": \"busy\", \"detail\": \"full\"}\n\
                         {\"id\": 1, \"ok\": true, \"op\": \"run\"}\n";
        let mut rx = Cursor::new(responses.as_bytes().to_vec());
        let mut tx = Vec::new();
        let mut input = Cursor::new("{\"op\": \"run\", \"id\": 1}\n");
        let mut out = Vec::new();
        let opts = ClientOptions {
            retries: 5,
            ..ClientOptions::default()
        };
        let summary = run_client(&mut rx, &mut tx, &mut input, &mut out, &opts).unwrap();
        assert_eq!(summary.requests, 1);
        assert_eq!(summary.retried, 2);
        assert_eq!(summary.latencies_us.len(), 1, "one latency for the request");
        let sent = String::from_utf8(tx).unwrap();
        assert_eq!(sent.lines().count(), 3, "request resent per retry");
        let echoed = String::from_utf8(out).unwrap();
        assert_eq!(
            echoed.lines().count(),
            1,
            "only the accepted response is echoed"
        );
        assert!(echoed.contains("\"ok\": true"), "{echoed}");
    }

    #[test]
    fn exhausted_retries_echo_the_refusal_and_zero_retries_never_resend() {
        let busy = "{\"id\": 1, \"ok\": false, \"error\": \"busy\", \"detail\": \"full\"}\n";
        // retries=1: resend once, then surface the second refusal.
        let mut rx = Cursor::new(busy.repeat(2).into_bytes());
        let mut tx = Vec::new();
        let mut input = Cursor::new("{\"op\": \"run\", \"id\": 1}\n");
        let mut out = Vec::new();
        let opts = ClientOptions {
            retries: 1,
            ..ClientOptions::default()
        };
        let summary = run_client(&mut rx, &mut tx, &mut input, &mut out, &opts).unwrap();
        assert_eq!(summary.retried, 1);
        assert!(String::from_utf8(out)
            .unwrap()
            .contains("\"error\": \"busy\""));
        // Default retries=0: the refusal comes straight back, one send.
        let mut rx = Cursor::new(busy.as_bytes().to_vec());
        let mut tx = Vec::new();
        let mut input = Cursor::new("{\"op\": \"run\", \"id\": 1}\n");
        let mut out = Vec::new();
        let summary = run_client(
            &mut rx,
            &mut tx,
            &mut input,
            &mut out,
            &ClientOptions::default(),
        )
        .unwrap();
        assert_eq!(summary.retried, 0);
        assert_eq!(String::from_utf8(tx).unwrap().lines().count(), 1);
    }

    #[test]
    fn retry_backoff_is_exponential_and_capped() {
        assert_eq!(retry_backoff(1), Duration::from_millis(25));
        assert_eq!(retry_backoff(2), Duration::from_millis(50));
        assert_eq!(retry_backoff(3), Duration::from_millis(100));
        assert_eq!(retry_backoff(6), Duration::from_millis(800));
        assert_eq!(retry_backoff(7), Duration::from_millis(1000), "capped");
        assert_eq!(
            retry_backoff(60),
            Duration::from_millis(1000),
            "no overflow"
        );
    }

    #[test]
    fn server_eof_mid_stream_is_an_error() {
        let mut rx = Cursor::new(Vec::new()); // no response coming
        let mut tx = Vec::new();
        let mut input = Cursor::new("{\"op\": \"ping\"}\n");
        let mut out = Vec::new();
        let err = run_client(
            &mut rx,
            &mut tx,
            &mut input,
            &mut out,
            &ClientOptions::default(),
        )
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn timing_json_reports_percentiles() {
        let summary = ClientSummary {
            requests: 4,
            retried: 0,
            wall: Duration::from_millis(100),
            latencies_us: vec![40, 10, 30, 20],
        };
        let json = timing_json(&summary);
        assert!(json.contains("\"requests\": 4"), "{json}");
        assert!(json.contains("\"wall_s\": 0.100000"), "{json}");
        assert!(json.contains("\"p50_us\": 20"), "{json}");
        assert!(json.contains("\"p99_us\": 30"), "{json}");
        assert_eq!(percentile_us(&[], 99), 0);
        assert_eq!(percentile_us(&[7], 50), 7);
    }
}
