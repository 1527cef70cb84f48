//! The eco-serve wire protocol: line-delimited JSON requests and
//! responses.
//!
//! Every request is one JSON object on one line with an `"op"` field:
//!
//! ```text
//! {"op": "run", "id": "r1", "job": {"faulty": "f.v", "golden": "g.v",
//!  "weights": "w.txt", "targets": ["t_0"], "budget": 200000}}
//! {"op": "ping", "id": 2}
//! {"op": "stats", "id": 3}
//! {"op": "shutdown", "id": 4}
//! ```
//!
//! The `"job"` object takes exactly the keys of a batch-manifest entry
//! (`name`, `faulty`, `golden`, `weights`, `targets`, `budget`); paths
//! are resolved against the daemon's working directory, so clients
//! should send absolute paths. `"id"` is an optional string or integer
//! echoed verbatim in the response (defaults to `null`).
//!
//! Every request gets exactly one response line carrying the echoed
//! `id`, `"ok"`, and either the deterministic job-record fields (`run`)
//! or a typed refusal: `"error"` is `"busy"` (admission queue full —
//! retry later), `"draining"` (daemon is shutting down, no new work), or
//! `"bad-request"` (unparseable line or malformed job). Responses to one
//! connection are written in request order, so a replayed request
//! stream yields byte-identical `run` response bytes whatever the worker
//! count (`stats` responses carry live counters and are exempt).
//!
//! A `stats` response carries every counter of the daemon's exit summary
//! (`served`, `busy`, `refused_draining`, `bad_requests`, `workers`,
//! `worker_restarts`, `memo_loaded`, `journal_appended`,
//! `persist_errors`), then `queued` (admitted jobs not yet running) and a
//! `memo` object with the shared cache's `hits`, `misses`, `insertions`,
//! `evictions`, `fallbacks` and `entries`.

use eco_batch::{job_spec_from_json, json, record_fields, JobRecord, JobSpec};
use eco_core::{render_counters, JsonObj};

use crate::ServeSummary;

/// A parsed request line.
#[derive(Debug)]
pub enum Request {
    /// Run one ECO job and respond with its deterministic record.
    Run {
        /// Echo id.
        id: json::Value,
        /// The job to run (manifest-entry keys).
        spec: JobSpec,
    },
    /// Liveness probe.
    Ping {
        /// Echo id.
        id: json::Value,
    },
    /// Live daemon counters (non-deterministic response).
    Stats {
        /// Echo id.
        id: json::Value,
    },
    /// Graceful drain: finish admitted jobs, refuse new ones, exit.
    Shutdown {
        /// Echo id.
        id: json::Value,
    },
}

impl Request {
    /// The request's `op` tag.
    pub fn op(&self) -> &'static str {
        match self {
            Request::Run { .. } => "run",
            Request::Ping { .. } => "ping",
            Request::Stats { .. } => "stats",
            Request::Shutdown { .. } => "shutdown",
        }
    }
}

/// Parses one request line. Any malformed input — truncated JSON, a bad
/// escape, an unknown op, a malformed job — is a typed error for a
/// `bad-request` response, never a panic (the parser is the same
/// hardened subset the batch manifests use).
pub fn parse_request(line: &str) -> Result<Request, String> {
    let value = json::parse(line)?;
    let json::Value::Obj(fields) = value else {
        return Err(format!("expected a request object, got {}", value.kind()));
    };
    let mut op = None;
    let mut id = json::Value::Null;
    let mut job = None;
    for (key, value) in fields {
        match key.as_str() {
            "op" => match value {
                json::Value::Str(s) => op = Some(s),
                other => return Err(format!("op: expected a string, got {}", other.kind())),
            },
            "id" => match value {
                v @ (json::Value::Str(_) | json::Value::Int(_) | json::Value::Null) => id = v,
                other => {
                    return Err(format!(
                        "id: expected a string, integer or null, got {}",
                        other.kind()
                    ))
                }
            },
            "job" => job = Some(value),
            other => return Err(format!("unknown request key `{other}`")),
        }
    }
    let Some(op) = op else {
        return Err("request is missing the `op` field".into());
    };
    match op.as_str() {
        "run" => {
            let Some(job) = job else {
                return Err("run request is missing the `job` object".into());
            };
            let spec = job_spec_from_json("job", job).map_err(|e| e.to_string())?;
            Ok(Request::Run { id, spec })
        }
        "ping" => Ok(Request::Ping { id }),
        "stats" => Ok(Request::Stats { id }),
        "shutdown" => Ok(Request::Shutdown { id }),
        other => Err(format!("unknown op `{other}`")),
    }
}

/// Starts a response object with the echoed id and `ok` flag.
fn response(id: &json::Value, ok: bool) -> JsonObj {
    JsonObj::new().raw("id", &id.to_string()).bool("ok", ok)
}

/// The deterministic `run` response: the echoed id plus exactly the
/// scheduling-independent job-record fields of the batch JSONL report.
pub fn run_response(id: &json::Value, record: &JobRecord) -> String {
    record_fields(response(id, true).str("op", "run"), record).build()
}

/// A typed refusal (`busy`, `draining`, or `bad-request`).
pub fn refusal(id: &json::Value, error: &str, detail: &str) -> String {
    response(id, false)
        .str("error", error)
        .str("detail", detail)
        .build()
}

/// The `ping` response.
pub fn ping_response(id: &json::Value) -> String {
    response(id, true).str("op", "ping").build()
}

/// The `shutdown` acknowledgment. Sequenced after every earlier
/// response of the connection, so receiving it means all of the
/// client's admitted work is done.
pub fn shutdown_response(id: &json::Value) -> String {
    response(id, true)
        .str("op", "shutdown")
        .bool("draining", true)
        .build()
}

/// The `stats` response: every counter of the exit summary (see
/// [`ServeSummary::counters`]; no wall time), the admitted jobs still
/// queued, and the shared memo cache's counters. Live and
/// non-deterministic, so excluded from the byte-identity contract.
pub fn stats_response(id: &json::Value, summary: &ServeSummary, queued: usize) -> String {
    response(id, true)
        .str("op", "stats")
        .counters(&summary.counters())
        .u64("queued", queued as u64)
        .raw("memo", &render_counters(&summary.memo.fields(), true))
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use eco_batch::JobStatus;
    use std::path::PathBuf;

    #[test]
    fn parses_a_full_run_request() {
        let req = parse_request(
            r#"{"op": "run", "id": "r1", "job": {"name": "u", "faulty": "/d/f.v",
                "golden": "/d/g.v", "weights": "/d/w.txt", "targets": ["t_0"], "budget": 9}}"#,
        )
        .unwrap();
        let Request::Run { id, spec } = req else {
            panic!("expected run")
        };
        assert_eq!(id, json::Value::Str("r1".into()));
        assert_eq!(spec.name, "u");
        assert_eq!(spec.faulty, PathBuf::from("/d/f.v"));
        assert_eq!(spec.budget, Some(9));
    }

    #[test]
    fn id_defaults_to_null_and_echoes_integers() {
        let req = parse_request(r#"{"op": "ping"}"#).unwrap();
        let Request::Ping { id } = req else { panic!() };
        assert_eq!(
            ping_response(&id),
            "{\"id\": null, \"ok\": true, \"op\": \"ping\"}"
        );
        let req = parse_request(r#"{"op": "ping", "id": 7}"#).unwrap();
        let Request::Ping { id } = req else { panic!() };
        assert_eq!(
            ping_response(&id),
            "{\"id\": 7, \"ok\": true, \"op\": \"ping\"}"
        );
    }

    #[test]
    fn malformed_lines_are_typed_errors_never_panics() {
        for bad in [
            "",
            "{",
            "nonsense",
            r#"{"op": "run"}"#,                         // missing job
            r#"{"op": "run", "job": {"faulty": "f"}}"#, // missing golden
            r#"{"op": "warp", "id": 1}"#,               // unknown op
            r#"{"op": "run", "id": [1], "job": {}}"#,   // bad id type
            r#"{"op": "run", "job": {"faulty": "a\"#,   // truncated escape
            r#"{"op": "ping", "extra": 1}"#,            // unknown key
        ] {
            assert!(parse_request(bad).is_err(), "input {bad:?} must error");
        }
    }

    #[test]
    fn run_response_carries_exactly_the_deterministic_record_fields() {
        let record = JobRecord {
            pass: 0,
            index: 0,
            name: "u1".into(),
            status: JobStatus::Complete,
            targets: 2,
            patches: 2,
            cost: 11,
            size: 5,
            verified: true,
            detail: String::new(),
        };
        assert_eq!(
            run_response(&json::Value::Str("a".into()), &record),
            "{\"id\": \"a\", \"ok\": true, \"op\": \"run\", \"name\": \"u1\", \
             \"status\": \"complete\", \"targets\": 2, \"patches\": 2, \"cost\": 11, \
             \"size\": 5, \"verified\": true, \"detail\": \"\"}"
        );
    }

    #[test]
    fn refusals_are_typed() {
        let busy = refusal(&json::Value::Int(3), "busy", "queue full (8 jobs)");
        assert_eq!(
            busy,
            "{\"id\": 3, \"ok\": false, \"error\": \"busy\", \
             \"detail\": \"queue full (8 jobs)\"}"
        );
    }
}
